package core

// RunPerItem runs the per-item reference: Run with every shortlist
// fetched by its own Querier.Candidates call, which the block passes
// must match bit for bit.
func RunPerItem(space Space, opts Options) (*Result, error) {
	return run(space, opts, true)
}

// WriteRunState writes an iteration checkpoint exactly as a run's
// SnapshotEvery does, so tests can hand Run checkpoints whose contents
// are consistent with the container but not with each other.
var WriteRunState = writeRunState

// SummaryReads returns how many cluster summaries q's block queries
// have read.
func (q *IndexQuerier) SummaryReads() int64 { return q.summaries }

// ResummarizeCounted is Resummarize, returning how many cluster
// summaries it recomputed.
func (b *ShardedIndexBase) ResummarizeCounted(items, view []int32) int {
	return b.index.Resummarize(items, view)
}

// WithShards returns o with the deprecated Shards field set, for the
// tests that pin that Run ignores it.
func WithShards(o Options, shards int) Options {
	o.Shards = shards
	return o
}

// OffersRetiredCapabilities reports whether a offers every deprecated
// reorder and shard capability.
func OffersRetiredCapabilities(a Accelerator) bool {
	_, configures := a.(ReorderConfigurer)
	_, maps := a.(ReorderMapper)
	_, shards := a.(ShardedIndexer)
	return configures && maps && shards
}

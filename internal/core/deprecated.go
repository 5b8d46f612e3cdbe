package core

// Capabilities the driver no longer checks for. The benchmark module
// (perfbench/) still names them in its decorator parity list; they go
// when it stops. Nothing implements them, and nothing else in this
// module uses them. Options.Shards, the one deprecated field, stays in
// Options' declaration.

// ShardedIndexer was the capability through which the driver set the
// index's item-shard count.
//
// Deprecated: the index has one shard.
type ShardedIndexer interface {
	SetShards(shards int)
}

// ReorderConfigurer was the capability through which the driver
// switched the index's locality reordering.
//
// Deprecated: the index is built in original item order.
type ReorderConfigurer interface {
	SetReorder(disable bool)
}

// ReorderMapper was the capability that exposed a reordered index's
// item permutation.
//
// Deprecated: the index is built in original item order.
type ReorderMapper interface {
	ReorderMap() (perm, inv []int32)
}

// ShardStatsReporter was the capability that reported the index's
// shard layout and fan-out counters.
//
// Deprecated: IndexPersister.PersistStats reports what remains.
type ShardStatsReporter interface {
	ShardStats()
}

// ForeignSlotConfigurer was the capability through which the driver
// configured the retired cross-shard foreign-slot span arrays.
//
// Deprecated: the index has one shard and no fan-out.
type ForeignSlotConfigurer interface {
	SetForeignSlots(budget int64, disable bool)
}

// ResilienceConfigurer was the capability through which the driver
// configured the retired fault-tolerant shard-backend fan-out.
//
// Deprecated: the index has one shard and no fan-out.
type ResilienceConfigurer interface {
	SetResilience(spec string)
}

// DegradedQuerier was the Querier capability that reported shortlists
// degraded by failed shard backends.
//
// Deprecated: no shortlist degrades.
type DegradedQuerier interface {
	LastDegraded() (partial, ownerDown bool)
}

// DegradedReverse was the ReverseView capability that reported
// expansions degraded by failed shard backends.
//
// Deprecated: no expansion degrades.
type DegradedReverse interface {
	Degraded() bool
}

// UnindexedQuerier was the capability through which the retired seeded
// bootstrap queried the growing index for a not-yet-inserted item.
//
// Deprecated: the bootstrap's first assignment is always the exact
// scan, which queries no index.
type UnindexedQuerier interface {
	CandidatesUnindexed(item int32, assign []int32) []int32
}

// Seeder was the Space capability that named the seed items of the
// retired seeded bootstrap.
//
// Deprecated: Run no longer checks for it. The spaces' Seeds accessors
// stay.
type Seeder interface {
	Seeds() []int32
}

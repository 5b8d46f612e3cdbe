package core

import (
	"sync"

	"lshcluster/internal/dataset"
	"lshcluster/internal/lsh"
	"lshcluster/internal/minhash"
)

// MinHashAccelerator implements Accelerator with the MinHash banding
// index of internal/lsh over a categorical dataset — the instantiation
// the paper evaluates as MH-K-Modes. Items are indexed by the set of
// their *present* attribute values (Algorithm 2 lines 1–5); queries map
// colliding items to their current clusters and deduplicate, yielding the
// candidate-cluster shortlist (lines 10–12).
//
// The embedded ShardedIndexBase carries the shared index/arena state
// machine; this type adds the MinHash signing (with its hash-column
// memo).
type MinHashAccelerator struct {
	ShardedIndexBase
	ds     *dataset.Dataset
	scheme *minhash.Scheme
	maxVal dataset.Value
	memo   *minhash.Memo
}

// NewMinHashAccelerator creates an accelerator for ds with the given
// banding parameters. seed makes the hash family deterministic.
func NewMinHashAccelerator(ds *dataset.Dataset, params lsh.Params, seed uint64) (*MinHashAccelerator, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &MinHashAccelerator{
		// Categorical datasets are fingerprintable, so a saved index can
		// be pinned to the data it was built from (IndexPersister).
		ShardedIndexBase: NewShardedIndexBase(params, seed, ds.NumItems(), ds.Fingerprint),
		ds:               ds,
		scheme:           minhash.NewScheme(params.SignatureLen(), seed),
		// Sizes the hash-column memo: interned value IDs are dense.
		maxVal: ds.MaxValue(),
	}, nil
}

// Reset discards any previous index and prepares a fresh one.
func (a *MinHashAccelerator) Reset(numClusters int) error {
	if err := a.ResetIndex(numClusters); err != nil {
		return err
	}
	// Categorical values repeat across items, so each distinct value's
	// hash column can be computed once and signing becomes element-wise
	// minima over cached columns: identical signatures, far cheaper
	// bootstrap. The memo needs values to repeat (memoMinReuse), and its
	// column table, (maxVal+1)·Bands·Rows words, must be no larger than
	// the n·Bands-word band-key arena SignAll allocates anyway, that is
	// (maxVal+1)·Rows ≤ n. Inside that bound the memo signed faster than
	// direct hashing at every table size measured (up to 15 MB at 100k
	// items); far past it, re-hashing wins over min-scans of a table
	// that no cache holds.
	a.memo = nil
	values := int64(a.maxVal) + 1
	n := int64(a.ds.NumItems())
	if n*int64(a.ds.NumAttrs()) >= memoMinReuse*values && values <= n/int64(a.Params().Rows) {
		a.memo = a.scheme.NewMemo(int(values))
	}
	return nil
}

// memoMinReuse is the minimum mean occurrences-per-distinct-value at
// which the hash-column memo is enabled: below it the one-off column
// computation outweighs the per-occurrence saving.
const memoMinReuse = 8

// SignAll computes every item's band keys into a flat arena, sharding
// the signing across workers goroutines with per-worker scratch
// (core.BulkIndexer). When the hash-column memo is enabled, the first
// signing worker to start fills it — each distinct value's column
// computed exactly once, in parallel — while the others wait, after
// which the shared memo is read-only and safe for all of them; without
// the memo each worker hashes directly. Keys are bit-identical either
// way. The memo is released on return: after bulk signing the pipeline
// signs nothing (BuildFrozen reads the arena).
func (a *MinHashAccelerator) SignAll(workers int, stop func() bool) error {
	memo := a.memo
	a.memo = nil
	// Filling inside the first worker puts the fill after lsh.SignAll
	// has allocated the arena, so the collection that allocation
	// triggers does not find the memo live: a memo live there raises
	// every later heap goal, which cost the 100k-item bootstrap about
	// 9% of its peak RSS.
	var fill sync.Once
	return a.SignAllInto(workers, func() lsh.SignFunc {
		var set []uint64
		if memo != nil {
			fill.Do(func() { memo.Fill(workers) })
			return func(item int32, sig []uint64) {
				set = a.ds.PresentValues(int(item), set[:0])
				memo.Sign(set, sig)
			}
		}
		return func(item int32, sig []uint64) {
			set = a.ds.PresentValues(int(item), set[:0])
			a.scheme.Sign(set, sig)
		}
	}, stop)
}

// IndexQuerier adapts a populated lsh.Index into a Querier: colliding
// items are mapped through the live assignment and deduplicated into a
// cluster shortlist with an epoch-stamp array (no per-query clearing),
// one item at a time (Candidates) or per block position just before its
// emit (CandidatesBlock), where a long bucket's cluster summary stands
// in for its members. Any LSH family that feeds an lsh.Index — MinHash
// here, SimHash in the numeric extension — gets shortlist semantics
// from this adapter.
type IndexQuerier struct {
	ix     *lsh.Index
	stamps []uint32
	epoch  uint32
	buf    []int32
	// spans is CandidatesBlock's scratch: per block position, the
	// bucket slices the band-major sweep delivered, in delivery order.
	spans [][]span
	// summaries counts the cluster summaries CandidatesBlock read, so
	// tests can tell a run that read summaries from one that walked
	// every bucket.
	summaries int64
}

// span is one bucket slice a block sweep delivered, with its
// cluster-summary handle (-1 when it is walked).
type span struct {
	bucket []int32
	sum    int32
}

// NewIndexQuerier creates a querier over index for a clustering with
// numClusters clusters.
func NewIndexQuerier(index *lsh.Index, numClusters int) *IndexQuerier {
	return &IndexQuerier{ix: index, stamps: make([]uint32, numClusters)}
}

// beginDedup starts a fresh epoch and resets the shortlist buffer.
func (q *IndexQuerier) beginDedup() {
	q.epoch++
	if q.epoch == 0 { // epoch counter wrapped: invalidate all stamps
		for i := range q.stamps {
			q.stamps[i] = 0
		}
		q.epoch = 1
	}
	q.buf = q.buf[:0]
}

// collect folds one colliding item into the deduplicated cluster
// shortlist under assign.
func (q *IndexQuerier) collect(other int32, assign []int32) {
	if c := assign[other]; c >= 0 { // < 0: not yet assigned (the Querier contract)
		q.add(c)
	}
}

// add appends cluster c to the shortlist unless it is already there.
func (q *IndexQuerier) add(c int32) {
	if q.stamps[c] != q.epoch {
		q.stamps[c] = q.epoch
		q.buf = append(q.buf, c)
	}
}

// Candidates returns the deduplicated cluster shortlist for item. The
// returned slice is reused by the next call. It walks every colliding
// item, so it is the reference the block path's summaries are tested
// against.
func (q *IndexQuerier) Candidates(item int32, assign []int32) []int32 {
	q.beginDedup()
	q.ix.Candidates(item, func(other int32) { q.collect(other, assign) })
	return q.buf
}

// CandidatesBlock computes the shortlists of a whole block of items
// (core.BlockQuerier) in two steps split at the assignment. One
// band-major index sweep (lsh.Index.CandidatesBatch, whose order
// amortises cache misses) records each position's bucket slices and
// their cluster-summary handles; no bucket depends on assign. Each position's shortlist is
// then resolved just before its emit (resolve), against assign and the
// summaries as they stand at that moment, so a move an earlier emit
// wrote and reported through ClusterSummarizer.Resummarize is seen
// exactly as the per-item loop sees it. Shortlists are valid only
// inside their emit invocation.
func (q *IndexQuerier) CandidatesBlock(items []int32, assign []int32, emit func(pos int, shortlist []int32)) {
	for len(q.spans) < len(items) {
		q.spans = append(q.spans, nil)
	}
	spans := q.spans[:len(items)]
	for pos := range spans {
		spans[pos] = spans[pos][:0]
	}
	q.ix.CandidatesBatch(items, func(pos int, bucket []int32, sum int32) {
		spans[pos] = append(spans[pos], span{bucket, sum})
	})
	for pos, buckets := range spans {
		q.resolve(buckets, assign)
		emit(pos, q.buf)
	}
}

// resolve builds one position's shortlist from its recorded spans in
// delivery order: a span with a summary handle folds in the bucket's
// distinct clusters, any other maps its members through assign. Both
// fold the same clusters in the same first-appearance order, so the
// shortlist is the per-item Candidates walk's.
//
//lshvet:noescape
func (q *IndexQuerier) resolve(spans []span, assign []int32) {
	q.beginDedup()
	for _, sp := range spans {
		if sp.sum < 0 {
			for _, other := range sp.bucket {
				q.collect(other, assign)
			}
			continue
		}
		q.summaries++
		for _, c := range q.ix.Summary(sp.sum) {
			q.add(c)
		}
	}
}

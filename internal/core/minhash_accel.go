package core

import (
	"fmt"
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
// The index is an item-partitioned lsh.Sharded — a single shard by
// default (the bit-identical unsharded oracle), S shards under
// Options.Shards via the ShardedIndexer capability. Shard count never
// changes results; it changes how the index is built (per-shard
// parallel, from disjoint arena slices) and laid out (per-shard
// cache-resident tables). The embedded ShardedIndexBase carries the
// shared index/arena state machine; this type adds the MinHash
// signing (with its hash-column memo).
type MinHashAccelerator struct {
	ShardedIndexBase
	ds      *dataset.Dataset
	mhParam lsh.Params
	seed    uint64
	maxVal  dataset.Value
	memo    *minhash.Memo
	setBuf  []uint64
	sigBuf  []uint64
}

// NewMinHashAccelerator creates an accelerator for ds with the given
// banding parameters. seed makes the hash family deterministic.
func NewMinHashAccelerator(ds *dataset.Dataset, params lsh.Params, seed uint64) (*MinHashAccelerator, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	a := &MinHashAccelerator{
		ds:      ds,
		mhParam: params,
		seed:    seed,
		// Sizes the hash-column memo: interned value IDs are dense.
		maxVal: ds.MaxValue(),
	}
	// Categorical datasets are fingerprintable, so a saved index can be
	// pinned to the data it was built from (IndexPersister).
	a.SetFingerprintSource(ds.Fingerprint)
	return a, nil
}

// Params returns the banding configuration (also valid before Reset).
func (a *MinHashAccelerator) Params() lsh.Params { return a.mhParam }

// Reset discards any previous index and prepares a fresh one.
func (a *MinHashAccelerator) Reset(numClusters int) error {
	if err := a.ResetIndex(a.mhParam, a.seed, a.ds.NumItems(), numClusters); err != nil {
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
	if n*int64(a.ds.NumAttrs()) >= memoMinReuse*values && values <= n/int64(a.mhParam.Rows) {
		a.memo = a.Index().Scheme().NewMemo(int(values))
	}
	a.sigBuf = make([]uint64, a.mhParam.SignatureLen())
	return nil
}

// memoMinReuse is the minimum mean occurrences-per-distinct-value at
// which the hash-column memo is enabled: below it the one-off column
// computation outweighs the per-occurrence saving.
const memoMinReuse = 8

// Insert MinHashes item (via the memoized hash columns when Reset
// enabled them) and files it in its owning shard.
func (a *MinHashAccelerator) Insert(item int32) error {
	ix := a.Index()
	if ix == nil {
		return fmt.Errorf("core: Insert before Reset")
	}
	a.setBuf = a.ds.PresentValues(int(item), a.setBuf[:0])
	if a.memo != nil {
		return ix.InsertSignature(item, a.memo.Sign(a.setBuf, a.sigBuf))
	}
	return ix.Insert(item, a.setBuf)
}

// SignAll computes every item's band keys into a flat arena, sharding
// the signing across workers goroutines with per-worker scratch
// (core.BulkIndexer). When the hash-column memo is enabled, the first
// signing worker to start fills it — each distinct value's column
// computed exactly once, in parallel — while the others wait, after
// which the shared memo is read-only and safe for all of them; without
// the memo each worker hashes directly. Keys are bit-identical to
// per-item Insert signing. The memo is released on return: after bulk
// signing the pipeline signs nothing (BuildFrozen reads the arena).
func (a *MinHashAccelerator) SignAll(workers int, stop func() bool) error {
	ix := a.Index()
	if ix == nil {
		return fmt.Errorf("core: SignAll before Reset")
	}
	memo := a.memo
	a.memo = nil
	// Filling inside the first worker puts the fill after lsh.SignAll
	// has allocated the arena, so the collection that allocation
	// triggers does not find the memo live: a memo live there raises
	// every later heap goal, which cost the 100k-item bootstrap about
	// 9% of its peak RSS.
	var fill sync.Once
	scheme := ix.Scheme()
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
			scheme.Sign(set, sig)
		}
	}, stop)
}

// IndexQuerier adapts a populated lsh.Sharded index into a Querier:
// colliding items are mapped through the live assignment and
// deduplicated into a cluster shortlist with an epoch-stamp array (no
// per-query clearing), one item at a time (Candidates) or per block
// position just before its emit (CandidatesBlock). Candidate
// enumeration goes through the lsh.Query planner, which fans
// sub-queries out across shards and merges them back into the
// single-index order — so shortlist contents and first-occurrence
// order are independent of the shard count. Any LSH family that feeds
// an lsh.Index — MinHash here, SimHash in the numeric extension — gets
// shortlist semantics from this adapter.
type IndexQuerier struct {
	q      *lsh.Query
	stamps []uint32
	epoch  uint32
	buf    []int32
	// spans is CandidatesBlock's scratch: per block position, the
	// bucket slices the band-major sweep delivered, in delivery order.
	spans [][][]int32
}

// NewIndexQuerier creates a querier over index for a clustering with
// numClusters clusters.
func NewIndexQuerier(index *lsh.Sharded, numClusters int) *IndexQuerier {
	return &IndexQuerier{q: index.NewQuery(), stamps: make([]uint32, numClusters)}
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
	c := assign[other]
	if c < 0 {
		return // not yet assigned (the Querier contract)
	}
	if q.stamps[c] != q.epoch {
		q.stamps[c] = q.epoch
		q.buf = append(q.buf, c)
	}
}

// Candidates returns the deduplicated cluster shortlist for item. The
// returned slice is reused by the next call.
func (q *IndexQuerier) Candidates(item int32, assign []int32) []int32 {
	q.beginDedup()
	q.q.Candidates(item, func(other int32) { q.collect(other, assign) })
	return q.buf
}

// CandidatesBlock computes the shortlists of a whole block of items
// (core.BlockQuerier) in two steps split at the assignment. One
// band-major index sweep (lsh.Query.CandidatesBatch; see
// lsh.Index.CandidatesBatch for why that order amortises cache misses)
// records each position's bucket slices; no bucket depends on assign.
// Each position's shortlist is then resolved just before its emit:
// the recorded buckets, which arrive per position in ascending band
// order (and ascending shard order within a band), are mapped through
// assign and deduplicated with the epoch stamps — the per-item
// Candidates sequence, contents and first-occurrence order, against
// assign as it stands at that moment, so a move an earlier emit wrote
// is seen exactly as the per-item loop sees it. Shortlists are valid
// only inside their emit invocation.
func (q *IndexQuerier) CandidatesBlock(items []int32, assign []int32, emit func(pos int, shortlist []int32)) {
	for len(q.spans) < len(items) {
		q.spans = append(q.spans, nil)
	}
	spans := q.spans[:len(items)]
	for pos := range spans {
		spans[pos] = spans[pos][:0]
	}
	q.q.CandidatesBatch(items, func(pos int, bucket []int32) {
		spans[pos] = append(spans[pos], bucket)
	})
	for pos, buckets := range spans {
		q.beginDedup()
		for _, bucket := range buckets {
			for _, other := range bucket {
				q.collect(other, assign)
			}
		}
		emit(pos, q.buf)
	}
}

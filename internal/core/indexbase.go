package core

import (
	"fmt"

	"lshcluster/internal/lsh"
)

// ShardedIndexBase is the index state machine shared by the
// accelerators built on lsh.Index (MinHash here, SimHash in
// internal/simhash): the accelerator's fixed index configuration, its
// one index and the presigned-arena lifecycle behind BulkIndexer and
// the ReverseQuerier, IndexPersister and ClusterSummarizer
// capabilities. Embedding it promotes everything signing-agnostic —
// Params, Index, BuildFrozen, NewQuerier, NewReverse — so the arena
// lifecycle lives in exactly one place; the embedding accelerator
// supplies only what varies, the signing, as the per-worker signer
// factory it hands SignAllInto. (The name predates the one-shard index;
// the benchmark module names the embedded field.)
type ShardedIndexBase struct {
	// params, seed, n and fpSource are fixed at construction
	// (NewShardedIndexBase): the banding, the signing seed, the item
	// count, and the supplier of the dataset fingerprint a saved index
	// is pinned to (nil when the dataset has none; such an accelerator
	// cannot persist).
	params   lsh.Params
	seed     uint64
	n        int
	fpSource func() uint64
	// k is the cluster count of the last successful ResetIndex; 0
	// before one.
	k int
	// index is the built or loaded index: nil until BuildFrozen, or a
	// ResetIndex that warm-loaded it.
	index *lsh.Index
	// presigned is the flat band-key arena SignAllInto computed
	// (keys[item·Bands+band]); nil until then, released by BuildFrozen.
	presigned []uint64
	// persistCfg/persistOn hold the persistence configuration the driver
	// forwarded (IndexPersister); stats describes what the last
	// ResetIndex/BuildFrozen did with the directory.
	persistCfg PersistConfig
	persistOn  bool
	stats      PersistStats
}

// NewShardedIndexBase returns the index state of an accelerator over
// numItems items, banded by params and signed under seed. fingerprint
// supplies the dataset fingerprint a saved index is pinned to; nil
// when the dataset has none, which makes index persistence a
// ResetIndex error.
func NewShardedIndexBase(params lsh.Params, seed uint64, numItems int, fingerprint func() uint64) ShardedIndexBase {
	return ShardedIndexBase{params: params, seed: seed, n: numItems, fpSource: fingerprint}
}

// SetPersist stores the index-persistence configuration for the next
// ResetIndex (core.IndexPersister). An empty Dir disables persistence.
func (b *ShardedIndexBase) SetPersist(cfg PersistConfig) {
	b.persistCfg = cfg
	b.persistOn = cfg.Dir != ""
}

// PersistStats reports what the last ResetIndex and BuildFrozen did
// with the index directory (core.IndexPersister).
func (b *ShardedIndexBase) PersistStats() PersistStats {
	st := b.stats
	if b.index != nil {
		st.MmapBytes = b.index.MmapBytes()
	}
	return st
}

// Params returns the banding configuration.
func (b *ShardedIndexBase) Params() lsh.Params { return b.params }

// Index exposes the underlying LSH index (nil until BuildFrozen or a
// warm-starting Reset), e.g. for bucket-occupancy diagnostics.
func (b *ShardedIndexBase) Index() *lsh.Index { return b.index }

// ResetIndex discards any previous index and prepares a clustering
// over numClusters clusters; with persistence on and a saved index in
// the directory, it loads that index (a warm start). Called by the
// embedding accelerator's Reset.
func (b *ShardedIndexBase) ResetIndex(numClusters int) error {
	if numClusters < 1 {
		return fmt.Errorf("core: numClusters must be ≥ 1, got %d", numClusters)
	}
	// Release any previous index's memory mapping before dropping the
	// reference (a no-op for built indexes).
	if b.index != nil {
		_ = b.index.ClosePersist()
	}
	b.index, b.k, b.presigned, b.stats = nil, 0, nil, PersistStats{}
	if b.persistOn && b.fpSource == nil {
		return fmt.Errorf("core: index persistence requires a dataset fingerprint, which this accelerator does not provide")
	}
	if b.persistOn && lsh.IndexSaved(b.persistCfg.Dir) {
		// Warm start: load the saved index instead of building. The
		// manifest pins parameters, seed, shape and dataset fingerprint;
		// any mismatch is a hard error — a stale index must never
		// silently serve or silently rebuild.
		ix, rep, err := lsh.Open(b.persistCfg.Dir, lsh.OpenOptions{
			Params:      b.params,
			Seed:        b.seed,
			NumItems:    b.n,
			Fingerprint: b.fpSource(),
			Mmap:        mmapWanted(b.persistCfg.DisableMmap),
		})
		if err != nil {
			return fmt.Errorf("core: loading persisted index: %w", err)
		}
		b.index = ix
		b.stats = PersistStats{WarmStart: true, LoadTime: rep.Duration}
	}
	b.k = numClusters
	return nil
}

// SignAllInto computes every item's band keys into the presigned
// arena, sharding the signing across workers goroutines with the
// accelerator-supplied per-worker signer factory (the signing half of
// core.BulkIndexer.SignAll).
func (b *ShardedIndexBase) SignAllInto(workers int, newSigner func() lsh.SignFunc, stop func() bool) error {
	if b.k == 0 {
		return fmt.Errorf("core: SignAll before Reset")
	}
	b.presigned = lsh.SignAll(b.params, b.n, workers, newSigner, stop)
	return nil
}

// BuildFrozen builds the index from the presigned keys, bands in
// parallel (core.BulkIndexer), and saves it when persistence is on.
func (b *ShardedIndexBase) BuildFrozen(workers int) error {
	if b.presigned == nil {
		return fmt.Errorf("core: BuildFrozen before SignAll")
	}
	ix, err := lsh.BuildFrozen(b.params, b.presigned, b.n, workers)
	b.presigned = nil
	if err != nil {
		return err
	}
	b.index = ix
	if b.persistOn && !b.stats.WarmStart {
		rep, err := ix.Save(b.persistCfg.Dir, b.seed, b.fpSource())
		if err != nil {
			return fmt.Errorf("core: saving index: %w", err)
		}
		b.stats.SaveTime = rep.Duration
	}
	return nil
}

// SummarizeClusters builds the index's cluster summaries from view
// (core.ClusterSummarizer); a no-op before the index exists.
func (b *ShardedIndexBase) SummarizeClusters(view []int32) {
	if b.index != nil {
		b.index.SummarizeClusters(view)
	}
}

// Resummarize refreshes, once each, the summaries of the long buckets
// holding any of items from view, after writes to their clusters
// (core.ClusterSummarizer).
func (b *ShardedIndexBase) Resummarize(items []int32, view []int32) {
	if b.index != nil {
		b.index.Resummarize(items, view)
	}
}

// NewQuerier returns a query handle with its own deduplication scratch.
func (b *ShardedIndexBase) NewQuerier() Querier {
	return NewIndexQuerier(b.index, b.k)
}

// NewReverse returns a reverse-collision view over the index
// (core.ReverseQuerier).
func (b *ShardedIndexBase) NewReverse() ReverseView {
	return b.index.NewReverse()
}

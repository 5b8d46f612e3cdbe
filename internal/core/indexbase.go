package core

import (
	"fmt"

	"lshcluster/internal/lsh"
)

// ShardedIndexBase is the index state machine shared by the
// accelerators built on lsh.Index (MinHash here, SimHash in
// internal/simhash): one index plus the presigned-arena lifecycle
// behind BulkIndexer and the ReverseQuerier, IndexPersister and
// ClusterSummarizer capabilities. Embedding it promotes everything
// signing-agnostic — Params, Index, BuildFrozen, NewQuerier,
// NewReverse — so the arena lifecycle lives in exactly one place; the
// embedding accelerator supplies only what varies, the signing, as the
// per-worker signer factory it hands SignAllInto. (The name predates
// the one-shard index; the benchmark module names the embedded field.)
type ShardedIndexBase struct {
	params lsh.Params
	index  *lsh.Index
	n      int
	k      int
	// presigned is the flat band-key arena SignAllInto computed
	// (keys[item·Bands+band]); nil until then, released to the index by
	// BuildFrozen.
	presigned []uint64
	// persistCfg/persistOn hold the persistence configuration the driver
	// forwarded (IndexPersister); fpSource supplies the dataset
	// fingerprint the saved index is pinned to (set once by the
	// embedding accelerator via SetFingerprintSource — accelerators
	// without one cannot persist). seed is retained from ResetIndex for
	// the save; stats describes what the last ResetIndex/BuildFrozen
	// did with the directory.
	persistCfg PersistConfig
	persistOn  bool
	fpSource   func() uint64
	seed       uint64
	stats      PersistStats
}

// SetPersist stores the index-persistence configuration for the next
// ResetIndex (core.IndexPersister). An empty Dir disables persistence.
func (b *ShardedIndexBase) SetPersist(cfg PersistConfig) {
	b.persistCfg = cfg
	b.persistOn = cfg.Dir != ""
}

// SetFingerprintSource registers the dataset-fingerprint supplier the
// persisted index is validated against. Embedding accelerators whose
// dataset can be fingerprinted call it once at construction;
// persistence on an accelerator without a source is a ResetIndex error.
func (b *ShardedIndexBase) SetFingerprintSource(fp func() uint64) {
	b.fpSource = fp
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

// Index exposes the underlying LSH index (nil before the accelerator's
// Reset), e.g. for bucket-occupancy diagnostics.
func (b *ShardedIndexBase) Index() *lsh.Index { return b.index }

// ResetIndex discards any previous index and prepares a fresh one over
// numItems items and numClusters clusters. Called by the embedding
// accelerator's Reset.
func (b *ShardedIndexBase) ResetIndex(params lsh.Params, seed uint64, numItems, numClusters int) error {
	if numClusters < 1 {
		return fmt.Errorf("core: numClusters must be ≥ 1, got %d", numClusters)
	}
	// Release any previous index's memory mapping before dropping the
	// reference (a no-op for built indexes).
	if b.index != nil {
		_ = b.index.ClosePersist()
	}
	b.index = nil
	b.stats = PersistStats{}
	if b.persistOn && b.fpSource == nil {
		return fmt.Errorf("core: index persistence requires a dataset fingerprint, which this accelerator does not provide")
	}
	var ix *lsh.Index
	var err error
	if b.persistOn && lsh.IndexSaved(b.persistCfg.Dir) {
		// Warm start: load the saved frozen index instead of building.
		// The manifest pins parameters, seed, shape and dataset
		// fingerprint; any mismatch is a hard error — a stale index must
		// never silently serve or silently rebuild.
		var rep lsh.OpenReport
		ix, rep, err = lsh.Open(b.persistCfg.Dir, lsh.OpenOptions{
			Params:      params,
			Seed:        seed,
			NumItems:    numItems,
			Fingerprint: b.fpSource(),
			Mmap:        mmapWanted(b.persistCfg.DisableMmap),
		})
		if err != nil {
			return fmt.Errorf("core: loading persisted index: %w", err)
		}
		b.stats = PersistStats{WarmStart: true, LoadTime: rep.Duration}
	} else if ix, err = lsh.NewIndex(params, seed); err != nil {
		return err
	}
	b.params = params
	b.index = ix
	b.n = numItems
	b.k = numClusters
	b.seed = seed
	b.presigned = nil
	return nil
}

// SignAllInto computes every item's band keys into the presigned
// arena, sharding the signing across workers goroutines with the
// accelerator-supplied per-worker signer factory (the signing half of
// core.BulkIndexer.SignAll).
func (b *ShardedIndexBase) SignAllInto(workers int, newSigner func() lsh.SignFunc, stop func() bool) error {
	if b.index == nil {
		return fmt.Errorf("core: SignAll before Reset")
	}
	b.presigned = lsh.SignAll(b.params, b.n, workers, newSigner, stop)
	return nil
}

// BuildFrozen constructs the frozen layout directly from the presigned
// keys, bands in parallel (core.BulkIndexer), and saves it when
// persistence is on.
func (b *ShardedIndexBase) BuildFrozen(workers int) error {
	if b.presigned == nil {
		return fmt.Errorf("core: BuildFrozen before SignAll")
	}
	err := b.index.BuildFrozen(b.presigned, b.n, workers)
	b.presigned = nil
	if err == nil && b.persistOn && !b.stats.WarmStart {
		rep, serr := b.index.Save(b.persistCfg.Dir, b.seed, b.fpSource())
		if serr != nil {
			return fmt.Errorf("core: saving index: %w", serr)
		}
		b.stats.SaveTime = rep.Duration
	}
	return err
}

// SummarizeClusters builds the frozen index's cluster summaries from
// view (core.ClusterSummarizer); a no-op before Reset.
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

// NewReverse returns a reverse-collision view over the frozen index
// (core.ReverseQuerier), or nil before Reset or before BuildFrozen —
// the driver then simply runs without active-set filtering.
func (b *ShardedIndexBase) NewReverse() ReverseView {
	if b.index == nil {
		return nil
	}
	if r := b.index.NewReverse(); r != nil {
		return r
	}
	return nil
}

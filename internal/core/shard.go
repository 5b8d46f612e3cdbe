package core

import (
	"fmt"
	"time"

	"lshcluster/internal/lsh"
)

// Sharding capabilities. The LSH index layer can partition its hash
// tables by item into S independent shards (lsh.Sharded): shards build
// in parallel from disjoint slices of the signing arena, stay
// individually cache-resident, and are queried once frozen.
// Queries fan out across shards and merge the shard-local shortlists
// back into the exact candidate stream a single index would produce,
// so sharding never changes results: Options.Shards = 1 (the default)
// IS the unsharded oracle, and every shard count is bit-identical to
// it (pinned by the shard-invariance equivalence tests).

// ShardedIndexer is an optional Accelerator capability: accelerators
// whose index supports item partitioning implement it. The driver
// calls SetShards once per Run, before Reset, with max(1,
// Options.Shards); Reset then builds the index with that many shards.
// Accelerators without the capability simply ignore Options.Shards.
type ShardedIndexer interface {
	// SetShards configures the shard count for the next Reset. Values
	// < 2 select the single-shard oracle. Implementations may clamp
	// (e.g. to the item count).
	SetShards(shards int)
}

// ForeignSlotConfigurer was the capability through which the driver
// configured the retired cross-shard foreign-slot span arrays.
//
// Deprecated: the span arrays are gone — a sharded index's fan-out is
// always the foreign-emptiness bitmap plus key probes, with nothing to
// configure. Nothing implements this interface and Run no longer
// checks for it; it remains so existing references keep compiling.
type ForeignSlotConfigurer interface {
	SetForeignSlots(budget int64, disable bool)
}

// ResilienceConfigurer was the capability through which the driver
// configured the retired fault-tolerant shard-backend fan-out.
//
// Deprecated: the backend layer is gone — every cross-shard sweep
// reads shard memory directly, with nothing to configure. Nothing
// implements this interface and Run no longer checks for it; it
// remains so existing references keep compiling.
type ResilienceConfigurer interface {
	SetResilience(spec string)
}

// DegradedQuerier was the Querier capability that reported shortlists
// degraded by failed shard backends.
//
// Deprecated: in-memory shards cannot fail, so no shortlist degrades.
// Nothing implements this interface and Run no longer checks for it;
// it remains so existing references keep compiling.
type DegradedQuerier interface {
	LastDegraded() (partial, ownerDown bool)
}

// DegradedReverse was the ReverseView capability that reported
// expansions degraded by failed shard backends.
//
// Deprecated: in-memory shards cannot fail, so no expansion degrades.
// Nothing implements this interface and Run no longer checks for it;
// it remains so existing references keep compiling.
type DegradedReverse interface {
	Degraded() bool
}

// UnindexedQuerier was the capability through which the retired seeded
// bootstrap queried the growing index for a not-yet-inserted item.
//
// Deprecated: the bootstrap's first assignment is always the exact
// scan, which queries no index. Nothing implements this interface and
// Run no longer checks for it; it remains so existing references keep
// compiling.
type UnindexedQuerier interface {
	CandidatesUnindexed(item int32, assign []int32) []int32
}

// Seeder was the Space capability that named the seed items of the
// retired seeded bootstrap.
//
// Deprecated: Run no longer checks for it; it remains so existing
// references keep compiling. The spaces' Seeds accessors stay.
type Seeder interface {
	Seeds() []int32
}

// ReorderConfigurer is an optional Accelerator capability:
// accelerators whose sharded index supports the locality-preserving
// item reordering (lsh.Sharded.SetReorder) implement it. The driver
// forwards Options.Oracles.DisableReorder once per Run, before Reset;
// the index derives and applies the permutation during its bulk frozen
// build. Accelerators without the capability simply build in original
// order.
type ReorderConfigurer interface {
	// SetReorder configures locality reordering for the next Reset:
	// disable pins the original-order oracle.
	SetReorder(disable bool)
}

// ReorderMapper is an optional Accelerator capability: expose the
// locality permutation the index applied during its frozen build
// (perm[original] = internal, inv[internal] = original), or nil/nil
// when the build ran in original order. The driver uses it to keep an
// internal-ID mirror of the assignment slice so shortlist sweeps read
// assignments in near-sequential order.
type ReorderMapper interface {
	ReorderMap() (perm, inv []int32)
}

// ShardStats is the post-run shard report of a ShardStatsReporter.
type ShardStats struct {
	// Shards is the shard count of the index (0 when none was built).
	Shards int
	// BuildTimes holds the per-shard frozen-build wall times (nil when
	// the index never froze).
	BuildTimes []time.Duration
	// ReorderTime is the wall time the locality-reordering stage spent
	// deriving and applying the permutation (zero when reordering was
	// disabled or inapplicable).
	ReorderTime time.Duration
	// LocalCands/ForeignCands count shortlist candidates by origin:
	// served by the queried item's owning shard versus fanned out from
	// the other shards. Their ratio (runstats' shard_local_frac) is the
	// locality measure reordering exists to raise. Counted only on
	// multi-shard indexes — zero at S=1.
	LocalCands, ForeignCands int64
	// CrossShardMerge is the cumulative time spent in cross-shard
	// candidate sweeps (zero with one shard).
	CrossShardMerge time.Duration
	// ForeignSlotBytes is the memory the foreign-emptiness bitmap
	// occupies (zero with one shard).
	ForeignSlotBytes int64
	// ProbeOps/DirectOps count cross-shard bucket resolutions by path:
	// key-table probes issued versus resolutions the foreign-emptiness
	// bitmap answered without one.
	ProbeOps, DirectOps int64
	// SaveTime/LoadTime are the wall times spent persisting the frozen
	// index to disk and warm-loading it back (zero when persistence was
	// off, and SaveTime stays zero on warm runs — nothing to save).
	SaveTime, LoadTime time.Duration
	// WarmStart reports whether the index was loaded from disk instead
	// of built.
	WarmStart bool
	// MmapBytes is the total size of the index's live memory mappings
	// (zero on heap loads and fresh builds).
	MmapBytes int64
}

// ShardStatsReporter is an optional Accelerator capability: report the
// index's shard layout and per-shard construction cost after a run, so
// runstats can record the bootstrap-build breakdown, the cross-shard
// merge overhead and the fan-out counters (Run.Shards,
// Run.BootstrapBuildShards, Run.CrossShardMerge, Run.ForeignSlotBytes,
// Run.CrossShardProbes/CrossShardDirect).
type ShardStatsReporter interface {
	ShardStats() ShardStats
}

// ShardedIndexBase is the sharded-index state machine shared by the
// accelerators built on lsh.Sharded (MinHash here, SimHash in
// internal/simhash): one index plus the presigned-arena lifecycle
// behind the BulkIndexer, Freezer, ReverseQuerier, ShardedIndexer and
// ShardStatsReporter capabilities. Embedding it promotes everything
// signing-agnostic — SetShards, ShardStats, Params, Index,
// BuildFrozen, Freeze, NewQuerier, NewReverse — so the arena lifecycle
// lives in exactly one place; the embedding accelerator supplies only
// what varies, the signing: the parallel worker factory (SignAllInto)
// and the serial per-item Insert.
type ShardedIndexBase struct {
	params lsh.Params
	index  *lsh.Sharded
	n      int
	k      int
	shards int
	// presigned is the flat band-key arena SignAllInto computed
	// (keys[item·Bands+band]); nil until then, released to the index by
	// BuildFrozen.
	presigned []uint64
	// reorderOff holds the locality-reordering configuration the driver
	// forwarded (ReorderConfigurer); applied at the next ResetIndex.
	reorderOff bool
	// persistCfg/persistOn hold the persistence configuration the driver
	// forwarded (IndexPersister); fpSource supplies the dataset
	// fingerprint the saved index is pinned to (set once by the
	// embedding accelerator via SetFingerprintSource — accelerators
	// without one cannot persist). seed is retained from ResetIndex for
	// the save; warm/saveDur/loadDur describe what the last
	// ResetIndex/BuildFrozen did, for ShardStats.
	persistCfg PersistConfig
	persistOn  bool
	fpSource   func() uint64
	seed       uint64
	warm       bool
	saveDur    time.Duration
	loadDur    time.Duration
}

// SetShards configures the item-shard count for the next ResetIndex
// (core.ShardedIndexer). Values < 2 select the single-shard oracle.
func (b *ShardedIndexBase) SetShards(shards int) {
	if shards < 1 {
		shards = 1
	}
	b.shards = shards
}

// SetReorder stores the locality-reordering configuration for the
// next ResetIndex (core.ReorderConfigurer): disable pins the
// original-order oracle.
func (b *ShardedIndexBase) SetReorder(disable bool) {
	b.reorderOff = disable
}

// ReorderMap exposes the locality permutation of the current index
// (core.ReorderMapper): nil/nil before Reset or when the build ran in
// original order.
func (b *ShardedIndexBase) ReorderMap() (perm, inv []int32) {
	if b.index == nil {
		return nil, nil
	}
	return b.index.ReorderMap()
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

// WarmLoaded reports whether the last ResetIndex loaded the index from
// disk instead of preparing a fresh build (core.IndexPersister).
func (b *ShardedIndexBase) WarmLoaded() bool { return b.warm }

// ShardStats reports the shard layout, per-shard build costs and
// cross-shard fan-out counters of the current index
// (core.ShardStatsReporter).
func (b *ShardedIndexBase) ShardStats() ShardStats {
	if b.index == nil {
		return ShardStats{}
	}
	probes, direct := b.index.FanOutOps()
	local, foreign := b.index.FanOutLocality()
	return ShardStats{
		Shards:           b.index.NumShards(),
		BuildTimes:       b.index.BuildTimes(),
		ReorderTime:      b.index.ReorderTime(),
		LocalCands:       local,
		ForeignCands:     foreign,
		CrossShardMerge:  b.index.MergeTime(),
		ForeignSlotBytes: b.index.ForeignSlotBytes(),
		ProbeOps:         probes,
		DirectOps:        direct,
		SaveTime:         b.saveDur,
		LoadTime:         b.loadDur,
		WarmStart:        b.warm,
		MmapBytes:        b.index.MmapBytes(),
	}
}

// Params returns the banding configuration.
func (b *ShardedIndexBase) Params() lsh.Params { return b.params }

// Index exposes the underlying sharded LSH index (nil before the
// accelerator's Reset), e.g. for bucket-occupancy diagnostics.
func (b *ShardedIndexBase) Index() *lsh.Sharded { return b.index }

// ResetIndex discards any previous index and prepares a fresh one over
// numItems items and numClusters clusters, with the configured shard
// count. Called by the embedding accelerator's Reset.
func (b *ShardedIndexBase) ResetIndex(params lsh.Params, seed uint64, numItems, numClusters int) error {
	if numClusters < 1 {
		return fmt.Errorf("core: numClusters must be ≥ 1, got %d", numClusters)
	}
	shards := b.shards
	if shards < 1 {
		shards = 1
	}
	// Release any previous index's memory mappings before dropping the
	// reference (a no-op for heap-built indexes).
	if b.index != nil {
		_ = b.index.ClosePersist()
	}
	b.index = nil
	b.warm = false
	b.saveDur, b.loadDur = 0, 0
	reorder := !b.reorderOff
	if b.persistOn && b.fpSource == nil {
		return fmt.Errorf("core: index persistence requires a dataset fingerprint, which this accelerator does not provide")
	}
	if b.persistOn && lsh.IndexSaved(b.persistCfg.Dir) {
		// Warm start: load the saved frozen index instead of building.
		// The manifest pins parameters, seed, shape, shard count, dataset
		// fingerprint and reorder setting; any mismatch is a hard error —
		// a stale index must never silently serve or silently rebuild.
		ix, rep, err := lsh.OpenSharded(b.persistCfg.Dir, lsh.OpenOptions{
			Params:      params,
			Seed:        seed,
			NumItems:    numItems,
			Shards:      shards,
			Reorder:     reorder && numItems >= 2,
			Fingerprint: b.fpSource(),
			Mmap:        mmapWanted(b.persistCfg.DisableMmap),
			Workers:     b.persistCfg.Workers,
		})
		if err != nil {
			return fmt.Errorf("core: loading persisted index: %w", err)
		}
		b.params = params
		b.index = ix
		b.n = numItems
		b.k = numClusters
		b.seed = seed
		b.presigned = nil
		b.warm = true
		b.loadDur = rep.Duration
		return nil
	}
	ix, err := lsh.NewSharded(params, seed, numItems, shards)
	if err != nil {
		return err
	}
	ix.SetReorder(reorder)
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

// BuildFrozen constructs every shard's frozen layout directly from the
// presigned keys — shards concurrent, bands parallel within each shard
// (core.BulkIndexer).
func (b *ShardedIndexBase) BuildFrozen(workers int) error {
	if b.presigned == nil {
		return fmt.Errorf("core: BuildFrozen before SignAll")
	}
	err := b.index.BuildFrozen(b.presigned, b.n, workers)
	b.presigned = nil
	if err == nil && b.persistOn && !b.warm {
		rep, serr := b.index.Save(b.persistCfg.Dir, b.seed, b.fpSource(), workers)
		if serr != nil {
			return fmt.Errorf("core: saving index: %w", serr)
		}
		b.saveDur = rep.Duration
	}
	return err
}

// Freeze compacts every shard for the iteration phase after the serial
// per-item Insert loop (core.Freezer); a no-op on an index BuildFrozen
// or a warm load produced.
func (b *ShardedIndexBase) Freeze() {
	if b.index != nil {
		b.index.Freeze()
	}
}

// SummarizeClusters builds the frozen index's cluster summaries from
// view (core.ClusterSummarizer); a no-op before Reset.
func (b *ShardedIndexBase) SummarizeClusters(view []int32) {
	if b.index != nil {
		b.index.SummarizeClusters(view)
	}
}

// Resummarize refreshes the summaries of item's long buckets from view
// after a write to item's cluster (core.ClusterSummarizer).
func (b *ShardedIndexBase) Resummarize(item int32, view []int32) {
	if b.index != nil {
		b.index.Resummarize(item, view)
	}
}

// NewQuerier returns a query handle with its own deduplication scratch.
func (b *ShardedIndexBase) NewQuerier() Querier {
	return NewIndexQuerier(b.index, b.k)
}

// NewReverse returns a reverse-collision view spanning every shard of
// the frozen index (core.ReverseQuerier), or nil before Reset or
// before the index is frozen — the driver then simply runs without
// active-set filtering.
func (b *ShardedIndexBase) NewReverse() ReverseView {
	if b.index == nil {
		return nil
	}
	if r := b.index.NewReverse(); r != nil {
		return r
	}
	return nil
}

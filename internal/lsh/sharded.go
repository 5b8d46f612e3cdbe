package lsh

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"lshcluster/internal/lsh/persist"
	"lshcluster/internal/minhash"
)

// Sharded is an item-partitioned LSH index: S independent Index shards,
// each with its own band buckets, frozen CSR arrays, key tables and
// reverse view, tied together by a deterministic item→shard
// partitioner. It is the scale-out layout of the banding index — shards
// build in parallel from disjoint slices of the SignAll arena, stay
// individually cache-resident where one monolithic index would not, and
// are independently freezable and, once memory-mapped, evictable
// (residency.go).
//
// Partitioning is by *item*, orthogonal to BuildFrozen's per-band
// layout within each shard: a query for one item fans out to every
// shard (an item's colliding neighbours may live anywhere), and the
// planner (Query) merges the shard-local buckets back into the exact
// candidate stream the unsharded index would produce. Shard s owns the
// contiguous global items [cuts[s], cuts[s+1]) with cuts =
// ShardCuts(n, S). Because each shard's buckets hold ascending global
// IDs from its own range, concatenating per-band buckets in ascending
// shard order IS the ascending-ID merge — cross-shard queries are
// order-preserving without any comparison work.
//
// With one shard (the default), every operation delegates to the plain
// Index with no translation — the S=1 path is bit-identical to the
// unsharded index by construction, and the equivalence tests pin S>1
// to it.
//
// Shard members store *global* item IDs in their buckets (Index's
// idBase offset), so the hot candidate-enumeration path never
// translates IDs; only insert routing and per-item addressing use
// shard-local IDs.
//
// Concurrency matches Index: construction is single-writer (or
// internally parallel via BuildFrozen); concurrent queries are safe
// once construction is done, with per-caller scratch held by Query.
// With more than one shard, queries require every shard frozen
// (BuildFrozen, Freeze or OpenSharded): the build phase serves only
// the per-item Insert loop that Freeze then lays out.
type Sharded struct {
	params Params
	part   partition
	shards []*Index
	// single aliases shards[0] when there is exactly one shard: the
	// oracle fast path, bit- and code-path-identical to an unsharded
	// Index.
	single *Index
	// buildTimes records the wall time each shard spent constructing its
	// frozen layout (BuildFrozen, or Freeze after per-item Inserts) —
	// the per-shard bootstrap-build breakdown runstats reports.
	buildTimes []time.Duration
	// mergeNanos accumulates time spent inside cross-shard candidate
	// sweeps (plan + fan-out + merge), at call granularity; zero when
	// S = 1, where no fan-out exists. Atomic: parallel pass workers
	// query concurrently.
	mergeNanos atomic.Int64
	// foreignEmpty[s] is owner shard s's foreign-emptiness bitmap: bit
	// u set when no other shard holds a bucket for slot u's (band, key),
	// so the fan-out emits the owner bucket alone and skips the key
	// probes. Built whenever every shard of an S>1 index is frozen; nil
	// otherwise, which is what Query checks before a multi-shard query.
	// See foreign.go.
	foreignEmpty [][]uint64
	// probeOps/directOps count cross-shard bucket resolutions by path —
	// key-table probe versus answered by the foreign-emptiness bitmap —
	// for the runstats fan-out report. Atomic for the same reason as
	// mergeNanos.
	probeOps  atomic.Int64
	directOps atomic.Int64
	// reorder requests locality-preserving item reordering for the next
	// BuildFrozen (SetReorder); perm/inv are the resulting permutation
	// pair — perm[original] = internal, inv[internal] = original — nil
	// until a reordered build ran. See reorder.go.
	reorder    bool
	perm       []int32
	inv        []int32
	reorderDur time.Duration
	// localCands/foreignCands count shortlist candidates the fan-out
	// served from the owning shard versus foreign shards
	// (the shard_local_frac report). Atomic like mergeNanos.
	localCands   atomic.Int64
	foreignCands atomic.Int64
	// persistFiles/persistBytes/resi are set by OpenSharded: the
	// per-shard backing files the frozen slices alias (mmap or heap
	// copy), the total mapped bytes, and — under a memory budget — the
	// shard residency manager (see persist.go, residency.go). All nil/0
	// for freshly built indexes.
	persistFiles []*persist.File
	persistBytes int64
	resi         *residency
	// sums is the cluster-summary store (summary.go): nil until
	// SummarizeClusters, and never persisted.
	sums *clusterSummaries
}

// partition routes global item IDs to (shard, local) pairs: shard t
// owns the contiguous range [cuts[t], cuts[t+1]) of [0, n).
type partition struct {
	n    int
	s    int
	cuts []int32 // len s+1
}

// locate resolves a global item ID to its owning shard and shard-local
// ID. ok is false for negative IDs and IDs at or past the partitioned
// range.
func (p *partition) locate(global int32) (shard int, local int32, ok bool) {
	if global < 0 || int(global) >= p.n {
		return 0, 0, false
	}
	// Largest t with t·n/s ≤ global, the closed form of a cuts search.
	t := int(((int64(global)+1)*int64(p.s) - 1) / int64(p.n))
	return t, global - p.cuts[t], true
}

// ShardCuts returns the deterministic item partition of a range-sharded
// index: shard s owns global items [cuts[s], cuts[s+1]) with
// cuts[s] = s·n/S. The cuts are a function of n and S alone —
// independent of workers, insertion order or hardware — which is the
// partitioner contract the frozen-array determinism tests pin: the same
// (n, S) always yields the same shard layout.
func ShardCuts(n, shards int) []int32 {
	cuts := make([]int32, shards+1)
	for s := 0; s <= shards; s++ {
		cuts[s] = int32(s * n / shards)
	}
	return cuts
}

// NewSharded creates a range-partitioned index over numItems global
// items, split into the given number of shards (values < 2, or more
// shards than items, collapse to the single-shard oracle). All shards
// share one deterministic signing scheme seeded with seed, so
// signatures — and therefore band keys — are identical to the
// unsharded index's.
func NewSharded(p Params, seed uint64, numItems, shards int) (*Sharded, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if numItems < 0 {
		numItems = 0
	}
	if shards > numItems {
		shards = numItems
	}
	if shards < 1 {
		shards = 1
	}
	cuts := ShardCuts(numItems, shards)
	sh := &Sharded{
		params: p,
		part:   partition{n: numItems, s: shards, cuts: cuts},
	}
	if shards == 1 {
		ix, err := NewIndex(p, seed, numItems)
		if err != nil {
			return nil, err
		}
		sh.shards = []*Index{ix}
		sh.single = ix
		return sh, nil
	}
	scheme := minhash.NewScheme(p.SignatureLen(), seed)
	sh.shards = make([]*Index, shards)
	for s := 0; s < shards; s++ {
		sh.shards[s] = newShardIndex(p, scheme, int(cuts[s+1]-cuts[s]), cuts[s])
	}
	return sh, nil
}

// Params returns the banding configuration.
func (sh *Sharded) Params() Params { return sh.params }

// Scheme exposes the signing scheme shared by every shard.
func (sh *Sharded) Scheme() *minhash.Scheme { return sh.shards[0].Scheme() }

// NumShards returns S.
func (sh *Sharded) NumShards() int { return len(sh.shards) }

// NumInserted sums the inserted-item counts across shards.
func (sh *Sharded) NumInserted() int {
	n := 0
	for _, ix := range sh.shards {
		n += ix.NumInserted()
	}
	return n
}

// Frozen reports whether every shard has been compacted.
func (sh *Sharded) Frozen() bool {
	for _, ix := range sh.shards {
		if !ix.Frozen() {
			return false
		}
	}
	return true
}

// BuildTimes returns the per-shard frozen-construction durations
// (nil until BuildFrozen or Freeze ran). The slice is owned by the
// index; callers must not modify it.
func (sh *Sharded) BuildTimes() []time.Duration { return sh.buildTimes }

// MergeTime returns the cumulative wall time spent inside cross-shard
// candidate sweeps (always zero with a single shard). Per-item query
// paths flush their samples in small batches, so a handful of recent
// samples may not be included yet (see Query.addMergeNanos).
func (sh *Sharded) MergeTime() time.Duration {
	return time.Duration(sh.mergeNanos.Load())
}

// Stats aggregates bucket occupancy across all shards.
func (sh *Sharded) Stats() Stats {
	st := Stats{Bands: sh.params.Bands, Items: sh.NumInserted()}
	singles, total := 0, 0
	for _, ix := range sh.shards {
		ix.statsInto(&st, &singles, &total)
	}
	if st.Buckets > 0 {
		st.MeanBucketLen = float64(total) / float64(st.Buckets)
		st.SingletonShare = float64(singles) / float64(st.Buckets)
	}
	return st
}

// route resolves a global item for an insert, rejecting IDs outside
// the partition.
func (sh *Sharded) route(global int32) (*Index, int32, error) {
	s, local, ok := sh.part.locate(global)
	if !ok {
		return nil, 0, fmt.Errorf("lsh: item %d outside the sharded range [0, %d)", global, sh.part.n)
	}
	return sh.shards[s], local, nil
}

// Insert signs the present-value set and files the global item in its
// owning shard. Like Index.Insert it shares signing scratch per shard
// and must not run concurrently.
func (sh *Sharded) Insert(global int32, presentValues []uint64) error {
	if sh.single != nil {
		return sh.single.Insert(global, presentValues)
	}
	ix, local, err := sh.route(global)
	if err != nil {
		return err
	}
	return ix.Insert(local, presentValues)
}

// InsertSignature files the global item under the band buckets of a
// precomputed signature, in its owning shard.
func (sh *Sharded) InsertSignature(global int32, sig []uint64) error {
	if sh.single != nil {
		return sh.single.InsertSignature(global, sig)
	}
	ix, local, err := sh.route(global)
	if err != nil {
		return err
	}
	return ix.InsertSignature(local, sig)
}

// BuildFrozen constructs every shard's frozen layout directly from the
// flat SignAll arena (keys[item·Bands+band] for global items [0, n)).
// The range partitioner makes routing free: shard s's slice of the
// arena is the contiguous keys[cuts[s]·Bands : cuts[s+1]·Bands], so no
// per-item scatter ever runs. Shards build concurrently — each on its
// own goroutine with its share of the worker budget parallelising
// across bands — and each shard's arrays are byte-identical to what a
// standalone index over the same item range would build (the shard
// determinism tests pin this). Per-shard wall times are recorded for
// the bootstrap-build breakdown.
//
// When SetReorder(true) was called, the arena is first permuted into
// locality order (items grouped by shared buckets, see reorder.go) and
// the shards are range-cut over the permuted order; ReorderMap then
// reports the permutation and candidate enumeration emits internal
// IDs. Results observed through the translated boundaries are
// bit-identical either way. With more than one shard the build ends by
// computing the foreign-emptiness bitmap (foreign.go).
func (sh *Sharded) BuildFrozen(keys []uint64, n, workers int) error {
	if workers < 1 {
		workers = 1
	}
	bands := sh.params.Bands
	if !sh.reorder || n < 2 || len(keys) != n*bands {
		// Direct build; mismatched arguments also land here so the
		// direct path surfaces its usual validation errors.
		if err := sh.buildFrozenDirect(keys, n, workers); err != nil {
			return err
		}
		sh.buildForeignEmpty()
		return nil
	}
	start := time.Now()
	perm, inv := deriveReorder(keys, n, bands)
	permuted := permuteArena(keys, inv, bands, workers)
	prep := time.Since(start)
	if err := sh.buildFrozenDirect(permuted, n, workers); err != nil {
		return err
	}
	sh.perm, sh.inv = perm, inv
	start = time.Now()
	sh.reorderBucketItems(workers)
	sh.reorderDur = prep + time.Since(start)
	sh.buildForeignEmpty()
	return nil
}

// buildFrozenDirect is the unreordered shard construction: each shard
// builds from its contiguous arena slice in identity order.
func (sh *Sharded) buildFrozenDirect(keys []uint64, n, workers int) error {
	if sh.single != nil {
		start := time.Now()
		err := sh.single.BuildFrozen(keys, n, workers)
		if err == nil {
			sh.buildTimes = []time.Duration{time.Since(start)}
		}
		return err
	}
	if n != sh.part.n {
		return fmt.Errorf("lsh: BuildFrozen over %d items, index partitioned over %d", n, sh.part.n)
	}
	bands := sh.params.Bands
	if len(keys) != n*bands {
		return fmt.Errorf("lsh: %d band keys for %d items × %d bands", len(keys), n, bands)
	}
	nShards := len(sh.shards)
	shardConc := workers
	if shardConc > nShards {
		shardConc = nShards
	}
	bandWorkers := workers / shardConc
	if bandWorkers < 1 {
		bandWorkers = 1
	}
	errs := make([]error, nShards)
	times := make([]time.Duration, nShards)
	var wg sync.WaitGroup
	for g := 0; g < shardConc; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := g; s < nShards; s += shardConc {
				lo, hi := int(sh.part.cuts[s]), int(sh.part.cuts[s+1])
				start := time.Now()
				errs[s] = sh.shards[s].BuildFrozen(keys[lo*bands:hi*bands], hi-lo, bandWorkers)
				times[s] = time.Since(start)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	sh.buildTimes = times
	return nil
}

// Freeze compacts every not-yet-frozen shard's map buckets into the
// frozen CSR layout (after a per-item Insert loop; idempotent),
// recording per-shard compaction times when this call did the work.
// An index of more than one shard then gets its foreign-emptiness
// bitmap, exactly as after BuildFrozen, and becomes queryable.
func (sh *Sharded) Freeze() {
	times := make([]time.Duration, len(sh.shards))
	froze := false
	for s, ix := range sh.shards {
		if ix.Frozen() {
			continue
		}
		start := time.Now()
		ix.Freeze()
		times[s] = time.Since(start)
		froze = true
	}
	if froze && sh.buildTimes == nil {
		sh.buildTimes = times
	}
	sh.buildForeignEmpty()
}

// NewReverse returns a reverse-collision view spanning every shard, or
// nil when any shard is not frozen.
func (sh *Sharded) NewReverse() *ShardedReverse {
	revs := make([]*Reverse, len(sh.shards))
	for s, ix := range sh.shards {
		r := ix.NewReverse()
		if r == nil {
			return nil
		}
		revs[s] = r
	}
	return &ShardedReverse{sh: sh, revs: revs}
}

// ShardedReverse is the cross-shard reverse-collision view: sources
// mark their buckets in every shard (the owning shard through its
// resolved slots, the others by key probe), and Emit enumerates hot
// buckets shard by shard. Like Reverse it owns private scratch and is
// not safe for concurrent use; emitted IDs are global. Enumeration
// order differs from the single-index view (shard-major instead of
// source-marking order), which callers must not rely on — the driver's
// active-set expansion dedupes into flags, making it order-blind.
type ShardedReverse struct {
	sh   *Sharded
	revs []*Reverse
}

// AddSource marks every bucket the global source item occupies, across
// all shards. Uninserted items are ignored. Sources are original IDs;
// a reordered index translates them to internal space on entry.
func (r *ShardedReverse) AddSource(global int32) {
	sh := r.sh
	if perm := sh.perm; perm != nil {
		if global < 0 || int(global) >= len(perm) {
			return
		}
		global = perm[global]
	}
	if sh.single != nil {
		r.revs[0].AddSource(global)
		return
	}
	s, local, ok := sh.part.locate(global)
	if !ok || !sh.shards[s].isInserted(local) {
		return
	}
	own := sh.shards[s].frozen
	bands := sh.params.Bands
	base := int(local) * bands
	// The same fan-out as the query paths: the owner's bucket through
	// its slot, the others by key probe unless the foreign-emptiness
	// bitmap says every probe would miss (on a reordered index, nearly
	// every bucket).
	for b := 0; b < bands; b++ {
		slot := own.slots[base+b]
		r.revs[s].markSlot(slot)
		if sh.foreignEmpty != nil && sh.foreignEmptyAt(s, slot) {
			continue
		}
		key := own.keys[slot]
		for t, ix := range sh.shards {
			if t == s {
				continue
			}
			if other := ix.frozen.tables[b].get(key); other >= 0 {
				r.revs[t].markSlot(other)
			}
		}
	}
}

// Emit invokes fn for every item in a hot bucket of any shard, each
// bucket scanned once; fn returning false stops the enumeration early.
// All marks in all shards are reset before Emit returns. Emitted IDs
// are original: a reordered index translates its internal bucket
// contents back through inv — enumeration order is unspecified here
// anyway (callers dedupe into flags), so the translation is free to
// ride the shard-major scan.
func (r *ShardedReverse) Emit(fn func(item int32) bool) {
	if inv := r.sh.inv; inv != nil {
		orig := fn
		fn = func(it int32) bool { return orig(inv[it]) }
	}
	if r.sh.single != nil {
		r.revs[0].Emit(fn)
		return
	}
	stopped := false
	for _, rv := range r.revs {
		rv.Emit(func(it int32) bool {
			if stopped {
				return false
			}
			if !fn(it) {
				stopped = true
				return false
			}
			return true
		})
	}
}

// Package core implements the paper's primary contribution: a general
// framework that accelerates centroid-based clustering algorithms by
// using locality sensitive hashing to shrink the cluster search space
// (§III-B).
//
// The framework is expressed as two small interfaces:
//
//   - Space: the clustering algorithm's own geometry — items, centroids,
//     the dissimilarity measure, and centroid recomputation. K-Modes
//     (internal/kmodes) and the numeric K-Means extension
//     (internal/kmeans) both satisfy it.
//
//   - Accelerator: the LSH side — index the items once, then produce,
//     for any item, a shortlist of candidate clusters by mapping the
//     items colliding with it through the current assignment. The
//     MinHash instantiation evaluated in the paper is
//     MinHashAccelerator; the SimHash instantiation for numeric data is
//     in internal/simhash.
//
// Run drives the iterative clustering. With a nil Accelerator it is the
// exact baseline algorithm (every item compared against every centroid);
// with an Accelerator it is the paper's accelerated variant, identical
// except that each item is compared only against its shortlist.
//
// Optional capabilities shrink the per-iteration hot path further
// without changing results, among them IncrementalSpace (exact
// O(moves) centroid and objective maintenance in place of full
// per-pass recomputation; see incremental.go) and BlockQuerier (one
// band-major index sweep per block of items).
package core

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"lshcluster/internal/par"
	"lshcluster/internal/runstats"
)

// Space is the centroid-clustering algorithm being accelerated. All
// methods must be safe for concurrent *reads*; RecomputeCentroids is
// called exclusively.
type Space interface {
	// NumItems returns n, the number of items.
	NumItems() int
	// NumClusters returns k, the number of centroids.
	NumClusters() int
	// Dissimilarity returns d(item, centroid_cluster) ≥ 0.
	Dissimilarity(item, cluster int) float64
	// BoundedDissimilarity behaves like Dissimilarity but may stop early
	// and return any value ≥ bound once the result provably reaches
	// bound. Used only under Options.EarlyAbandon.
	BoundedDissimilarity(item, cluster int, bound float64) float64
	// RecomputeCentroids recalculates every centroid from its members.
	RecomputeCentroids(assign []int32)
	// Cost evaluates the clustering objective under assign.
	Cost(assign []int32) float64
}

// Querier produces cluster shortlists. Each Querier owns private scratch
// space: a single Querier must not be used concurrently, but distinct
// Queriers from one Accelerator may be.
type Querier interface {
	// Candidates returns the candidate clusters for item: the clusters
	// currently containing the indexed items that collide with it
	// (Algorithm 2 lines 10–12). assign maps items to clusters; entries
	// < 0 mean "not yet assigned" and are skipped. The result is
	// deduplicated, includes the item's own cluster whenever the item is
	// indexed and assigned, and remains valid only until the next call.
	Candidates(item int32, assign []int32) []int32
}

// Accelerator is the search-space reduction component of the framework.
// Run calls Reset, then — unless Reset warm-loaded a saved index
// (IndexPersister) — BulkIndexer's SignAll and BuildFrozen, the
// paper's single pass "applying MinHash to each item" (Algorithm 2
// lines 1–9), and then takes queriers from NewQuerier.
type Accelerator interface {
	// Reset prepares an empty index for a clustering over numClusters
	// clusters. It is called once per Run, before SignAll.
	Reset(numClusters int) error
	BulkIndexer
	// NewQuerier returns a query handle with private scratch.
	NewQuerier() Querier
}

// BulkIndexer is the index-construction half of every Accelerator: a
// parallel signing pass and a parallel filing pass, which the driver
// runs as the bootstrap's sign → build phases (see driver.bootstrap),
// after Reset and before the exact first assignment. The index comes
// up frozen. Both passes are bit-identical at every worker count —
// signing is deterministic per item and filing order is fixed — so Run
// passes both runtime.GOMAXPROCS(0), whatever Options.Workers and the
// update policy say, and a run under GOMAXPROCS=1 is the reference for
// the parallel ones.
type BulkIndexer interface {
	// SignAll computes and retains the band keys of every item,
	// sharding the signing across workers goroutines (values < 2 sign
	// on the calling goroutine). Keys are identical regardless of
	// workers. Called once per Run, after Reset and before
	// BuildFrozen, unless Reset warm-loaded a saved index. stop, when
	// non-nil, is polled periodically by the signing workers; once it
	// returns true they abandon the pass (the driver maps it to
	// context cancellation and discards the partial keys by aborting
	// the bootstrap).
	SignAll(workers int, stop func() bool) error
	// BuildFrozen constructs the accelerator's index directly in its
	// frozen layout from the keys SignAll computed, parallel across
	// workers, with every item filed.
	BuildFrozen(workers int) error
}

// KernelConfigurable is an optional Space/Accelerator capability:
// implementations whose hot loops run through the unrolled kernels of
// internal/kernel expose the switch back to their scalar references.
// The driver forwards Options.Oracles.ScalarKernels to both the space
// and the accelerator once per Run, before any distance or signature
// is computed. The unrolled kernels preserve the scalar accumulation
// order, so results are bit-identical either way — the switch is the
// oracle the kernel-equivalence tests run under.
type KernelConfigurable interface {
	SetScalarKernels(scalar bool)
}

// NearestScanner is an optional Space capability: an exact scan that
// assigns a range of items to their nearest of all k centroids in one
// call instead of k Dissimilarity calls per item. K-Modes counts
// matches through per-attribute posting lists over its modes, or
// compares every mode when the lists would be long; K-Means sweeps its
// contiguous centroid array four rows at a time
// (kernel.NearestSquared), each distance bit-identical to
// Dissimilarity's. The driver runs every full-scan first assignment
// through it — the accelerated bootstrap's and the exact baseline's —
// one ctxPollEvery chunk per call, so cancellation stays bounded.
// Exact passes still compare every centroid (bestExact): they are the
// paper's baseline.
type NearestScanner interface {
	// NearestScan returns a function that sets out[i], for every i in
	// [lo, hi), to the cluster nearest to item i over all k with ties
	// to the lowest index — bestExact(i, −1) under either TieBreak,
	// with or without EarlyAbandon. The function is valid until the
	// centroids change; calls on disjoint ranges may run concurrently.
	NearestScan() func(lo, hi int, out []int32)
}

// UpdateMode selects when cluster references observed by LSH queries are
// refreshed.
type UpdateMode int

const (
	// UpdateImmediate matches the paper: "After each change, update the
	// cluster reference in the MinHash index to the new cluster".
	// Queries within a pass observe moves made earlier in the same pass.
	// Requires single-threaded assignment.
	UpdateImmediate UpdateMode = iota
	// UpdateDeferred has queries read a snapshot of the assignment taken
	// at the start of the pass; moves become visible at the next pass.
	// This decouples items from each other and enables Workers > 1.
	UpdateDeferred
)

// TieBreak selects the winner among equidistant candidate clusters.
type TieBreak int

const (
	// TieBreakPreferCurrent keeps an item in its current cluster when a
	// challenger only ties it. This damps oscillation and is the
	// default.
	TieBreakPreferCurrent TieBreak = iota
	// TieBreakLowestIndex assigns the lowest-indexed cluster among the
	// minima regardless of the current assignment, the behaviour of a
	// numpy-style argmin such as the paper's reference implementation.
	// Items may keep moving between tied clusters, which reproduces the
	// sustained per-iteration move counts of the paper's text
	// experiments (Figures 9c, 10d). EarlyAbandon is ignored for
	// shortlist evaluation under this mode (exact distances are needed
	// to resolve ties).
	TieBreakLowestIndex
)

// Options configures Run. The zero value runs the exact baseline with
// paper-faithful settings.
type Options struct {
	// Accelerator enables LSH acceleration; nil runs the exact
	// algorithm.
	Accelerator Accelerator
	// MaxIterations caps the number of passes after bootstrap.
	// 0 means DefaultMaxIterations.
	MaxIterations int
	// Update selects reference-update semantics (accelerated runs only).
	Update UpdateMode
	// EarlyAbandon enables bounded dissimilarity evaluation. The
	// paper's implementation does not use it; off by default.
	EarlyAbandon bool
	// TieBreak selects tie-breaking among equidistant clusters.
	TieBreak TieBreak
	// SkipCost disables per-iteration objective evaluation (saves an
	// O(n·m) pass per iteration when only timings are needed).
	SkipCost bool
	// Workers parallelises the assignment passes. Values < 2 mean
	// single-threaded. Requires UpdateDeferred when an Accelerator is
	// set. The bootstrap does not read it: signing, index construction
	// and the first assignment give the same result at any worker
	// count, so they run on runtime.GOMAXPROCS(0) goroutines under
	// either update policy.
	Workers int
	// Shards is ignored: the index has one shard.
	//
	// Deprecated: kept only so that the benchmark module, which still
	// sets it, builds.
	Shards int
	// Oracles selects reference implementations in place of the fast
	// paths they check (see Oracles). The zero value runs every fast
	// path; only tests set it.
	Oracles Oracles
	// IndexDir, when non-empty, makes the bootstrap durable (see
	// persist.go): the frozen LSH index and the exact first assignment
	// are saved into this directory after a cold run's bootstrap, and
	// later runs warm-start from them — skipping signing, index
	// construction and the first full scan — with identical results. The
	// saved index is validated against the run's parameters, seed and
	// dataset fingerprint; a mismatch is an error, never a silent
	// rebuild. Requires an IndexPersister accelerator.
	IndexDir string
	// SnapshotEvery, when > 0, checkpoints the run state (assignment +
	// iteration stats) into IndexDir every SnapshotEvery iterations, and
	// resumes from the latest checkpoint on the next run instead of
	// restarting at iteration 1. A corrupt checkpoint, or one for a
	// different run shape, is an error. Requires IndexDir.
	SnapshotEvery int
	// OnIteration, when non-nil, receives each iteration's statistics
	// as it completes (progress reporting).
	OnIteration func(runstats.Iteration)
	// Context, when non-nil, cancels the run: it is checked between
	// passes and polled inside every assignment loop (serial and
	// per-worker, every ctxPollEvery items) and inside the bootstrap
	// (scan shards and signing workers poll at the same cadence, with a
	// check after each pipeline phase), so cancellation latency is a
	// fraction of a pass or bootstrap, not a whole one. Run returns the
	// context error, discarding partial progress. Large-k runs take
	// minutes to hours; this is the off switch.
	Context context.Context
}

// Oracles switches individual fast paths back to the reference twins
// they are checked against. Every switch leaves results bit-identical
// (assignments, moves, costs, centroids); only the work counters of
// the work a fast path skips or localises change. Each exists so that
// the equivalence tests (TestOraclesMatchDefault and the per-path A/B
// tests) and the root benchmarks can run the reference. The lshvet
// analyzer oraclecheck keeps writes to these fields inside _test.go
// files and requires a test for each.
type Oracles struct {
	// ScalarKernels routes the hot-loop distance and signing kernels
	// through their scalar references instead of the unrolled versions
	// (internal/kernel), on every KernelConfigurable space and
	// accelerator.
	ScalarKernels bool
	// DisableIncremental forces full RecomputeCentroids/Cost passes
	// even when the Space implements IncrementalSpace (the batch
	// oracle for the incremental engine). It implies
	// DisableActiveFilter: the filter needs the engine's change
	// reports.
	DisableIncremental bool
	// DisableActiveFilter forces every assignment pass to evaluate all
	// n items even when the run qualifies for active-set filtering
	// (accelerated, incremental engine on, ChangeReporter space,
	// ReverseQuerier accelerator — see active.go).
	DisableActiveFilter bool
	// DisableMmap loads a persisted index by copying it onto the heap
	// instead of memory-mapping it zero-copy (the bytes are identical
	// either way). Ignored without IndexDir; mapping is also skipped on
	// platforms without mmap support.
	DisableMmap bool
}

// DefaultMaxIterations caps runs whose options leave MaxIterations zero.
const DefaultMaxIterations = 100

// Result is the outcome of a Run.
type Result struct {
	// Assign maps every item to its final cluster.
	Assign []int32
	// Stats records bootstrap and per-iteration measurements.
	Stats runstats.Run
}

// Run executes centroid-based clustering over space.
//
// Structure (paper §III-B): bootstrap (initial assignment + index
// construction), then repeated passes of (assignment over candidate
// clusters, centroid recomputation) until no item moves or the iteration
// cap is reached.
func Run(space Space, opts Options) (*Result, error) {
	return run(space, opts, false)
}

// run is Run, or with perItem the per-item reference the block passes
// are tested against: every shortlist comes from its own
// Querier.Candidates call (see blockQuerier).
func run(space Space, opts Options, perItem bool) (*Result, error) {
	n, k := space.NumItems(), space.NumClusters()
	if n == 0 || k == 0 {
		return nil, fmt.Errorf("core: empty space (n=%d, k=%d)", n, k)
	}
	maxIter := opts.MaxIterations
	if maxIter <= 0 {
		maxIter = DefaultMaxIterations
	}
	if opts.Workers > 1 && opts.Accelerator != nil && opts.Update != UpdateDeferred {
		return nil, fmt.Errorf("core: Workers > 1 requires UpdateDeferred")
	}
	if err := validatePersistOptions(&opts); err != nil {
		return nil, err
	}

	d := &driver{
		space:   space,
		opts:    opts,
		perItem: perItem,
		n:       n,
		k:       k,
		assign: func() []int32 {
			a := make([]int32, n)
			for i := range a {
				a[i] = -1
			}
			return a
		}(),
	}

	if !opts.Oracles.DisableIncremental {
		if inc, ok := space.(IncrementalSpace); ok {
			d.inc = inc
		}
	}

	// Kernel selection must precede every distance and signature
	// computation — the bootstrap's exact first assignment included —
	// so it is forwarded before bootstrap, to the space and the
	// accelerator alike.
	if kc, ok := space.(KernelConfigurable); ok {
		kc.SetScalarKernels(opts.Oracles.ScalarKernels)
	}
	if kc, ok := opts.Accelerator.(KernelConfigurable); ok {
		kc.SetScalarKernels(opts.Oracles.ScalarKernels)
	}

	if err := ctxErr(opts.Context); err != nil {
		return nil, err
	}
	bootStart := time.Now()
	if err := d.bootstrap(); err != nil {
		return nil, err
	}
	// Resume point: a checkpointed assignment must be restored before
	// the incremental engine initialises its centroid accumulators from
	// it. The active filter starts its first pass full either way, so a
	// resumed run stays correct (evaluating a would-be-skipped item is a
	// no-op).
	startIter := 1
	var snapPath string
	var restoredIters []runstats.Iteration
	if opts.SnapshotEvery > 0 {
		snapPath = filepath.Join(opts.IndexDir, runStateFile)
		next, iters, err := d.restoreRunState(snapPath)
		if err != nil {
			return nil, err
		}
		if next > 0 {
			startIter = next
			restoredIters = iters
		}
	}
	// Cluster summaries describe the view the shortlists read, so they
	// are built from the bootstrap (or resumed) assignment. The per-item
	// reference walks every bucket and reads none.
	if cs, ok := opts.Accelerator.(ClusterSummarizer); ok && !perItem {
		d.summ = cs
		cs.SummarizeClusters(d.assign)
	}
	if d.inc != nil {
		d.inc.BeginIncremental(d.assign, !opts.SkipCost)
	} else {
		space.RecomputeCentroids(d.assign)
	}
	d.initActive()
	res := &Result{Assign: d.assign}
	res.Stats.Iterations = restoredIters
	res.Stats.ResumedAt = startIter
	res.Stats.Bootstrap = time.Since(bootStart)
	res.Stats.BootstrapSign = d.bootSign
	res.Stats.BootstrapBuild = d.bootBuild
	res.Stats.BootstrapAssign = d.bootAssign
	res.Stats.Purity = math.NaN()

	for iter := startIter; iter <= maxIter; iter++ {
		if err := ctxErr(opts.Context); err != nil {
			return nil, err
		}
		start := time.Now()
		ps := d.pass()
		if err := ctxErr(opts.Context); err != nil {
			// A cancelled pass stopped early; don't pay for a centroid
			// publish whose results are discarded anyway.
			return nil, err
		}
		if d.inc != nil {
			d.inc.FinishPass(d.assign)
		} else {
			space.RecomputeCentroids(d.assign)
		}
		it := runstats.Iteration{
			Index:           iter,
			Duration:        time.Since(start),
			Moves:           ps.moves,
			Comparisons:     ps.comps,
			CandidatesTotal: ps.cands,
			ActiveItems:     ps.evaluated,
			SkippedItems:    n - ps.evaluated,
			Cost:            math.NaN(),
		}
		if ps.evaluated > 0 {
			it.AvgShortlist = float64(ps.cands) / float64(ps.evaluated)
		}
		if !opts.SkipCost {
			if d.inc != nil {
				it.Cost = d.inc.IncrementalCost(d.assign)
			} else {
				it.Cost = space.Cost(d.assign)
			}
		}
		res.Stats.Iterations = append(res.Stats.Iterations, it)
		if opts.OnIteration != nil {
			opts.OnIteration(it)
		}
		if snapPath != "" && iter%opts.SnapshotEvery == 0 {
			if err := writeRunState(snapPath, d.n, d.k, iter+1, d.assign, res.Stats.Iterations); err != nil {
				return nil, err
			}
		}
		if ps.moves == 0 {
			res.Stats.Converged = true
			break
		}
		if d.act.enabled {
			d.prepareNextActive()
		}
	}
	if ip, ok := opts.Accelerator.(IndexPersister); ok {
		ps := ip.PersistStats()
		res.Stats.IndexSaveTime = ps.SaveTime
		res.Stats.IndexLoadTime = ps.LoadTime
		res.Stats.MmapBytes = ps.MmapBytes
		res.Stats.WarmStart = ps.WarmStart
	}
	return res, nil
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// driver carries the mutable state of one Run.
type driver struct {
	space Space
	opts  Options
	// perItem selects the per-item reference (run).
	perItem bool
	n, k    int
	assign  []int32
	querier Querier
	// inc is non-nil when the space implements IncrementalSpace and the
	// incremental engine is enabled; passes then feed it moves instead
	// of relying on full centroid recomputation.
	inc IncrementalSpace
	// snapshot holds the pass-start assignment under UpdateDeferred.
	snapshot []int32
	// moves collects a pass's moves for the fold into the incremental
	// space and the cluster summaries after the pass.
	moves []moveRec
	// summ is the accelerator's cluster-summary hook (nil when it keeps
	// no summaries, and in the per-item reference); every assignment
	// write is reported to it (settle, pass), through movers, the
	// reported items' scratch.
	summ   ClusterSummarizer
	movers []int32
	// bootSign/bootBuild/bootAssign split the bootstrap wall time into
	// its signing, index-construction and first-assignment phases
	// (runstats.Run.Bootstrap*).
	bootSign, bootBuild, bootAssign time.Duration
	// chg and rev are the change-report and reverse-collision
	// capabilities backing the active-set filter; nil unless
	// act.enabled (see active.go).
	chg ChangeReporter
	rev ReverseView
	act activeState
}

// passStats aggregates one assignment pass. evaluated counts the items
// actually queried and compared — n on a full pass, the active-set size
// on a filtered one.
type passStats struct {
	moves     int
	evaluated int
	comps     int64
	cands     int64
}

func (p *passStats) add(o passStats) {
	p.moves += o.moves
	p.evaluated += o.evaluated
	p.comps += o.comps
	p.cands += o.cands
}

// bootstrap produces the initial assignment and, for accelerated runs,
// the index.
//
// The first assignment is the paper's exact scan (§III-B): every item
// against every centroid, before the index answers any query. An
// accelerated bootstrap runs as a pipeline whose phases are
// individually parallel and individually timed: sign every item into a
// flat key arena, build the frozen index directly from the keys, then
// the exact first assignment. Each phase treats every item
// independently of the others and is bit-identical to its one-worker
// run, so each runs on runtime.GOMAXPROCS(0) goroutines: the host's
// parallelism, not Options.Workers, which sizes the passes and must
// stay at most one for the paper's immediate updates.
func (d *driver) bootstrap() error {
	accel := d.opts.Accelerator
	workers := runtime.GOMAXPROCS(0)
	// Bootstrap is now the dominant wall-clock phase, so it honours
	// Options.Context like the iteration passes do: every long loop
	// (scan shards, signing workers) polls each ctxPollEvery items, and
	// each pipeline phase ends with a cancellation check, keeping
	// latency a fraction of the bootstrap.
	stop := func() bool { return ctxErr(d.opts.Context) != nil }
	if accel == nil {
		start := time.Now()
		d.bootstrapScan(workers)
		d.bootAssign = time.Since(start)
		return ctxErr(d.opts.Context)
	}
	ip, persists := accel.(IndexPersister)
	if persists {
		// Forwarded unconditionally (an empty Dir clears any previous
		// configuration on a reused accelerator), before Reset, which is
		// where the warm load happens.
		ip.SetPersist(PersistConfig{
			Dir:         d.opts.IndexDir,
			DisableMmap: d.opts.Oracles.DisableMmap,
		})
	}
	if err := accel.Reset(d.k); err != nil {
		return fmt.Errorf("core: resetting accelerator: %w", err)
	}
	// A warm-started Reset loaded the frozen index from disk: signing
	// and construction have nothing left to do, and the first
	// assignment restores from the directory too (falling back to the
	// scan if its file fails validation).
	if !persists || !ip.PersistStats().WarmStart {
		start := time.Now()
		if err := accel.SignAll(workers, stop); err != nil {
			return fmt.Errorf("core: signing items: %w", err)
		}
		d.bootSign = time.Since(start)
		if err := ctxErr(d.opts.Context); err != nil {
			return err // the partially signed arena is discarded with the run
		}
		start = time.Now()
		if err := accel.BuildFrozen(workers); err != nil {
			return fmt.Errorf("core: building frozen index: %w", err)
		}
		d.bootBuild = time.Since(start)
		if err := ctxErr(d.opts.Context); err != nil {
			return err
		}
	}
	start := time.Now()
	if err := d.bootstrapAssign(workers); err != nil {
		return err
	}
	d.bootAssign = time.Since(start)
	d.querier = accel.NewQuerier()
	return ctxErr(d.opts.Context)
}

// bootstrapScan runs the exact first assignment over all n items —
// every item's nearest of all k centroids, current assignment −1 —
// sharded across workers goroutines. A NearestScanner space scans
// through its capability; any other compares every centroid
// (fullScanRange). Items are independent (Space reads are
// concurrency-safe, each assignment cell written by one worker), so
// the result is bit-identical to the one-worker scan. Moves are not
// logged: the incremental engine initialises from the complete
// bootstrap assignment afterwards. Every shard polls Options.Context
// each ctxPollEvery items and stops early on cancellation; the caller
// returns the context error, discarding the partial assignment with
// the run.
func (d *driver) bootstrapScan(workers int) {
	scan := func(lo, hi int, out []int32) { d.fullScanRange(lo, hi, out, nil) }
	if ns, ok := d.space.(NearestScanner); ok {
		scan = ns.NearestScan()
	}
	par.Ranges(d.n, workers, func(lo, hi int) {
		for next := lo; next < hi; {
			end := min(next+ctxPollEvery, hi)
			scan(next, end, d.assign)
			next = end
			if ctxErr(d.opts.Context) != nil {
				return
			}
		}
	})
}

// fullScanRange exactly assigns items in [lo, hi) by scanning all k
// centroids, writing into out. Counters, when non-nil, receive the
// comparison count.
func (d *driver) fullScanRange(lo, hi int, out []int32, comps *int64) {
	for i := lo; i < hi; i++ {
		cur := int(out[i]) // -1 during bootstrap
		best := d.bestExact(i, cur, comps)
		out[i] = int32(best)
	}
}

// bestExact returns the closest cluster to item over all k clusters.
// Under TieBreakPreferCurrent the current cluster wins ties; under
// TieBreakLowestIndex the ascending scan with strict improvement yields
// the lowest-indexed minimum.
func (d *driver) bestExact(item, cur int, comps *int64) int {
	var bestC int
	var bestD float64
	if cur >= 0 && d.opts.TieBreak == TieBreakPreferCurrent {
		bestC, bestD = cur, d.space.Dissimilarity(item, cur)
	} else {
		bestC, bestD = 0, d.space.Dissimilarity(item, 0)
	}
	if comps != nil {
		*comps++
	}
	skipCur := cur
	if d.opts.TieBreak == TieBreakLowestIndex {
		skipCur = -1 // the current cluster gets no special treatment
	}
	for c := 0; c < d.k; c++ {
		if c == bestC || c == skipCur {
			continue
		}
		var dist float64
		if d.opts.EarlyAbandon {
			dist = d.space.BoundedDissimilarity(item, c, bestD)
		} else {
			dist = d.space.Dissimilarity(item, c)
		}
		if comps != nil {
			*comps++
		}
		if dist < bestD {
			bestD, bestC = dist, c
		}
	}
	return bestC
}

// bestOf returns the closest cluster to item among its current
// cluster cur (≥ 0: every pass assigns items before it evaluates them)
// and the candidates, resolving ties per Options.TieBreak.
func (d *driver) bestOf(item, cur int, candidates []int32, comps *int64) int32 {
	if d.opts.TieBreak == TieBreakLowestIndex {
		return d.bestOfLowestIndex(item, cur, candidates, comps)
	}
	bestC, bestD := int32(cur), d.space.Dissimilarity(item, cur)
	if comps != nil {
		*comps++
	}
	for _, c := range candidates {
		if c == bestC || c == int32(cur) {
			continue
		}
		var dist float64
		if d.opts.EarlyAbandon {
			dist = d.space.BoundedDissimilarity(item, int(c), bestD)
		} else {
			dist = d.space.Dissimilarity(item, int(c))
		}
		if comps != nil {
			*comps++
		}
		if dist < bestD {
			bestD, bestC = dist, c
		}
	}
	return bestC
}

// bestOfLowestIndex is the numpy-argmin variant: the lowest-indexed
// minimum over the union of the current cluster and the candidates wins,
// even when that means moving on a tie.
func (d *driver) bestOfLowestIndex(item, cur int, candidates []int32, comps *int64) int32 {
	bestC, bestD := int32(cur), d.space.Dissimilarity(item, cur)
	if comps != nil {
		*comps++
	}
	for _, c := range candidates {
		if c == int32(cur) {
			continue
		}
		dist := d.space.Dissimilarity(item, int(c))
		if comps != nil {
			*comps++
		}
		if dist < bestD || (dist == bestD && c < bestC) {
			bestD, bestC = dist, c
		}
	}
	return bestC
}

// pass runs one assignment pass (Algorithm 2's loop body): every item
// of the pass's domain is evaluated against its shortlist — against
// every cluster in an exact run — and moved to the closest cluster.
// Three choices shape a pass; one block loop (sweep) runs all of them:
//
//   - The view that shortlist queries read. Under UpdateImmediate it is
//     the live assignment, so later items observe earlier moves. Under
//     UpdateDeferred it is a snapshot taken at pass start.
//   - The domain. Immediate passes walk item IDs in ascending order and
//     read active flags live, so a move's colliders activate mid-pass.
//     Filtered deferred passes walk the active list; unfiltered ones
//     and exact runs walk item IDs.
//   - The worker count. Deferred and exact passes split the domain into
//     Workers contiguous ranges, each with a querier of its own; their
//     decisions read only the snapshot, so they are independent.
//     Immediate passes run on one goroutine.
//
// Moves are logged and folded into the incremental space after the
// pass in ascending item order. ApplyMove leaves visible centroids
// unchanged until FinishPass, so folding late changes no decision, and
// the order — the one a serial pass decides in — keeps K-Means'
// floating-point accumulators bit-identical across domains and worker
// counts. A deferred pass's shortlists read the pass-start snapshot,
// which the accelerator's cluster summaries still describe; after the
// pass the move log's items are reported in one Resummarize call, so a
// bucket holding several movers is recomputed once. (An immediate pass
// refreshes them move by move, in settle.)
func (d *driver) pass() passStats {
	accel := d.opts.Accelerator
	immediate := accel != nil && d.opts.Update == UpdateImmediate
	var view, dom []int32
	if accel != nil {
		view = d.assign
		if !immediate {
			d.snapshot = append(d.snapshot[:0], view...)
			view = d.snapshot
		}
	}
	total, workers := d.n, 1
	if !immediate {
		workers = d.opts.Workers
		if d.filtered() {
			dom = d.act.curList
			total = len(dom)
		}
	}
	var (
		mu sync.Mutex
		ps passStats
	)
	d.moves = d.moves[:0]
	par.Ranges(total, workers, func(lo, hi int) {
		var q Querier
		if accel != nil {
			q = d.querier
			if workers > 1 {
				q = accel.NewQuerier()
			}
		}
		var w passWorker
		d.sweep(&w, q, view, dom, lo, hi, immediate)
		mu.Lock()
		ps.add(w.ps)
		d.moves = append(d.moves, w.moves...)
		mu.Unlock()
	})
	if d.inc != nil {
		slices.SortFunc(d.moves, func(a, b moveRec) int { return int(a.item) - int(b.item) })
		for _, mv := range d.moves {
			d.inc.ApplyMove(int(mv.item), mv.from, mv.to)
		}
	}
	if d.summ != nil && !immediate {
		d.movers = d.movers[:0]
		for _, mv := range d.moves {
			d.movers = append(d.movers, mv.item)
		}
		d.summ.Resummarize(d.movers, d.assign)
	}
	return ps
}

// passWorker is one goroutine's share of a pass: its counters and the
// moves it decided.
type passWorker struct {
	ps    passStats
	moves []moveRec
}

// sweep runs the block loop over positions [lo, hi) of the pass domain
// (dom[pos], or pos itself when dom is nil). It gathers up to a block
// of items, fetches their shortlists in one CandidatesBlock call
// against view, and decides each item in order; an exact pass (nil q)
// compares each item against every cluster instead. Each shortlist is
// resolved against view as it stands when its item is decided
// (BlockQuerier), so under immediate updates a move is seen by the
// rest of its block exactly as by a per-item loop, and blocks run
// whole. The one cut left is in a filtered immediate pass, whose
// gather skips items with their live active flag off: when a move
// activates an item the gather skipped after the mover, that item must
// be decided at its own position, so the rest of the block is dropped
// and re-gathered from the item after the mover.
func (d *driver) sweep(w *passWorker, q Querier, view, dom []int32, lo, hi int, immediate bool) {
	bq, blockLen := d.blockQuerier(q)
	live := immediate && d.filtered()
	var buf [queryBlockLen]int32
	poll := 0
	for pos := lo; pos < hi; {
		blk := buf[:0]
		for ; pos < hi && len(blk) < blockLen; pos++ {
			it := int32(pos)
			if dom != nil {
				it = dom[pos]
			}
			if live && !d.act.cur[it] {
				continue
			}
			blk = append(blk, it)
		}
		if len(blk) == 0 {
			return
		}
		if poll += len(blk); poll >= ctxPollEvery {
			poll = 0
			if ctxErr(d.opts.Context) != nil {
				return
			}
		}
		if bq == nil {
			//lshvet:ignore ctxpollcheck one block, bounded by queryBlockLen
			for _, it := range blk {
				i := int(it)
				w.ps.cands += int64(d.k)
				d.settle(w, i, int32(d.bestExact(i, int(d.assign[i]), &w.ps.comps)))
			}
			continue
		}
		// The gather scanned every item below end; a filtered immediate
		// pass cuts when a move wakes one of them it skipped.
		end, cutAt := int32(pos), -1
		bq.CandidatesBlock(blk, view, func(p int, shortlist []int32) {
			if cutAt >= 0 {
				return // dropped tail: re-gathered after the cut
			}
			i := int(blk[p])
			w.ps.cands += int64(len(shortlist))
			if d.settle(w, i, d.bestOf(i, int(d.assign[i]), shortlist, &w.ps.comps)) && live && d.act.woke < end {
				cutAt = p
			}
		})
		if cutAt >= 0 {
			pos = int(blk[cutAt]) + 1 // immediate domains are item IDs
		}
	}
}

// settle records item i's evaluation and, when best differs from its
// cluster, moves it there: the paper's "update the cluster reference
// in the MinHash index". Buckets store item IDs, so the reference is
// the assignment write, plus, when the accelerator keeps cluster
// summaries of its long buckets, their refresh. An immediate pass's
// later shortlists read the live view, so the summaries of i's buckets
// are refreshed here, before the next emit; a deferred pass logs the
// move for the fold after the pass.
func (d *driver) settle(w *passWorker, i int, best int32) bool {
	w.ps.evaluated++
	cur := d.assign[i]
	if best == cur {
		return false
	}
	d.assign[i] = best
	if d.inc != nil || d.summ != nil {
		w.moves = append(w.moves, moveRec{int32(i), cur, best})
	}
	if d.summ != nil && d.opts.Update == UpdateImmediate {
		d.movers = append(d.movers[:0], int32(i))
		d.summ.Resummarize(d.movers, d.assign)
	}
	w.ps.moves++
	d.noteMove(i)
	return true
}

// blockQuerier returns the block form of q and the block length a
// sweep gathers. A BlockQuerier is used as is, at queryBlockLen.
// Other queriers, and every querier of the per-item reference run,
// go through perItemQuerier at block length 1, so the per-item
// reference shares no cut logic with the block path: a one-item
// gather ends right after its item, so no move can wake an item it
// skipped. A nil q (exact runs) stays nil.
func (d *driver) blockQuerier(q Querier) (BlockQuerier, int) {
	if q == nil {
		return nil, queryBlockLen
	}
	if bq, ok := q.(BlockQuerier); ok && !d.perItem {
		return bq, queryBlockLen
	}
	return perItemQuerier{q}, 1
}

// perItemQuerier adapts a Querier to BlockQuerier with one Candidates
// call per item.
type perItemQuerier struct{ Querier }

func (q perItemQuerier) CandidatesBlock(items []int32, assign []int32, emit func(pos int, shortlist []int32)) {
	for pos, it := range items {
		emit(pos, q.Candidates(it, assign))
	}
}

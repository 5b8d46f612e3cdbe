package core_test

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// assertActiveEqual runs the same configuration twice — once with
// active-set filtering (the default), once with DisableActiveFilter
// (the full-pass oracle) — and asserts bit-identical outcomes:
// assignments, per-iteration moves and costs, and convergence. It also
// asserts the filter actually engaged (some iteration skipped items);
// otherwise the equivalence would be vacuous.
func assertActiveEqual(t *testing.T, mk func() (core.Space, core.Accelerator), opts core.Options) {
	t.Helper()
	run := func(disable bool) *core.Result {
		o := opts
		o.Oracles.DisableActiveFilter = disable
		space, accel := mk()
		o.Accelerator = accel
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	act, full := run(false), run(true)
	for i := range act.Assign {
		if act.Assign[i] != full.Assign[i] {
			t.Fatalf("assign[%d]: active %d, full %d", i, act.Assign[i], full.Assign[i])
		}
	}
	if act.Stats.Converged != full.Stats.Converged {
		t.Fatalf("converged: active %v, full %v", act.Stats.Converged, full.Stats.Converged)
	}
	if len(act.Stats.Iterations) != len(full.Stats.Iterations) {
		t.Fatalf("iterations: active %d, full %d",
			len(act.Stats.Iterations), len(full.Stats.Iterations))
	}
	skippedAny := false
	for i := range act.Stats.Iterations {
		a, b := act.Stats.Iterations[i], full.Stats.Iterations[i]
		if a.Moves != b.Moves {
			t.Fatalf("iteration %d moves: active %d, full %d", i+1, a.Moves, b.Moves)
		}
		if !opts.SkipCost && a.Cost != b.Cost {
			t.Fatalf("iteration %d cost: active %v, full %v", i+1, a.Cost, b.Cost)
		}
		if b.SkippedItems != 0 {
			t.Fatalf("iteration %d: oracle run skipped %d items", i+1, b.SkippedItems)
		}
		if a.ActiveItems+a.SkippedItems != len(act.Assign) {
			t.Fatalf("iteration %d: active %d + skipped %d != n %d",
				i+1, a.ActiveItems, a.SkippedItems, len(act.Assign))
		}
		if a.SkippedItems > 0 {
			skippedAny = true
		}
	}
	if len(act.Stats.Iterations) >= 3 && !skippedAny {
		t.Fatal("active-set filter never skipped an item; equivalence test is vacuous")
	}
}

// TestActiveFilterMatchesFullPassKModes drives the MH-K-Modes
// configuration matrix: both tie-break modes, both update modes, serial
// and parallel. The workload converges over several passes with a
// sparse tail, so late passes filter heavily.
func TestActiveFilterMatchesFullPassKModes(t *testing.T) {
	ds := kmodesMatrixWorkload(t)
	mk := func() (core.Space, core.Accelerator) {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return s, a
	}
	for _, tb := range []core.TieBreak{core.TieBreakPreferCurrent, core.TieBreakLowestIndex} {
		for _, upd := range []core.UpdateMode{core.UpdateImmediate, core.UpdateDeferred} {
			for _, workers := range []int{1, 4} {
				if workers > 1 && upd != core.UpdateDeferred {
					continue // rejected by core.Run
				}
				name := fmt.Sprintf("tb=%d/upd=%d/w=%d", tb, upd, workers)
				t.Run(name, func(t *testing.T) {
					assertActiveEqual(t, mk, core.Options{
						TieBreak: tb, Update: upd, Workers: workers,
						MaxIterations: 15,
					})
				})
			}
		}
	}
}

// TestActiveFilterMatchesFullPassKMeans drives the SimHash-K-Means
// instantiation (floating-point centroids, conservative change
// reports).
func TestActiveFilterMatchesFullPassKMeans(t *testing.T) {
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{
		Points: 800, Clusters: 40, Dim: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (core.Space, core.Accelerator) {
		s, err := kmeans.NewSpace(pts, 8, kmeans.Config{K: 40, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		a, err := simhash.NewAccelerator(s, lsh.Params{Bands: 8, Rows: 8}, 21)
		if err != nil {
			t.Fatal(err)
		}
		return s, a
	}
	for _, upd := range []core.UpdateMode{core.UpdateImmediate, core.UpdateDeferred} {
		for _, workers := range []int{1, 4} {
			if workers > 1 && upd != core.UpdateDeferred {
				continue
			}
			name := fmt.Sprintf("upd=%d/w=%d", upd, workers)
			t.Run(name, func(t *testing.T) {
				assertActiveEqual(t, mk, core.Options{
					Update: upd, Workers: workers, MaxIterations: 15,
				})
			})
		}
	}
}

// TestActiveFilterReseedPolicies exercises the empty-cluster reseed
// paths: reseeded clusters must be reported changed, or items near
// them would hold stale assignments.
func TestActiveFilterReseedPolicies(t *testing.T) {
	t.Run("kmodes", func(t *testing.T) {
		ds := kmodesMatrixWorkload(t)
		mk := func() (core.Space, core.Accelerator) {
			s, err := kmodes.NewSpace(ds, kmodes.Config{
				K: 90, Seed: 5, EmptyCluster: kmodes.ReseedRandomItem,
			})
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
			if err != nil {
				t.Fatal(err)
			}
			return s, a
		}
		assertActiveEqual(t, mk, core.Options{MaxIterations: 12})
	})
}

// TestActiveFilterSparseLateIterations asserts the acceptance
// criterion directly: once the run enters its sparse tail, the
// assignment pass evaluates at most 10% of the items.
func TestActiveFilterSparseLateIterations(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Items: 4000, Clusters: 40, Attrs: 16, Domain: 400,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 23,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := kmodes.NewSpace(ds, kmodes.Config{K: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	accel, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(space, core.Options{Accelerator: accel, MaxIterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	iters := res.Stats.Iterations
	if len(iters) < 3 {
		t.Fatalf("only %d iterations; workload too easy to show a sparse tail", len(iters))
	}
	if first := iters[0]; first.ActiveItems != ds.NumItems() {
		t.Fatalf("first pass evaluated %d items, want all %d", first.ActiveItems, ds.NumItems())
	}
	last := iters[len(iters)-1]
	if limit := ds.NumItems() / 10; last.ActiveItems > limit {
		t.Fatalf("final pass evaluated %d items, want ≤ %d (10%% of n)", last.ActiveItems, limit)
	}
}

// countdownCtx is a deterministic cancellation source: Err reports
// context.Canceled from the nth call on, so tests can pin exactly when
// a polling loop observes cancellation without depending on timing.
type countdownCtx struct {
	context.Context
	remaining atomic.Int32
}

func newCountdownCtx(calls int32) *countdownCtx {
	c := &countdownCtx{Context: context.Background()}
	c.remaining.Store(calls)
	return c
}

func (c *countdownCtx) Err() error {
	if c.remaining.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// countingSpace is a minimal exact Space whose distance evaluations are
// counted atomically; cluster (item+1)%k is always best so passes keep
// moving items and never converge early.
type countingSpace struct {
	n, k  int
	calls atomic.Int64
}

func (s *countingSpace) NumItems() int    { return s.n }
func (s *countingSpace) NumClusters() int { return s.k }
func (s *countingSpace) Dissimilarity(item, cluster int) float64 {
	s.calls.Add(1)
	if cluster == (item+1)%s.k {
		return 0
	}
	return 1
}
func (s *countingSpace) BoundedDissimilarity(item, cluster int, bound float64) float64 {
	return s.Dissimilarity(item, cluster)
}
func (s *countingSpace) RecomputeCentroids(assign []int32) {}
func (s *countingSpace) Cost(assign []int32) float64       { return 0 }

// cancellingAccel wraps a MinHash accelerator so that the first block
// of shortlists any querier fetches cancels the run: the cancellation
// lands inside the first iteration pass. It counts the positions
// queried.
type cancellingAccel struct {
	*core.MinHashAccelerator
	cancel    context.CancelFunc
	positions atomic.Int64
}

func (a *cancellingAccel) NewQuerier() core.Querier {
	return &cancellingQuerier{IndexQuerier: a.MinHashAccelerator.NewQuerier().(*core.IndexQuerier), a: a}
}

type cancellingQuerier struct {
	*core.IndexQuerier
	a *cancellingAccel
}

func (q *cancellingQuerier) CandidatesBlock(items, assign []int32, emit func(pos int, shortlist []int32)) {
	q.a.cancel()
	q.a.positions.Add(int64(len(items)))
	q.IndexQuerier.CandidatesBlock(items, assign, emit)
}

// TestCancellationMidPass verifies that a cancelled context stops the
// assignment pass itself — workers poll inside their loops — instead of
// running every worker to completion and only noticing between passes.
// It covers the exact pass and the accelerated pass at S=4, immediate
// and deferred.
func TestCancellationMidPass(t *testing.T) {
	const n, k = 40_000, 4
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w=%d", workers), func(t *testing.T) {
			space := &countingSpace{n: n, k: k}
			// Bootstrap's full scan runs before the countdown matters:
			// budget the pre-bootstrap Err call, the bootstrap scan's
			// in-shard polls (one per 1024-item chunk per set-up
			// worker, one per GOMAXPROCS; see ctxPollEvery) plus its
			// phase-end check, the iteration-top call, and cancel at the
			// first in-pass poll.
			bootPolls := int32(0)
			procs := runtime.GOMAXPROCS(0)
			for g := 0; g < procs; g++ {
				lo, hi := g*n/procs, (g+1)*n/procs
				bootPolls += int32((hi - lo + 1023) / 1024)
			}
			ctx := newCountdownCtx(1 + bootPolls + 1 + 1)
			res, err := core.Run(space, core.Options{
				Workers:       workers,
				SkipCost:      true,
				MaxIterations: 5,
				Context:       ctx,
			})
			if err == nil {
				t.Fatalf("Run returned %v, want cancellation error", res)
			}
			if err != context.Canceled {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			// The bootstrap pass legitimately evaluates all n·k
			// distances; the cancelled first iteration must stop after
			// at most one poll interval per worker (plus the items
			// already in flight), far short of another full pass.
			extra := space.calls.Load() - int64(n*k)
			budget := int64(workers) * 2048 * k
			if extra < 0 || extra > budget {
				t.Fatalf("post-bootstrap distance calls = %d, want (0, %d]", extra, budget)
			}
		})
	}

	ds, err := datagen.Generate(datagen.Config{
		Items: 8000, Clusters: 40, Attrs: 16, Domain: 200,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string]core.Options{
		// The deprecated Shards setting is ignored; the benchmark sets it.
		"minhash-s4/immediate":   core.WithShards(core.Options{}, 4),
		"minhash-s4/deferred-w2": core.WithShards(core.Options{Workers: 2, Update: core.UpdateDeferred}, 4),
	} {
		t.Run(name, func(t *testing.T) {
			space, err := kmodes.NewSpace(ds, kmodes.Config{K: 40, Seed: 5})
			if err != nil {
				t.Fatal(err)
			}
			mh, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			accel := &cancellingAccel{MinHashAccelerator: mh, cancel: cancel}
			opts.Accelerator = accel
			opts.MaxIterations = 5
			opts.Context = ctx
			if res, err := core.Run(space, opts); err != context.Canceled {
				t.Fatalf("Run = %v, %v; want context.Canceled", res, err)
			}
			// Each worker stops at its next poll: at most one poll
			// interval of positions, far short of the full first pass.
			workers := max(opts.Workers, 1)
			got, budget := accel.positions.Load(), int64(workers)*2048
			if got <= 0 || got > budget {
				t.Fatalf("positions queried after cancellation = %d, want (0, %d]", got, budget)
			}
		})
	}
}

// TestCandidatesBlockMatchesCandidates asserts the block querier's
// contract: for every item, CandidatesBlock emits exactly the
// shortlist — contents and order — that the per-item Candidates call
// produces against assign as it stands when that emit starts. The
// view is summarised (ClusterSummarizer) before the first query. The
// mutating case reassigns each emitted item and every third of its
// colliders inside emit, as an immediate pass's moves do, and reports
// each write through Resummarize, so every later position of the block
// must observe those writes. Covered on the bulk-built index over the
// items in generated order and in locality order (bulk-reordered/s=1:
// each generated cluster contiguous, on the one-shard index), and on
// the frozen index a warm start serves (frozen=true: the bulk-built
// index saved, then loaded by Open, memory-mapped where the platform
// allows).
func TestCandidatesBlockMatchesCandidates(t *testing.T) {
	ds := kmodesMatrixWorkload(t)
	localDs := reorderDataset(t, ds, localityOrder(ds.Labels()))
	const k = 30
	n := ds.NumItems()
	// build resets an accelerator over ds persisting into dir (none
	// when empty) and, unless Reset warm-loaded the index, builds it.
	build := func(t *testing.T, ds *dataset.Dataset, dir string) *core.MinHashAccelerator {
		accel, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		accel.SetPersist(core.PersistConfig{Dir: dir})
		if err := accel.Reset(k); err != nil {
			t.Fatal(err)
		}
		if accel.PersistStats().WarmStart {
			return accel
		}
		if err := accel.SignAll(2, nil); err != nil {
			t.Fatal(err)
		}
		if err := accel.BuildFrozen(2); err != nil {
			t.Fatal(err)
		}
		return accel
	}
	bulkBuilt := func(ds *dataset.Dataset) func(t *testing.T) *core.MinHashAccelerator {
		return func(t *testing.T) *core.MinHashAccelerator { return build(t, ds, "") }
	}
	warmLoaded := func(t *testing.T) *core.MinHashAccelerator {
		dir := t.TempDir()
		build(t, ds, dir)
		accel := build(t, ds, dir)
		if !accel.PersistStats().WarmStart {
			t.Fatal("the saved index was not warm-loaded")
		}
		return accel
	}
	layouts := []struct {
		name  string
		build func(t *testing.T) *core.MinHashAccelerator
	}{
		{"frozen=true", warmLoaded},
		{"bulk", bulkBuilt(ds)},
		{"bulk-reordered/s=1", bulkBuilt(localDs)},
	}
	for _, lay := range layouts {
		t.Run(lay.name, func(t *testing.T) {
			for _, mutate := range []bool{false, true} {
				t.Run(fmt.Sprintf("mutate=%v", mutate), func(t *testing.T) {
					accel := lay.build(t)
					ref := accel.NewQuerier()
					bq, ok := accel.NewQuerier().(core.BlockQuerier)
					if !ok {
						t.Fatal("IndexQuerier does not implement BlockQuerier")
					}
					colliders := accel.Index()
					view := make([]int32, n)
					for i := range view {
						view[i] = int32(i % k)
					}
					accel.SummarizeClusters(view)
					emits := 0
					// Oddly-sized blocks straddle block boundaries on purpose.
					for _, blockLen := range []int{1, 7, 64, 129} {
						for lo := 0; lo < n; lo += blockLen {
							hi := min(lo+blockLen, n)
							blk := make([]int32, 0, hi-lo)
							for i := lo; i < hi; i++ {
								blk = append(blk, int32(i))
							}
							bq.CandidatesBlock(blk, view, func(pos int, shortlist []int32) {
								emits++
								want := ref.Candidates(blk[pos], view)
								if len(shortlist) != len(want) {
									t.Fatalf("item %d: block shortlist %v, per-item %v", blk[pos], shortlist, want)
								}
								for j := range want {
									if shortlist[j] != want[j] {
										t.Fatalf("item %d pos %d: block %d, per-item %d",
											blk[pos], j, shortlist[j], want[j])
									}
								}
								if !mutate {
									return
								}
								self := blk[pos]
								view[self] = (view[self] + 1) % k
								accel.Resummarize([]int32{self}, view)
								seen := 0
								colliders.Candidates(self, func(other int32) {
									if seen++; seen%3 == 0 {
										view[other] = (view[other] + 7) % k
										accel.Resummarize([]int32{other}, view)
									}
								})
							})
						}
					}
					if emits != 4*n {
						t.Fatalf("emit ran %d times, want %d", emits, 4*n)
					}
					// The workload's long buckets must have been read
					// through their summaries.
					if reads := bq.(*core.IndexQuerier).SummaryReads(); reads == 0 {
						t.Fatal("no cluster summary read")
					}
				})
			}
		})
	}
}

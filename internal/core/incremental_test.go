package core_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/runstats"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// assertRunsEqual runs the same configuration twice — once with the
// incremental engine, once with DisableIncremental (the batch oracle) —
// and asserts bit-identical outcomes: assignments, per-iteration moves
// and costs, and convergence.
func assertRunsEqual(t *testing.T, mkSpace func() core.Space, mkAccel func(core.Space) core.Accelerator, opts core.Options) {
	t.Helper()
	run := func(disable bool) *core.Result {
		o := opts
		o.Oracles.DisableIncremental = disable
		space := mkSpace()
		if mkAccel != nil {
			o.Accelerator = mkAccel(space)
		}
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	inc, batch := run(false), run(true)
	if len(inc.Assign) != len(batch.Assign) {
		t.Fatalf("assign lengths differ: %d vs %d", len(inc.Assign), len(batch.Assign))
	}
	for i := range inc.Assign {
		if inc.Assign[i] != batch.Assign[i] {
			t.Fatalf("assign[%d]: incremental %d, batch %d", i, inc.Assign[i], batch.Assign[i])
		}
	}
	if inc.Stats.Converged != batch.Stats.Converged {
		t.Fatalf("converged: incremental %v, batch %v", inc.Stats.Converged, batch.Stats.Converged)
	}
	if len(inc.Stats.Iterations) != len(batch.Stats.Iterations) {
		t.Fatalf("iterations: incremental %d, batch %d",
			len(inc.Stats.Iterations), len(batch.Stats.Iterations))
	}
	for i := range inc.Stats.Iterations {
		a, b := inc.Stats.Iterations[i], batch.Stats.Iterations[i]
		if a.Moves != b.Moves {
			t.Fatalf("iteration %d moves: incremental %d, batch %d", i+1, a.Moves, b.Moves)
		}
		if !opts.SkipCost && a.Cost != b.Cost {
			// Bit-identical, not approximately equal: the incremental
			// objective must match the full Cost scan exactly.
			t.Fatalf("iteration %d cost: incremental %v, batch %v", i+1, a.Cost, b.Cost)
		}
	}
}

// kmodesMatrixWorkload is sized so that random seeding puts several
// seeds in the same ground-truth cluster: runs take multiple passes,
// clusters drain and refill, and late passes have sparse moves.
func kmodesMatrixWorkload(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Items: 600, Clusters: 30, Attrs: 16, Domain: 200,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestIncrementalMatchesBatchKModes(t *testing.T) {
	ds := kmodesMatrixWorkload(t)
	mkSpace := func() core.Space {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkAccel := func(core.Space) core.Accelerator {
		a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, accel := range []bool{false, true} {
		for _, tb := range []core.TieBreak{core.TieBreakPreferCurrent, core.TieBreakLowestIndex} {
			for _, upd := range []core.UpdateMode{core.UpdateImmediate, core.UpdateDeferred} {
				for _, workers := range []int{1, 4} {
					if workers > 1 && accel && upd != core.UpdateDeferred {
						continue // rejected by core.Run
					}
					if !accel && upd == core.UpdateDeferred {
						continue // update mode is accelerated-only
					}
					name := fmt.Sprintf("accel=%v/tb=%d/upd=%d/w=%d", accel, tb, upd, workers)
					t.Run(name, func(t *testing.T) {
						ma := mkAccel
						if !accel {
							ma = nil
						}
						assertRunsEqual(t, mkSpace, ma, core.Options{
							TieBreak: tb, Update: upd, Workers: workers,
							MaxIterations: 15,
						})
					})
				}
			}
		}
	}
}

func TestIncrementalMatchesBatchKMeans(t *testing.T) {
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{
		Points: 800, Clusters: 40, Dim: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mkSpace := func() core.Space {
		s, err := kmeans.NewSpace(pts, 8, kmeans.Config{K: 40, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkAccel := func(sp core.Space) core.Accelerator {
		a, err := simhash.NewAccelerator(sp.(*kmeans.Space), lsh.Params{Bands: 8, Rows: 8}, 21)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for _, accel := range []bool{false, true} {
		for _, upd := range []core.UpdateMode{core.UpdateImmediate, core.UpdateDeferred} {
			for _, workers := range []int{1, 4} {
				if workers > 1 && accel && upd != core.UpdateDeferred {
					continue
				}
				if !accel && upd == core.UpdateDeferred {
					continue
				}
				name := fmt.Sprintf("accel=%v/upd=%d/w=%d", accel, upd, workers)
				t.Run(name, func(t *testing.T) {
					ma := mkAccel
					if !accel {
						ma = nil
					}
					assertRunsEqual(t, mkSpace, ma, core.Options{
						Update: upd, Workers: workers, MaxIterations: 15,
					})
				})
			}
		}
	}
}

// TestIncrementalMatchesBatchReseedPolicy drives both empty-cluster
// reseed policies: the incremental path must replay the batch path's
// random draws exactly (one draw per empty cluster per pass, in cluster
// order), or assignments diverge as soon as a cluster empties.
func TestIncrementalMatchesBatchReseedPolicy(t *testing.T) {
	t.Run("kmodes", func(t *testing.T) {
		ds := kmodesMatrixWorkload(t)
		// k well above the true cluster count: many clusters drain.
		mkSpace := func() core.Space {
			s, err := kmodes.NewSpace(ds, kmodes.Config{
				K: 90, Seed: 5, EmptyCluster: kmodes.ReseedRandomItem,
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		assertRunsEqual(t, mkSpace, nil, core.Options{MaxIterations: 12})
	})
	t.Run("kmeans", func(t *testing.T) {
		pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{
			Points: 400, Clusters: 10, Dim: 6, Seed: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		mkSpace := func() core.Space {
			s, err := kmeans.NewSpace(pts, 6, kmeans.Config{
				K: 60, Seed: 8, EmptyCluster: kmeans.ReseedRandomPoint,
			})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		assertRunsEqual(t, mkSpace, nil, core.Options{MaxIterations: 12})
	})
}

// checkedKModes wraps a kmodes space and, after every FinishPass,
// verifies the published modes and incremental cost against a
// from-scratch RecomputeCentroids/Cost on an oracle space fed the same
// assignment history — the per-pass exactness property the driver
// relies on.
type checkedKModes struct {
	*kmodes.Space
	oracle *kmodes.Space
	t      *testing.T
	passes *int
}

func (cs *checkedKModes) BeginIncremental(assign []int32, trackCost bool) {
	cs.Space.BeginIncremental(assign, trackCost)
	cs.oracle.RecomputeCentroids(assign)
	cs.verify(assign)
}

func (cs *checkedKModes) FinishPass(assign []int32) {
	cs.Space.FinishPass(assign)
	cs.oracle.RecomputeCentroids(assign)
	cs.verify(assign)
	*cs.passes++
}

func (cs *checkedKModes) verify(assign []int32) {
	cs.t.Helper()
	for c := 0; c < cs.NumClusters(); c++ {
		got, want := cs.Mode(c), cs.oracle.Mode(c)
		for a := range got {
			if got[a] != want[a] {
				cs.t.Fatalf("cluster %d attr %d: incremental mode %d, recompute %d",
					c, a, got[a], want[a])
			}
		}
	}
	if got, want := cs.IncrementalCost(assign), cs.oracle.Cost(assign); got != want {
		cs.t.Fatalf("incremental cost %v, from-scratch cost %v", got, want)
	}
}

func TestIncrementalInvariantEveryPassKModes(t *testing.T) {
	ds := kmodesMatrixWorkload(t)
	mk := func() (*kmodes.Space, *kmodes.Space) {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		o, err := kmodes.NewSpaceFromSeeds(ds, s.Seeds(), kmodes.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return s, o
	}
	passes := 0
	space, oracle := mk()
	accel, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(&checkedKModes{Space: space, oracle: oracle, t: t, passes: &passes},
		core.Options{Accelerator: accel, MaxIterations: 15}); err != nil {
		t.Fatal(err)
	}
	if passes < 2 {
		t.Fatalf("only %d passes verified; workload too easy for the property test", passes)
	}
}

// checkedKMeans is the numeric counterpart: sums/centroids and cost
// must match a from-scratch recompute bit-for-bit after every pass.
type checkedKMeans struct {
	*kmeans.Space
	oracle *kmeans.Space
	t      *testing.T
	passes *int
}

func (cs *checkedKMeans) BeginIncremental(assign []int32, trackCost bool) {
	cs.Space.BeginIncremental(assign, trackCost)
	cs.oracle.RecomputeCentroids(assign)
	cs.verify(assign)
}

func (cs *checkedKMeans) FinishPass(assign []int32) {
	cs.Space.FinishPass(assign)
	cs.oracle.RecomputeCentroids(assign)
	cs.verify(assign)
	*cs.passes++
}

func (cs *checkedKMeans) verify(assign []int32) {
	cs.t.Helper()
	for c := 0; c < cs.NumClusters(); c++ {
		got, want := cs.Centroid(c), cs.oracle.Centroid(c)
		for j := range got {
			if got[j] != want[j] {
				cs.t.Fatalf("cluster %d dim %d: incremental centroid %v, recompute %v",
					c, j, got[j], want[j])
			}
		}
	}
	if got, want := cs.IncrementalCost(assign), cs.oracle.Cost(assign); got != want {
		cs.t.Fatalf("incremental cost %v, from-scratch cost %v", got, want)
	}
}

func TestIncrementalInvariantEveryPassKMeans(t *testing.T) {
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{
		Points: 800, Clusters: 40, Dim: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	space, err := kmeans.NewSpace(pts, 8, kmeans.Config{K: 40, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := kmeans.NewSpaceFromSeeds(pts, 8, space.Seeds(), kmeans.Config{})
	if err != nil {
		t.Fatal(err)
	}
	passes := 0
	if _, err := core.Run(&checkedKMeans{Space: space, oracle: oracle, t: t, passes: &passes},
		core.Options{MaxIterations: 15}); err != nil {
		t.Fatal(err)
	}
	if passes < 2 {
		t.Fatalf("only %d passes verified; workload too easy for the property test", passes)
	}
}

// TestIncrementalSkipCost exercises the trackCost=false path: the
// engine must still publish exact centroids (assignments identical to
// the batch path) without objective bookkeeping.
func TestIncrementalSkipCost(t *testing.T) {
	ds := kmodesMatrixWorkload(t)
	mkSpace := func() core.Space {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	assertRunsEqual(t, mkSpace, nil, core.Options{SkipCost: true, MaxIterations: 15})
}

// moveCounter counts the moves the driver logs into a K-Modes space.
type moveCounter struct {
	*kmodes.Space
	moves int
}

func (s *moveCounter) ApplyMove(item int, from, to int32) {
	s.moves++
	s.Space.ApplyMove(item, from, to)
}

// maskedStats renders a run's statistics with every timing zeroed.
func maskedStats(st runstats.Run) string {
	st.Bootstrap, st.BootstrapSign, st.BootstrapBuild, st.BootstrapAssign = 0, 0, 0, 0
	st.IndexSaveTime, st.IndexLoadTime = 0, 0
	st.Iterations = slices.Clone(st.Iterations)
	for i := range st.Iterations {
		st.Iterations[i].Duration = 0
	}
	return fmt.Sprintf("%+v", st)
}

// TestRerunAfterCancelledPass: a run cancelled mid-pass returns after
// the pass's ApplyMove calls and before their FinishPass, so its space
// holds moves that were never folded. A second run on the same
// kmodes.Space must give what a run on a fresh space holding the same
// modes gives: the assignment, the final modes and the statistics, with
// timings masked.
func TestRerunAfterCancelledPass(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Items: 8000, Clusters: 40, Attrs: 16, Domain: 200,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	mkSpace := func() *kmodes.Space {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 40, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mkAccel := func() *core.MinHashAccelerator {
		a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	for name, opts := range map[string]core.Options{
		"immediate":   {},
		"deferred-w2": {Workers: 2, Update: core.UpdateDeferred},
	} {
		t.Run(name, func(t *testing.T) {
			opts.MaxIterations = 8
			reused := mkSpace()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cancelled := opts
			cancelled.Accelerator = &cancellingAccel{MinHashAccelerator: mkAccel(), cancel: cancel}
			cancelled.Context = ctx
			counter := &moveCounter{Space: reused}
			if res, err := core.Run(counter, cancelled); err != context.Canceled {
				t.Fatalf("Run = %v, %v; want context.Canceled", res, err)
			}
			if counter.moves == 0 {
				t.Fatal("the cancelled pass logged no move")
			}

			// The cancellation landed in pass 1, so the reused space's
			// modes are those BeginIncremental published from the exact
			// first assignment; the fresh space recomputes them.
			fresh := mkSpace()
			first := make([]int32, ds.NumItems())
			fresh.NearestScan()(0, len(first), first)
			fresh.RecomputeCentroids(first)
			for c := 0; c < fresh.NumClusters(); c++ {
				if !slices.Equal(reused.Mode(c), fresh.Mode(c)) {
					t.Fatalf("mode %d after the cancelled run: %v, recomputed %v", c, reused.Mode(c), fresh.Mode(c))
				}
			}

			opts.Accelerator = mkAccel()
			got, err := core.Run(reused, opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Accelerator = mkAccel()
			want, err := core.Run(fresh, opts)
			if err != nil {
				t.Fatal(err)
			}
			fp := kmodesFingerprint(t)
			assertSameRun(t, "rerun against fresh", got, want, fp(reused), fp(fresh))
			if g, w := maskedStats(got.Stats), maskedStats(want.Stats); g != w {
				t.Fatalf("statistics with timings masked:\nrerun %s\nfresh %s", g, w)
			}
		})
	}
}

package core_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// setProcs sets GOMAXPROCS to procs, restoring the previous value when
// the test ends. The bootstrap's worker count is GOMAXPROCS.
func setProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// assertBootstrapEqual runs the same configuration twice — once as
// given under GOMAXPROCS 4, once as the serial reference: Workers: 1
// under GOMAXPROCS 1, whose sign → build → assign bootstrap runs every
// phase on one goroutine — and asserts bit-identical outcomes:
// assignments, per-iteration moves and costs, convergence, and the
// final centroids (via the caller-provided fingerprint of the space the
// run mutated).
func assertBootstrapEqual(t *testing.T, mk func() (core.Space, core.Accelerator), fingerprint func(core.Space) []byte, opts core.Options) {
	t.Helper()
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	run := func(serial bool) (*core.Result, []byte) {
		o := opts
		runtime.GOMAXPROCS(4)
		if serial {
			o.Workers = 1
			runtime.GOMAXPROCS(1)
		}
		space, accel := mk()
		o.Accelerator = accel
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, fingerprint(space)
	}
	par, parCentroids := run(false)
	ser, serCentroids := run(true)
	for i := range par.Assign {
		if par.Assign[i] != ser.Assign[i] {
			t.Fatalf("assign[%d]: parallel %d, serial %d", i, par.Assign[i], ser.Assign[i])
		}
	}
	if par.Stats.Converged != ser.Stats.Converged {
		t.Fatalf("converged: parallel %v, serial %v", par.Stats.Converged, ser.Stats.Converged)
	}
	if len(par.Stats.Iterations) != len(ser.Stats.Iterations) {
		t.Fatalf("iterations: parallel %d, serial %d",
			len(par.Stats.Iterations), len(ser.Stats.Iterations))
	}
	for i := range par.Stats.Iterations {
		a, b := par.Stats.Iterations[i], ser.Stats.Iterations[i]
		if a.Moves != b.Moves {
			t.Fatalf("iteration %d moves: parallel %d, serial %d", i+1, a.Moves, b.Moves)
		}
		if a.Cost != b.Cost {
			t.Fatalf("iteration %d cost: parallel %v, serial %v", i+1, a.Cost, b.Cost)
		}
	}
	if !bytes.Equal(parCentroids, serCentroids) {
		t.Fatal("final centroids differ between the run and its one-worker reference")
	}
}

func bootstrapWorkload(t *testing.T) *dataset.Dataset {
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

func kmodesFingerprint(t *testing.T) func(core.Space) []byte {
	return func(s core.Space) []byte {
		var buf bytes.Buffer
		if err := s.(*kmodes.Space).Model().Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
}

// TestParallelBootstrapMatchesSerialKModes is the headline equivalence
// matrix: MinHash-accelerated K-Modes across update modes and worker
// counts, each against the one-goroutine reference (at workers=1 the
// two runs differ only in GOMAXPROCS, so only in the set-up).
func TestParallelBootstrapMatchesSerialKModes(t *testing.T) {
	ds := bootstrapWorkload(t)
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
	// boot=0 names the full-scan bootstrap, the only one.
	for _, upd := range []core.UpdateMode{core.UpdateImmediate, core.UpdateDeferred} {
		for _, workers := range []int{1, 4} {
			if workers > 1 && upd != core.UpdateDeferred {
				continue // rejected by core.Run
			}
			name := fmt.Sprintf("boot=0/upd=%d/w=%d", upd, workers)
			t.Run(name, func(t *testing.T) {
				assertBootstrapEqual(t, mk, kmodesFingerprint(t), core.Options{
					Update: upd, Workers: workers, MaxIterations: 15,
				})
			})
		}
	}
}

// TestParallelBootstrapMatchesSerialKMeans covers the SimHash/K-Means
// instantiation of the same pipeline.
func TestParallelBootstrapMatchesSerialKMeans(t *testing.T) {
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
	fingerprint := func(s core.Space) []byte {
		var buf bytes.Buffer
		sp := s.(*kmeans.Space)
		for c := 0; c < sp.NumClusters(); c++ {
			fmt.Fprintf(&buf, "%x;", sp.Centroid(c))
		}
		return buf.Bytes()
	}
	// boot=0 names the full-scan bootstrap, the only one.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("boot=0/w=%d", workers), func(t *testing.T) {
			assertBootstrapEqual(t, mk, fingerprint, core.Options{
				Update: core.UpdateDeferred, Workers: workers, MaxIterations: 15,
			})
		})
	}
}

// TestParallelBootstrapExactScan covers the non-accelerated run: the
// bootstrap full scan shards across GOMAXPROCS goroutines and must
// stay bit-identical to the serial scan.
func TestParallelBootstrapExactScan(t *testing.T) {
	ds := bootstrapWorkload(t)
	mk := func() (core.Space, core.Accelerator) {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return s, nil
	}
	assertBootstrapEqual(t, mk, kmodesFingerprint(t), core.Options{
		Workers: 4, MaxIterations: 10,
	})
}

// TestBootstrapPhaseTimings checks the per-phase bootstrap split is
// recorded: every cold accelerated run, at one worker and at two,
// reports non-zero signing, build and assignment phases, and the
// phases never exceed the bootstrap total.
func TestBootstrapPhaseTimings(t *testing.T) {
	ds := bootstrapWorkload(t)
	run := func(workers int) *core.Result {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(s, core.Options{
			Accelerator: a, Workers: workers, Update: core.UpdateDeferred, MaxIterations: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for _, workers := range []int{1, 2} {
		st := run(workers).Stats
		if st.BootstrapSign <= 0 {
			t.Fatalf("w=%d: no signing phase recorded", workers)
		}
		if st.BootstrapBuild <= 0 {
			t.Fatalf("w=%d: no build phase recorded", workers)
		}
		if st.BootstrapAssign <= 0 {
			t.Fatalf("w=%d: no assignment phase recorded", workers)
		}
		if sum := st.BootstrapSign + st.BootstrapBuild + st.BootstrapAssign; sum > st.Bootstrap {
			t.Fatalf("w=%d: phase sum %v exceeds bootstrap %v", workers, sum, st.Bootstrap)
		}
	}
}

// TestBootstrapCancellation checks the bootstrap honours
// Options.Context: a cancelled context stops the bootstrap scan after
// at most one poll interval per set-up worker — one per GOMAXPROCS,
// whatever Options.Workers says — instead of completing the whole
// first assignment, and the accelerated pipeline aborts cleanly at a
// phase boundary.
func TestBootstrapCancellation(t *testing.T) {
	const n, k = 40_000, 4
	for _, c := range []struct{ procs, workers int }{{1, 4}, {4, 1}} {
		setProcs(t, c.procs)
		space := &countingSpace{n: n, k: k}
		ctx := newCountdownCtx(1) // pre-bootstrap check passes; first in-scan poll cancels
		_, err := core.Run(space, core.Options{
			Workers: c.workers, SkipCost: true, MaxIterations: 2, Context: ctx,
		})
		if err != context.Canceled {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", c.procs, err)
		}
		// Each set-up worker evaluates at most one poll chunk (1024
		// items × k distances) before observing the cancellation.
		if calls, budget := space.calls.Load(), int64(c.procs)*1024*k; calls > budget {
			t.Fatalf("procs=%d: %d distance calls after cancellation, want ≤ %d", c.procs, calls, budget)
		}
	}

	// Accelerated pipeline: cancellation between phases aborts the run.
	ds := bootstrapWorkload(t)
	s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	_, err = core.Run(s, core.Options{
		Accelerator: a, Workers: 2, Update: core.UpdateDeferred,
		MaxIterations: 2, Context: newCountdownCtx(1),
	})
	if err != context.Canceled {
		t.Fatalf("accelerated: err = %v, want context.Canceled", err)
	}
}

// workerRecorder is a MinHash accelerator that records the worker
// counts Run hands its set-up phases.
type workerRecorder struct {
	*core.MinHashAccelerator
	sign, build int
}

func (a *workerRecorder) SignAll(workers int, stop func() bool) error {
	a.sign = workers
	return a.MinHashAccelerator.SignAll(workers, stop)
}

func (a *workerRecorder) BuildFrozen(workers int) error {
	a.build = workers
	return a.MinHashAccelerator.BuildFrozen(workers)
}

// TestBootstrapWorkersFollowGOMAXPROCS checks that the set-up's worker
// count is the host's, not the passes': signing and the build run on
// GOMAXPROCS goroutines under immediate updates (Workers 0 or 1) and
// under deferred updates with more pass workers alike.
func TestBootstrapWorkersFollowGOMAXPROCS(t *testing.T) {
	setProcs(t, 3)
	ds := bootstrapWorkload(t)
	for _, opts := range []core.Options{
		{Workers: 0},
		{Workers: 1},
		{Workers: 4, Update: core.UpdateDeferred},
	} {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		mh, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		a := &workerRecorder{MinHashAccelerator: mh}
		opts.Accelerator, opts.MaxIterations = a, 2
		if _, err := core.Run(s, opts); err != nil {
			t.Fatal(err)
		}
		if a.sign != 3 || a.build != 3 {
			t.Fatalf("Workers %d, update %d: SignAll got %d workers, BuildFrozen %d, want 3 (GOMAXPROCS)",
				opts.Workers, opts.Update, a.sign, a.build)
		}
	}
}

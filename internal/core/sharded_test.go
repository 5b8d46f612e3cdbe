package core_test

import (
	"bytes"
	"fmt"
	"testing"

	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// The index has one shard, and Run ignores the deprecated
// Options.Shards, which the benchmark still sets (to 4 on its K-Modes
// workloads). The tests below pin that: a run at any Shards value is
// the Shards=1 run.

// assertShardsEqual runs the same configuration at every given shard
// count, with Shards=1 as reference, and asserts bit-identical
// outcomes: assignments, per-iteration moves, costs and shortlist
// totals, convergence, and final centroids. Each count is also run
// against the scalar kernels (ScalarKernels, checking the unrolled
// distance/signing loops), which must match the reference too.
func assertShardsEqual(t *testing.T, mk func() (core.Space, core.Accelerator), fingerprint func(core.Space) []byte, opts core.Options, shardCounts []int) {
	t.Helper()
	run := func(shards int, mut func(*core.Options)) (*core.Result, []byte) {
		o := core.WithShards(opts, shards)
		space, accel := mk()
		o.Accelerator = accel
		if mut != nil {
			mut(&o)
		}
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, fingerprint(space)
	}
	ref, refCentroids := run(1, nil)
	compare := func(label string, got *core.Result, gotCentroids []byte) {
		t.Helper()
		for i := range ref.Assign {
			if ref.Assign[i] != got.Assign[i] {
				t.Fatalf("%s: assign[%d] = %d, reference %d", label, i, got.Assign[i], ref.Assign[i])
			}
		}
		if got.Stats.Converged != ref.Stats.Converged {
			t.Fatalf("%s: converged %v, reference %v", label, got.Stats.Converged, ref.Stats.Converged)
		}
		if len(got.Stats.Iterations) != len(ref.Stats.Iterations) {
			t.Fatalf("%s: %d iterations, reference %d",
				label, len(got.Stats.Iterations), len(ref.Stats.Iterations))
		}
		for i := range ref.Stats.Iterations {
			a, b := ref.Stats.Iterations[i], got.Stats.Iterations[i]
			if a.Moves != b.Moves {
				t.Fatalf("%s iteration %d: %d moves, reference %d", label, i+1, b.Moves, a.Moves)
			}
			if a.Cost != b.Cost {
				t.Fatalf("%s iteration %d: cost %v, reference %v", label, i+1, b.Cost, a.Cost)
			}
			if a.CandidatesTotal != b.CandidatesTotal {
				t.Fatalf("%s iteration %d: %d candidates, reference %d",
					label, i+1, b.CandidatesTotal, a.CandidatesTotal)
			}
		}
		if !bytes.Equal(refCentroids, gotCentroids) {
			t.Fatalf("%s: final centroids differ from the Shards=1 reference", label)
		}
	}
	for _, shards := range shardCounts {
		if shards != 1 {
			got, gotCentroids := run(shards, nil)
			compare(fmt.Sprintf("shards=%d", shards), got, gotCentroids)
		}
		scalarRun, scalarCentroids := run(shards, func(o *core.Options) { o.Oracles.ScalarKernels = true })
		compare(fmt.Sprintf("shards=%d/scalar-kernels", shards), scalarRun, scalarCentroids)
	}
}

// TestShardInvarianceKModes: MH-K-Modes runs must be bit-identical
// across Shards ∈ {1, 2, 4} for both worker counts.
func TestShardInvarianceKModes(t *testing.T) {
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
	for _, workers := range []int{1, 4} {
		upd := core.UpdateImmediate
		if workers > 1 {
			upd = core.UpdateDeferred
		}
		t.Run(fmt.Sprintf("boot=0/w=%d", workers), func(t *testing.T) {
			assertShardsEqual(t, mk, kmodesFingerprint(t), core.Options{
				Update: upd, Workers: workers, MaxIterations: 15,
			}, []int{1, 2, 4})
		})
	}
}

// TestShardInvarianceKMeans covers the SimHash/K-Means instantiation
// of the same matrix.
func TestShardInvarianceKMeans(t *testing.T) {
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
	// boot=0 names the full-scan bootstrap, the only one.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("boot=0/w=%d", workers), func(t *testing.T) {
			assertShardsEqual(t, mk, kmeansFingerprint, core.Options{
				Update: core.UpdateDeferred, Workers: workers, MaxIterations: 15,
			}, []int{1, 2, 4})
		})
	}
}

// TestShardInvarianceSerialOracle crosses the Shards setting with the
// serial bootstrap oracle: the per-item sign+insert path must ignore it
// too.
func TestShardInvarianceSerialOracle(t *testing.T) {
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
	t.Run("boot=0", func(t *testing.T) {
		assertShardsEqual(t, mk, kmodesFingerprint(t), core.Options{
			MaxIterations: 12, Oracles: core.Oracles{DisableParallelBootstrap: true},
		}, []int{1, 4})
	})
}

// TestShardStatsRecorded checks what a run at Shards=4 records: every
// non-timing runstats field equals the Shards=1 run's, iterations
// included, and the accelerator holds one frozen index over every item.
func TestShardStatsRecorded(t *testing.T) {
	ds := bootstrapWorkload(t)
	run := func(shards int) (*core.Result, *core.MinHashAccelerator) {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(s, core.WithShards(core.Options{Accelerator: a, MaxIterations: 5}, shards))
		if err != nil {
			t.Fatal(err)
		}
		return res, a
	}
	want, _ := run(1)
	got, a := run(4)
	if diff := statsDiff(want.Stats, got.Stats, nil); diff != "" {
		t.Fatalf("runstats at Shards=4 differ from Shards=1:\n%s", diff)
	}
	if ix := a.Index(); !ix.Frozen() || ix.NumInserted() != ds.NumItems() {
		t.Fatalf("index frozen %v with %d items, want one frozen index over %d", ix.Frozen(), ix.NumInserted(), ds.NumItems())
	}
}

// TestShardsIgnoredWithoutCapability checks Options.Shards is a no-op
// for an accelerator without an index: the run at Shards=4 matches the
// run without it.
func TestShardsIgnoredWithoutCapability(t *testing.T) {
	ds := bootstrapWorkload(t)
	run := func(shards int) *core.Result {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(s, core.WithShards(core.Options{
			Accelerator: &fixedShortlistAccel{k: 30}, MaxIterations: 3,
		}, shards))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got, want := run(4), run(0)
	for i := range want.Assign {
		if got.Assign[i] != want.Assign[i] {
			t.Fatalf("assign[%d] = %d at Shards=4, %d without", i, got.Assign[i], want.Assign[i])
		}
	}
	if len(got.Stats.Iterations) != len(want.Stats.Iterations) {
		t.Fatalf("%d iterations at Shards=4, %d without", len(got.Stats.Iterations), len(want.Stats.Iterations))
	}
}

// fixedShortlistAccel always shortlists every cluster (no index, no
// block queries — the minimal Accelerator surface).
type fixedShortlistAccel struct {
	k   int
	buf []int32
}

func (a *fixedShortlistAccel) Reset(k int) error {
	a.k = k
	a.buf = make([]int32, k)
	for i := range a.buf {
		a.buf[i] = int32(i)
	}
	return nil
}
func (a *fixedShortlistAccel) Insert(int32) error { return nil }
func (a *fixedShortlistAccel) NewQuerier() core.Querier {
	return fixedShortlistQuerier{buf: a.buf}
}

type fixedShortlistQuerier struct{ buf []int32 }

func (q fixedShortlistQuerier) Candidates(int32, []int32) []int32 { return q.buf }

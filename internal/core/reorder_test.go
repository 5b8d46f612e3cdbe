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

// assertReorderEqual runs the same configuration twice — once with the
// locality-reordered index build (the default) and once with
// DisableReorder (the original-order oracle) — and asserts
// bit-identical outcomes in original-ID space: assignments,
// per-iteration moves, costs and shortlist totals, convergence, and
// the final centroids.
func assertReorderEqual(t *testing.T, mk func() (core.Space, core.Accelerator), fingerprint func(core.Space) []byte, opts core.Options) (reordered *core.Result) {
	t.Helper()
	run := func(disable bool) (*core.Result, []byte) {
		o := opts
		o.DisableReorder = disable
		space, accel := mk()
		o.Accelerator = accel
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, fingerprint(space)
	}
	ord, ordCentroids := run(false)
	ref, refCentroids := run(true)
	if ref.Stats.ReorderTime != 0 {
		t.Fatalf("oracle recorded reorder time %v", ref.Stats.ReorderTime)
	}
	for i := range ref.Assign {
		if ref.Assign[i] != ord.Assign[i] {
			t.Fatalf("assign[%d]: reordered %d, oracle %d", i, ord.Assign[i], ref.Assign[i])
		}
	}
	if ord.Stats.Converged != ref.Stats.Converged {
		t.Fatalf("converged: reordered %v, oracle %v", ord.Stats.Converged, ref.Stats.Converged)
	}
	if len(ord.Stats.Iterations) != len(ref.Stats.Iterations) {
		t.Fatalf("iterations: reordered %d, oracle %d",
			len(ord.Stats.Iterations), len(ref.Stats.Iterations))
	}
	for i := range ref.Stats.Iterations {
		a, b := ref.Stats.Iterations[i], ord.Stats.Iterations[i]
		if a.Moves != b.Moves {
			t.Fatalf("iteration %d moves: reordered %d, oracle %d", i+1, b.Moves, a.Moves)
		}
		if a.Cost != b.Cost {
			t.Fatalf("iteration %d cost: reordered %v, oracle %v", i+1, b.Cost, a.Cost)
		}
		if a.CandidatesTotal != b.CandidatesTotal {
			t.Fatalf("iteration %d candidates: reordered %d, oracle %d",
				i+1, b.CandidatesTotal, a.CandidatesTotal)
		}
		if a.ActiveItems != b.ActiveItems {
			t.Fatalf("iteration %d active items: reordered %d, oracle %d",
				i+1, b.ActiveItems, a.ActiveItems)
		}
	}
	if !bytes.Equal(refCentroids, ordCentroids) {
		t.Fatal("final centroids differ between reordered and original-order builds")
	}
	return ord
}

// TestReorderInvarianceKModes is the headline reorder equivalence
// matrix for MH-K-Modes: full runs on the locality-reordered index
// must be bit-identical (in original-ID space) to the DisableReorder
// oracle across Shards ∈ {1, 2, 4} and workers ∈ {1, 4}.
func TestReorderInvarianceKModes(t *testing.T) {
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
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			upd := core.UpdateImmediate
			if workers > 1 {
				upd = core.UpdateDeferred
			}
			t.Run(fmt.Sprintf("shards=%d/w=%d", shards, workers), func(t *testing.T) {
				res := assertReorderEqual(t, mk, kmodesFingerprint(t), core.Options{
					Update: upd, Workers: workers, Shards: shards,
					MaxIterations: 15,
				})
				if res.Stats.ReorderTime <= 0 {
					t.Fatal("reordered run recorded no reorder time")
				}
				if shards > 1 && res.Stats.ShardLocalCands <= 0 {
					t.Fatal("reordered sharded run recorded no shard-local candidates")
				}
			})
		}
	}
}

// TestReorderInvarianceKMeans covers the SimHash/K-Means instantiation
// of the same matrix (the reorder stage lives in the shared sharded
// index base, so both accelerators must honour the oracle).
func TestReorderInvarianceKMeans(t *testing.T) {
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
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/w=%d", shards, workers), func(t *testing.T) {
				assertReorderEqual(t, mk, fingerprint, core.Options{
					Update: core.UpdateDeferred, Workers: workers, Shards: shards,
					MaxIterations: 15,
				})
			})
		}
	}
}

// TestReorderOracleCrosses pins the reorder oracle against the other
// hot-path toggles it interacts with: the active filter off (full
// passes query every item) and the key-probe fan-out (foreign slots
// off). Every combination must still match the DisableReorder oracle
// bit for bit. Per-item live queries on a reordered index are covered
// by TestPassMatchesPerItem.
func TestReorderOracleCrosses(t *testing.T) {
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
	muts := map[string]func(*core.Options){
		"no-active-filter": func(o *core.Options) { o.DisableActiveFilter = true },
		"no-foreign-slots": func(o *core.Options) { o.DisableForeignSlots = true },
	}
	for name, mut := range muts {
		t.Run(name, func(t *testing.T) {
			opts := core.Options{Shards: 4, MaxIterations: 12}
			mut(&opts)
			assertReorderEqual(t, mk, kmodesFingerprint(t), opts)
		})
	}
}

// TestReorderDisabledPaths checks the layouts that must never reorder:
// the chaos-spec backend fan-out (replay merges assume identity order)
// and the seeded bootstrap (map-built index). Both must run clean and
// record zero reorder time.
func TestReorderDisabledPaths(t *testing.T) {
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
	cases := map[string]core.Options{
		"chaos-spec": {Shards: 4, MaxIterations: 8, ChaosSpec: "seed=1"},
		"seeded":     {Shards: 4, MaxIterations: 8, Bootstrap: core.BootstrapSeeded},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			space, accel := mk()
			opts.Accelerator = accel
			res, err := core.Run(space, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.ReorderTime != 0 {
				t.Fatalf("%s run recorded reorder time %v", name, res.Stats.ReorderTime)
			}
			if perm, inv := accel.(core.ReorderMapper).ReorderMap(); perm != nil || inv != nil {
				t.Fatalf("%s run built a reordered index", name)
			}
		})
	}
}

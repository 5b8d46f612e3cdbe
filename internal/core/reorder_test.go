package core_test

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// The index is built in original item order. The deprecated reorder
// and shard capabilities (ReorderConfigurer, ReorderMapper,
// ShardedIndexer) stay declared for the benchmark module, and Run must
// not consult them. The tests below offer them on an accelerator, with
// a permutation that would scramble every result if it were applied,
// and require runs bit-identical to the plain accelerator's.

// reorderOffer implements the deprecated reorder and shard
// capabilities and counts the calls it receives.
type reorderOffer struct {
	n     int
	calls *atomic.Int64
}

func (r reorderOffer) SetReorder(bool) { r.calls.Add(1) }
func (r reorderOffer) SetShards(int)   { r.calls.Add(1) }

// ReorderMap returns the reversal permutation.
func (r reorderOffer) ReorderMap() (perm, inv []int32) {
	r.calls.Add(1)
	perm = make([]int32, r.n)
	for i := range perm {
		perm[i] = int32(r.n - 1 - i)
	}
	return perm, perm
}

// reorderingMinHash and reorderingSimHash offer the deprecated
// capabilities beside everything their accelerator implements.
type reorderingMinHash struct {
	*core.MinHashAccelerator
	reorderOffer
}

type reorderingSimHash struct {
	*simhash.Accelerator
	reorderOffer
}

// assertReorderEqual runs the same configuration twice — once on the
// plain accelerator and once with wrap offering the deprecated
// capabilities — and asserts the wrapped one received no call and the
// outcomes are bit-identical: assignments, per-iteration moves, costs,
// shortlist totals and evaluated items, convergence, and the final
// centroids.
func assertReorderEqual(t *testing.T, mk func() (core.Space, core.Accelerator), wrap func(core.Accelerator, reorderOffer) core.Accelerator, fingerprint func(core.Space) []byte, opts core.Options) {
	t.Helper()
	var calls atomic.Int64
	run := func(offer bool) (*core.Result, []byte) {
		o := opts
		space, accel := mk()
		if offer {
			accel = wrap(accel, reorderOffer{n: space.NumItems(), calls: &calls})
			if !core.OffersRetiredCapabilities(accel) {
				t.Fatalf("%T does not offer the deprecated capabilities", accel)
			}
		}
		o.Accelerator = accel
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, fingerprint(space)
	}
	ref, refCentroids := run(false)
	got, gotCentroids := run(true)
	if n := calls.Load(); n != 0 {
		t.Fatalf("Run called the deprecated reorder capabilities %d times", n)
	}
	for i := range ref.Assign {
		if ref.Assign[i] != got.Assign[i] {
			t.Fatalf("assign[%d]: offered %d, plain %d", i, got.Assign[i], ref.Assign[i])
		}
	}
	if got.Stats.Converged != ref.Stats.Converged {
		t.Fatalf("converged: offered %v, plain %v", got.Stats.Converged, ref.Stats.Converged)
	}
	if len(got.Stats.Iterations) != len(ref.Stats.Iterations) {
		t.Fatalf("iterations: offered %d, plain %d", len(got.Stats.Iterations), len(ref.Stats.Iterations))
	}
	for i := range ref.Stats.Iterations {
		a, b := ref.Stats.Iterations[i], got.Stats.Iterations[i]
		if a.Moves != b.Moves || a.Cost != b.Cost || a.CandidatesTotal != b.CandidatesTotal || a.ActiveItems != b.ActiveItems {
			t.Fatalf("iteration %d: offered (moves %d, cost %v, cands %d, eval %d), plain (moves %d, cost %v, cands %d, eval %d)",
				i+1, b.Moves, b.Cost, b.CandidatesTotal, b.ActiveItems, a.Moves, a.Cost, a.CandidatesTotal, a.ActiveItems)
		}
	}
	if !bytes.Equal(refCentroids, gotCentroids) {
		t.Fatal("final centroids differ between the offered and the plain accelerator")
	}
}

func wrapMinHash(a core.Accelerator, r reorderOffer) core.Accelerator {
	return reorderingMinHash{a.(*core.MinHashAccelerator), r}
}

func wrapSimHash(a core.Accelerator, r reorderOffer) core.Accelerator {
	return reorderingSimHash{a.(*simhash.Accelerator), r}
}

// reorderKModesInput builds the 600-item MH-K-Modes pair the K-Modes
// reorder tests run over.
func reorderKModesInput(t *testing.T) func() (core.Space, core.Accelerator) {
	ds := bootstrapWorkload(t)
	return func() (core.Space, core.Accelerator) {
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
}

// TestReorderInvarianceKModes is the MH-K-Modes matrix: runs at the
// deprecated Shards ∈ {1, 2, 4} and workers ∈ {1, 4}.
func TestReorderInvarianceKModes(t *testing.T) {
	mk := reorderKModesInput(t)
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			upd := core.UpdateImmediate
			if workers > 1 {
				upd = core.UpdateDeferred
			}
			t.Run(fmt.Sprintf("shards=%d/w=%d", shards, workers), func(t *testing.T) {
				assertReorderEqual(t, mk, wrapMinHash, kmodesFingerprint(t), core.WithShards(core.Options{
					Update: upd, Workers: workers, MaxIterations: 15,
				}, shards))
			})
		}
	}
}

// TestReorderInvarianceKMeans covers the SimHash/K-Means
// instantiation of the same matrix.
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
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("shards=%d/w=%d", shards, workers), func(t *testing.T) {
				assertReorderEqual(t, mk, wrapSimHash, kmeansFingerprint, core.WithShards(core.Options{
					Update: core.UpdateDeferred, Workers: workers, MaxIterations: 15,
				}, shards))
			})
		}
	}
}

// TestReorderOracleCrosses crosses the offered capabilities with the
// active filter off (full passes query every item).
func TestReorderOracleCrosses(t *testing.T) {
	mk := reorderKModesInput(t)
	muts := map[string]func(*core.Options){
		"no-active-filter": func(o *core.Options) { o.Oracles.DisableActiveFilter = true },
	}
	for name, mut := range muts {
		t.Run(name, func(t *testing.T) {
			opts := core.WithShards(core.Options{MaxIterations: 12}, 4)
			mut(&opts)
			assertReorderEqual(t, mk, wrapMinHash, kmodesFingerprint(t), opts)
		})
	}
}

// TestReorderDisabledPaths covers the serial reference, one worker
// with immediate updates, which never reordered either.
func TestReorderDisabledPaths(t *testing.T) {
	mk := reorderKModesInput(t)
	cases := map[string]core.Options{
		"serial": core.WithShards(core.Options{MaxIterations: 8, Workers: 1}, 4),
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			assertReorderEqual(t, mk, wrapMinHash, kmodesFingerprint(t), opts)
		})
	}
}

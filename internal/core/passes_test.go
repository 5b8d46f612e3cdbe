package core_test

import (
	"fmt"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// noBlockAccel hides CandidatesBlock from the MinHash accelerator's
// queriers, so its passes go through the driver's per-item adapter;
// embedding forwards every other capability.
type noBlockAccel struct{ *core.MinHashAccelerator }

func (a noBlockAccel) NewQuerier() core.Querier {
	return noBlockQuerier{a.MinHashAccelerator.NewQuerier()}
}

type noBlockQuerier struct{ core.Querier }

// countingAccel wraps the MinHash accelerator so its queriers count
// the block positions handed to CandidatesBlock; embedding forwards
// every other capability.
type countingAccel struct {
	*core.MinHashAccelerator
	positions *int64
}

func (a countingAccel) NewQuerier() core.Querier {
	return countingQuerier{a.MinHashAccelerator.NewQuerier().(*core.IndexQuerier), a.positions}
}

type countingQuerier struct {
	*core.IndexQuerier
	positions *int64
}

func (q countingQuerier) CandidatesBlock(items []int32, assign []int32, emit func(pos int, shortlist []int32)) {
	*q.positions += int64(len(items))
	q.IndexQuerier.CandidatesBlock(items, assign, emit)
}

// assertMatchesPerItem runs opts through core.Run and through the
// per-item reference and asserts bit-identical assignments and
// per-iteration moves, comparisons, shortlist totals, evaluated items
// and costs. It returns the core.Run result.
func assertMatchesPerItem(t *testing.T, mk func() (core.Space, core.Accelerator), opts core.Options) *core.Result {
	t.Helper()
	run := func(fn func(core.Space, core.Options) (*core.Result, error)) *core.Result {
		space, accel := mk()
		o := opts
		o.Accelerator = accel
		res, err := fn(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	got, ref := run(core.Run), run(core.RunPerItem)
	for i := range ref.Assign {
		if got.Assign[i] != ref.Assign[i] {
			t.Fatalf("assign[%d]: block %d, per-item %d", i, got.Assign[i], ref.Assign[i])
		}
	}
	if got.Stats.Converged != ref.Stats.Converged || len(got.Stats.Iterations) != len(ref.Stats.Iterations) {
		t.Fatalf("block converged=%v after %d iterations, per-item converged=%v after %d",
			got.Stats.Converged, len(got.Stats.Iterations), ref.Stats.Converged, len(ref.Stats.Iterations))
	}
	for i := range ref.Stats.Iterations {
		a, b := got.Stats.Iterations[i], ref.Stats.Iterations[i]
		if a.Moves != b.Moves || a.Comparisons != b.Comparisons || a.CandidatesTotal != b.CandidatesTotal ||
			a.ActiveItems != b.ActiveItems || a.Cost != b.Cost {
			t.Fatalf("iteration %d: block (moves %d, comps %d, cands %d, eval %d, cost %v), per-item (moves %d, comps %d, cands %d, eval %d, cost %v)",
				i+1, a.Moves, a.Comparisons, a.CandidatesTotal, a.ActiveItems, a.Cost,
				b.Moves, b.Comparisons, b.CandidatesTotal, b.ActiveItems, b.Cost)
		}
	}
	return got
}

// TestImmediateBlocksRunWhole pins what an immediate pass gathers.
// Shortlists resolve at emit time, so an unfiltered pass runs every
// block whole: the positions handed to CandidatesBlock equal the items
// evaluated. A filtered pass keeps one cut — re-gathering after a
// mover that woke an item the gather skipped — so it gathers more
// positions than it evaluates, which proves the cut fired, and must
// still match the per-item reference. The workload is noisy enough
// (weak cluster rules, k twice the generator's clusters) that late
// filtered passes are sparse and still move items.
func TestImmediateBlocksRunWhole(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{
		Items: 600, Clusters: 30, Attrs: 16, Domain: 200,
		MinRuleFrac: 0.3, MaxRuleFrac: 0.5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, active := range []bool{false, true} {
		t.Run(fmt.Sprintf("active=%v", active), func(t *testing.T) {
			var positions int64
			mk := func() (core.Space, core.Accelerator) {
				s, err := kmodes.NewSpace(ds, kmodes.Config{K: 60, Seed: 5})
				if err != nil {
					t.Fatal(err)
				}
				a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 16, Rows: 4}, 7)
				if err != nil {
					t.Fatal(err)
				}
				return s, countingAccel{a, &positions}
			}
			res := assertMatchesPerItem(t, mk, core.Options{
				Update: core.UpdateImmediate, Shards: 2,
				DisableActiveFilter: !active, MaxIterations: 15,
			})
			var evaluated int64
			for _, it := range res.Stats.Iterations {
				evaluated += int64(it.ActiveItems)
			}
			if !active && positions != evaluated {
				t.Fatalf("unfiltered: %d positions gathered for %d items evaluated, want equal", positions, evaluated)
			}
			if active && positions <= evaluated {
				t.Fatalf("filtered: %d positions gathered for %d items evaluated: no activation cut fired", positions, evaluated)
			}
		})
	}
}

// TestPassMatchesPerItem is the equivalence test for the block pass
// loop: every configuration must match the per-item reference bit for
// bit — MinHash K-Modes and SimHash K-Means, immediate updates and
// deferred ones at one and four workers, reordering and the active
// filter on and off, both tie-breaks. The noblock accelerator's block
// runs go through the per-item adapter.
func TestPassMatchesPerItem(t *testing.T) {
	ds := bootstrapWorkload(t)
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{Points: 800, Clusters: 40, Dim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	kmodesRun := func() (*kmodes.Space, *core.MinHashAccelerator) {
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
	spaces := []struct {
		name string
		mk   func() (core.Space, core.Accelerator)
	}{
		{"kmodes", func() (core.Space, core.Accelerator) { return kmodesRun() }},
		{"kmeans", func() (core.Space, core.Accelerator) {
			s, err := kmeans.NewSpace(pts, 8, kmeans.Config{K: 40, Seed: 9})
			if err != nil {
				t.Fatal(err)
			}
			a, err := simhash.NewAccelerator(s, lsh.Params{Bands: 8, Rows: 8}, 21)
			if err != nil {
				t.Fatal(err)
			}
			return s, a
		}},
		{"noblock", func() (core.Space, core.Accelerator) {
			s, a := kmodesRun()
			return s, noBlockAccel{a}
		}},
	}
	updates := []struct {
		name    string
		upd     core.UpdateMode
		workers int
	}{
		{"immediate", core.UpdateImmediate, 1},
		{"deferred-w1", core.UpdateDeferred, 1},
		{"deferred-w4", core.UpdateDeferred, 4},
	}
	for _, sp := range spaces {
		for _, u := range updates {
			for _, reorder := range []bool{true, false} {
				for _, active := range []bool{true, false} {
					for _, tb := range []core.TieBreak{core.TieBreakPreferCurrent, core.TieBreakLowestIndex} {
						name := fmt.Sprintf("%s/%s/reorder=%v/active=%v/tb=%d", sp.name, u.name, reorder, active, tb)
						t.Run(name, func(t *testing.T) {
							assertMatchesPerItem(t, sp.mk, core.Options{
								Update: u.upd, Workers: u.workers, TieBreak: tb, Shards: 2,
								DisableReorder: !reorder, DisableActiveFilter: !active,
								MaxIterations: 15,
							})
						})
					}
				}
			}
		}
	}
}

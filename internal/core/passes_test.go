package core_test

import (
	"fmt"
	"sync"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
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

// querierLog records the shortlist queriers an accelerator hands out
// (parallel pass workers create theirs concurrently), so a test can
// count the cluster summaries its runs read.
type querierLog struct {
	mu sync.Mutex
	qs []*core.IndexQuerier
}

func (l *querierLog) add(q core.Querier) core.Querier {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.qs = append(l.qs, q.(*core.IndexQuerier))
	return q
}

func (l *querierLog) summaryReads() int64 {
	var n int64
	for _, q := range l.qs {
		n += q.SummaryReads()
	}
	return n
}

// loggedMinHash and loggedSimHash log their queriers; embedding
// forwards every other capability.
type loggedMinHash struct {
	*core.MinHashAccelerator
	log *querierLog
}

func (a loggedMinHash) NewQuerier() core.Querier { return a.log.add(a.MinHashAccelerator.NewQuerier()) }

type loggedSimHash struct {
	*simhash.Accelerator
	log *querierLog
}

func (a loggedSimHash) NewQuerier() core.Querier { return a.log.add(a.Accelerator.NewQuerier()) }

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
// runs go through the per-item adapter. The long shapes band with few
// rows, so most buckets pass lsh.SummaryMinLen and the block runs read
// cluster summaries where the per-item reference walks every bucket;
// they run at S=1 and at S=4, where some bands have the
// foreign-emptiness bit clear and reordered merges split buckets into
// runs, under the default tie-break, and each must have read at least
// one summary.
func TestPassMatchesPerItem(t *testing.T) {
	ds := bootstrapWorkload(t)
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{Points: 800, Clusters: 40, Dim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The long shapes' inputs have few large clusters: their buckets
	// pass SummaryMinLen inside each of four shards, and some pass the
	// reorder stage's union cap, so components interleave in original
	// ID and reordered merges split buckets into runs.
	longDs, err := datagen.Generate(datagen.Config{
		Items: 2400, Clusters: 10, Attrs: 16, Domain: 200,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	longPts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{Points: 600, Clusters: 2, Dim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	kmodesRun := func(ds *dataset.Dataset, p lsh.Params) (*kmodes.Space, *core.MinHashAccelerator) {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewMinHashAccelerator(ds, p, 7)
		if err != nil {
			t.Fatal(err)
		}
		return s, a
	}
	kmeansRun := func(pts []float64, k int, p lsh.Params) (*kmeans.Space, *simhash.Accelerator) {
		s, err := kmeans.NewSpace(pts, 8, kmeans.Config{K: k, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		a, err := simhash.NewAccelerator(s, p, 21)
		if err != nil {
			t.Fatal(err)
		}
		return s, a
	}
	spaces := []struct {
		name   string
		mk     func(log *querierLog) (core.Space, core.Accelerator)
		shards []int
		// summarised requires the block runs to read a summary.
		summarised bool
	}{
		{"kmodes", func(*querierLog) (core.Space, core.Accelerator) {
			return kmodesRun(ds, lsh.Params{Bands: 8, Rows: 4})
		}, []int{2}, false},
		{"kmeans", func(*querierLog) (core.Space, core.Accelerator) {
			return kmeansRun(pts, 40, lsh.Params{Bands: 8, Rows: 8})
		}, []int{2}, false},
		{"noblock", func(*querierLog) (core.Space, core.Accelerator) {
			s, a := kmodesRun(ds, lsh.Params{Bands: 8, Rows: 4})
			return s, noBlockAccel{a}
		}, []int{2}, false},
		{"kmodes-long", func(log *querierLog) (core.Space, core.Accelerator) {
			s, a := kmodesRun(longDs, lsh.Params{Bands: 6, Rows: 1})
			return s, loggedMinHash{a, log}
		}, []int{1, 4}, true},
		{"kmeans-long", func(log *querierLog) (core.Space, core.Accelerator) {
			s, a := kmeansRun(longPts, 10, lsh.Params{Bands: 4, Rows: 6})
			return s, loggedSimHash{a, log}
		}, []int{1, 4}, true},
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
		for _, shards := range sp.shards {
			for _, u := range updates {
				for _, reorder := range []bool{true, false} {
					for _, active := range []bool{true, false} {
						for _, tb := range []core.TieBreak{core.TieBreakPreferCurrent, core.TieBreakLowestIndex} {
							if sp.summarised && tb != core.TieBreakPreferCurrent {
								continue // summaries do not depend on the tie-break; the other shapes cover both
							}
							name := fmt.Sprintf("%s/%s/reorder=%v/active=%v/tb=%d", sp.name, u.name, reorder, active, tb)
							if len(sp.shards) > 1 {
								name = fmt.Sprintf("%s/s=%d/%s/reorder=%v/active=%v/tb=%d", sp.name, shards, u.name, reorder, active, tb)
							}
							t.Run(name, func(t *testing.T) {
								log := &querierLog{}
								assertMatchesPerItem(t, func() (core.Space, core.Accelerator) { return sp.mk(log) }, core.Options{
									Update: u.upd, Workers: u.workers, TieBreak: tb, Shards: shards,
									DisableReorder: !reorder, DisableActiveFilter: !active,
									MaxIterations: 15,
								})
								if reads := log.summaryReads(); sp.summarised && reads == 0 {
									t.Fatal("the block runs read no cluster summary")
								}
							})
						}
					}
				}
			}
		}
	}
}

package core_test

import (
	"fmt"
	"sort"
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
// count the cluster summaries its runs read, and checks the runs'
// summary upkeep.
type querierLog struct {
	mu sync.Mutex
	qs []*core.IndexQuerier
	// shared counts the Resummarize calls whose movers shared a long
	// bucket; wrong lists the calls that recomputed a summary other than
	// once per long bucket holding a mover.
	shared int
	wrong  []string
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

// resummarize forwards one summary upkeep call to b and checks that
// it recomputed each long bucket holding a mover exactly once: as many
// summaries as the movers' distinct summary handles.
func (l *querierLog) resummarize(b *core.ShardedIndexBase, items, view []int32) {
	handles := map[int32]bool{}
	held := 0
	b.Index().CandidatesBatch(items, func(_ int, _ []int32, sum int32) {
		if sum >= 0 {
			handles[sum] = true
			held++
		}
	})
	got := b.ResummarizeCounted(items, view)
	l.mu.Lock()
	defer l.mu.Unlock()
	if got != len(handles) {
		l.wrong = append(l.wrong, fmt.Sprintf("%d movers in %d long buckets (%d memberships): %d recomputes",
			len(items), len(handles), held, got))
	}
	if held > len(handles) {
		l.shared++
	}
}

// loggedMinHash and loggedSimHash log their queriers and check their
// summary upkeep; embedding forwards every other capability.
type loggedMinHash struct {
	*core.MinHashAccelerator
	log *querierLog
}

func (a loggedMinHash) NewQuerier() core.Querier { return a.log.add(a.MinHashAccelerator.NewQuerier()) }

func (a loggedMinHash) Resummarize(items, view []int32) {
	a.log.resummarize(&a.ShardedIndexBase, items, view)
}

type loggedSimHash struct {
	*simhash.Accelerator
	log *querierLog
}

func (a loggedSimHash) NewQuerier() core.Querier { return a.log.add(a.Accelerator.NewQuerier()) }

func (a loggedSimHash) Resummarize(items, view []int32) {
	a.log.resummarize(&a.ShardedIndexBase, items, view)
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
				Update: core.UpdateImmediate, MaxIterations: 15,
				Oracles: core.Oracles{DisableActiveFilter: !active},
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

// localityOrder returns the item order that makes each generated
// cluster contiguous (stable in original order). Feeding a run its
// items in this order gives the pass loop buckets whose members are
// runs of neighbouring IDs.
func localityOrder(labels []int32) []int {
	order := make([]int, len(labels))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return labels[order[a]] < labels[order[b]] })
	return order
}

// reorderDataset returns ds with its rows (and labels) in the given
// order.
func reorderDataset(t *testing.T, ds *dataset.Dataset, order []int) *dataset.Dataset {
	t.Helper()
	values := make([]dataset.Value, 0, len(ds.Values()))
	labels := make([]int32, 0, len(order))
	for _, i := range order {
		values = append(values, ds.Row(i)...)
		labels = append(labels, ds.Labels()[i])
	}
	out, err := dataset.New(ds.AttrNames(), values, labels, ds.Dict())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// reorderPoints returns the dim-wide rows of pts in the given order.
func reorderPoints(pts []float64, dim int, order []int) []float64 {
	out := make([]float64, 0, len(pts))
	for _, i := range order {
		out = append(out, pts[i*dim:(i+1)*dim]...)
	}
	return out
}

// TestPassMatchesPerItem is the equivalence test for the block pass
// loop: every configuration must match the per-item reference bit for
// bit — MinHash K-Modes and SimHash K-Means, immediate updates and
// deferred ones at one and four workers, items in generated order and
// in locality order (reorder=true: each generated cluster contiguous),
// the active filter on and off, both tie-breaks. The noblock
// accelerator's block runs go through the per-item adapter. The long
// shapes band with few rows, so most buckets pass lsh.SummaryMinLen and
// the block runs read cluster summaries where the per-item reference
// walks every bucket; they run under the default tie-break, and each
// must have read at least one summary. They also run with the
// deprecated Options.Shards at 1 and 4, which Run ignores (the
// benchmark still sets it). Their summary upkeep must recompute each
// long bucket holding a mover once per report, and a deferred run must
// have folded a pass whose movers shared a long bucket, recomputed once
// for all of them.
func TestPassMatchesPerItem(t *testing.T) {
	ds := bootstrapWorkload(t)
	pts, ptsLabels, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{Points: 800, Clusters: 40, Dim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// The long shapes' inputs have few large clusters, so their buckets
	// pass SummaryMinLen.
	longDs, err := datagen.Generate(datagen.Config{
		Items: 2400, Clusters: 10, Attrs: 16, Domain: 200,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	longPts, longPtsLabels, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{Points: 600, Clusters: 2, Dim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Each input in generated order (index 0) and in locality order
	// (index 1).
	dsIn := [2]*dataset.Dataset{ds, reorderDataset(t, ds, localityOrder(ds.Labels()))}
	longDsIn := [2]*dataset.Dataset{longDs, reorderDataset(t, longDs, localityOrder(longDs.Labels()))}
	ptsIn := [2][]float64{pts, reorderPoints(pts, 8, localityOrder(ptsLabels))}
	longPtsIn := [2][]float64{longPts, reorderPoints(longPts, 8, localityOrder(longPtsLabels))}
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
		name string
		// mk builds the space and accelerator over the input in
		// generated order (in=0) or locality order (in=1).
		mk     func(log *querierLog, in int) (core.Space, core.Accelerator)
		shards []int
		// summarised requires the block runs to read a summary.
		summarised bool
	}{
		{"kmodes", func(_ *querierLog, in int) (core.Space, core.Accelerator) {
			return kmodesRun(dsIn[in], lsh.Params{Bands: 8, Rows: 4})
		}, []int{1}, false},
		{"kmeans", func(_ *querierLog, in int) (core.Space, core.Accelerator) {
			return kmeansRun(ptsIn[in], 40, lsh.Params{Bands: 8, Rows: 8})
		}, []int{1}, false},
		{"noblock", func(_ *querierLog, in int) (core.Space, core.Accelerator) {
			s, a := kmodesRun(dsIn[in], lsh.Params{Bands: 8, Rows: 4})
			return s, noBlockAccel{a}
		}, []int{1}, false},
		{"kmodes-long", func(log *querierLog, in int) (core.Space, core.Accelerator) {
			s, a := kmodesRun(longDsIn[in], lsh.Params{Bands: 6, Rows: 1})
			return s, loggedMinHash{a, log}
		}, []int{1, 4}, true},
		{"kmeans-long", func(log *querierLog, in int) (core.Space, core.Accelerator) {
			s, a := kmeansRun(longPtsIn[in], 10, lsh.Params{Bands: 4, Rows: 6})
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
							in := 0
							if reorder {
								in = 1
							}
							t.Run(name, func(t *testing.T) {
								log := &querierLog{}
								assertMatchesPerItem(t, func() (core.Space, core.Accelerator) { return sp.mk(log, in) }, core.WithShards(core.Options{
									Update: u.upd, Workers: u.workers, TieBreak: tb, MaxIterations: 15,
									Oracles: core.Oracles{DisableActiveFilter: !active},
								}, shards))
								if reads := log.summaryReads(); sp.summarised && reads == 0 {
									t.Fatal("the block runs read no cluster summary")
								}
								if len(log.wrong) > 0 {
									t.Fatalf("summary upkeep recomputed a bucket other than once per report: %v", log.wrong)
								}
								if sp.summarised && u.upd == core.UpdateDeferred && log.shared == 0 {
									t.Fatal("no deferred pass moved two items sharing a long bucket")
								}
							})
						}
					}
				}
			}
		}
	}
}

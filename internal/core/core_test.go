package core

import (
	"context"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/metrics"
	"lshcluster/internal/runstats"
)

// testWorkload generates a separable synthetic workload plus a K-Modes
// space seeded with one item per true cluster (items 0..k−1 are in
// clusters 0..k−1 by construction of datagen).
func testWorkload(t *testing.T, n, k, m int) (*dataset.Dataset, []int32) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Items: n, Clusters: k, Attrs: m, Domain: 200,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int32, k)
	for c := range seeds {
		seeds[c] = int32(c)
	}
	return ds, seeds
}

func newSpace(t *testing.T, ds *dataset.Dataset, seeds []int32) *kmodes.Space {
	t.Helper()
	s, err := kmodes.NewSpaceFromSeeds(ds, seeds, kmodes.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func purityOf(t *testing.T, ds *dataset.Dataset, assign []int32) float64 {
	t.Helper()
	p, err := metrics.Purity(assign, ds.Labels())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestExactRunRecoversClusters(t *testing.T) {
	ds, seeds := testWorkload(t, 400, 20, 24)
	res, err := Run(newSpace(t, ds, seeds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("exact run did not converge")
	}
	if p := purityOf(t, ds, res.Assign); p < 0.95 {
		t.Fatalf("exact purity = %v, want ≥ 0.95", p)
	}
	// Exact runs consider every cluster for every item.
	for _, it := range res.Stats.Iterations {
		if it.AvgShortlist != float64(20) {
			t.Fatalf("exact avg shortlist = %v, want k=20", it.AvgShortlist)
		}
		if it.Comparisons != int64(400*20) {
			t.Fatalf("exact comparisons = %d, want %d", it.Comparisons, 400*20)
		}
	}
}

func TestAcceleratedMatchesExactQuality(t *testing.T) {
	ds, seeds := testWorkload(t, 400, 20, 24)

	exact, err := Run(newSpace(t, ds, seeds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	accel, err := NewMinHashAccelerator(ds, lsh.Params{Bands: 20, Rows: 2}, 7)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := Run(newSpace(t, ds, seeds), Options{Accelerator: accel})
	if err != nil {
		t.Fatal(err)
	}
	pe := purityOf(t, ds, exact.Assign)
	pm := purityOf(t, ds, mh.Assign)
	if pm < pe-0.05 {
		t.Fatalf("accelerated purity %v much below exact %v", pm, pe)
	}
	// The shortlist must be far below k on separable data.
	last := mh.Stats.Iterations[len(mh.Stats.Iterations)-1]
	if last.AvgShortlist >= 10 {
		t.Fatalf("avg shortlist = %v, expected ≪ k=20", last.AvgShortlist)
	}
	if !mh.Stats.Converged {
		t.Fatal("accelerated run did not converge")
	}
}

// allClustersAccel is an Accelerator whose shortlist is always the full
// cluster set: the accelerated driver must then replicate the exact
// algorithm assignment-for-assignment.
type allClustersAccel struct {
	k   int
	buf []int32
}

func (a *allClustersAccel) Reset(k int) error {
	a.k = k
	a.buf = make([]int32, k)
	for i := range a.buf {
		a.buf[i] = int32(i)
	}
	return nil
}
func (a *allClustersAccel) SignAll(int, func() bool) error { return nil }
func (a *allClustersAccel) BuildFrozen(int) error          { return nil }
func (a *allClustersAccel) NewQuerier() Querier {
	return allQuerier{buf: a.buf}
}

type allQuerier struct{ buf []int32 }

func (q allQuerier) Candidates(int32, []int32) []int32 { return q.buf }

func TestFullShortlistEqualsExact(t *testing.T) {
	ds, seeds := testWorkload(t, 300, 15, 20)
	exact, err := Run(newSpace(t, ds, seeds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	mh, err := Run(newSpace(t, ds, seeds), Options{Accelerator: &allClustersAccel{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact.Assign) != len(mh.Assign) {
		t.Fatal("assignment lengths differ")
	}
	for i := range exact.Assign {
		if exact.Assign[i] != mh.Assign[i] {
			t.Fatalf("item %d: exact=%d accelerated-with-full-shortlist=%d",
				i, exact.Assign[i], mh.Assign[i])
		}
	}
	if exact.Stats.NumIterations() != mh.Stats.NumIterations() {
		t.Fatalf("iteration counts differ: %d vs %d",
			exact.Stats.NumIterations(), mh.Stats.NumIterations())
	}
}

func TestShortlistContainsCurrentCluster(t *testing.T) {
	ds, seeds := testWorkload(t, 200, 10, 20)
	accel, err := NewMinHashAccelerator(ds, lsh.Params{Bands: 4, Rows: 4}, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(newSpace(t, ds, seeds), Options{Accelerator: accel, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	q := accel.NewQuerier()
	for i := 0; i < ds.NumItems(); i++ {
		cands := q.Candidates(int32(i), res.Assign)
		found := false
		for _, c := range cands {
			if c == res.Assign[i] {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("item %d: own cluster %d missing from shortlist %v",
				i, res.Assign[i], cands)
		}
	}
}

func TestDeferredUpdateConverges(t *testing.T) {
	ds, seeds := testWorkload(t, 300, 15, 20)
	accel, err := NewMinHashAccelerator(ds, lsh.Params{Bands: 10, Rows: 2}, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(newSpace(t, ds, seeds), Options{
		Accelerator: accel,
		Update:      UpdateDeferred,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("deferred-update run did not converge")
	}
	if p := purityOf(t, ds, res.Assign); p < 0.9 {
		t.Fatalf("deferred purity = %v", p)
	}
}

func TestParallelDeferredMatchesSequentialDeferred(t *testing.T) {
	ds, seeds := testWorkload(t, 300, 15, 20)
	mk := func(workers int) []int32 {
		accel, err := NewMinHashAccelerator(ds, lsh.Params{Bands: 10, Rows: 2}, 5)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(newSpace(t, ds, seeds), Options{
			Accelerator: accel,
			Update:      UpdateDeferred,
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Assign
	}
	seq := mk(1)
	par := mk(4)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("item %d differs between sequential and parallel deferred runs", i)
		}
	}
}

func TestParallelExactMatchesSequentialExact(t *testing.T) {
	ds, seeds := testWorkload(t, 300, 15, 20)
	seq, err := Run(newSpace(t, ds, seeds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(newSpace(t, ds, seeds), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq.Assign {
		if seq.Assign[i] != par.Assign[i] {
			t.Fatalf("item %d differs between sequential and parallel exact runs", i)
		}
	}
}

func TestWorkersRequireDeferred(t *testing.T) {
	ds, seeds := testWorkload(t, 100, 5, 20)
	accel, err := NewMinHashAccelerator(ds, lsh.Params{Bands: 5, Rows: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(newSpace(t, ds, seeds), Options{
		Accelerator: accel,
		Update:      UpdateImmediate,
		Workers:     4,
	})
	if err == nil {
		t.Fatal("expected error: immediate updates cannot be parallelised")
	}
}

func TestMaxIterationsCap(t *testing.T) {
	ds, seeds := testWorkload(t, 300, 15, 20)
	res, err := Run(newSpace(t, ds, seeds), Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumIterations() > 1 {
		t.Fatalf("ran %d iterations with cap 1", res.Stats.NumIterations())
	}
}

func TestOnIterationCallback(t *testing.T) {
	ds, seeds := testWorkload(t, 200, 10, 20)
	var seen []runstats.Iteration
	res, err := Run(newSpace(t, ds, seeds), Options{
		OnIteration: func(it runstats.Iteration) { seen = append(seen, it) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != res.Stats.NumIterations() {
		t.Fatalf("callback saw %d iterations, run recorded %d",
			len(seen), res.Stats.NumIterations())
	}
	for i, it := range seen {
		if it.Index != i+1 {
			t.Fatalf("iteration indices out of order: %v", seen)
		}
	}
}

func TestSkipCost(t *testing.T) {
	ds, seeds := testWorkload(t, 100, 5, 20)
	res, err := Run(newSpace(t, ds, seeds), Options{SkipCost: true, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res.Stats.Iterations {
		if it.Cost == it.Cost { // NaN check
			t.Fatalf("cost tracked despite SkipCost: %v", it.Cost)
		}
	}
	res2, err := Run(newSpace(t, ds, seeds), Options{MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range res2.Stats.Iterations {
		if it.Cost != it.Cost {
			t.Fatal("cost missing without SkipCost")
		}
	}
}

func TestCostMonotoneNonIncreasing(t *testing.T) {
	ds, seeds := testWorkload(t, 400, 20, 24)
	res, err := Run(newSpace(t, ds, seeds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Stats.Iterations); i++ {
		prev, cur := res.Stats.Iterations[i-1].Cost, res.Stats.Iterations[i].Cost
		if cur > prev {
			t.Fatalf("exact K-Modes cost rose from %v to %v at iteration %d",
				prev, cur, i+1)
		}
	}
}

func TestContextCancellation(t *testing.T) {
	ds, seeds := testWorkload(t, 200, 10, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(newSpace(t, ds, seeds), Options{Context: ctx}); err == nil {
		t.Fatal("expected cancellation error")
	}
	// Cancel mid-run via the iteration callback: unless the run happens
	// to converge on its very first pass, the next pass must abort.
	ctx2, cancel2 := context.WithCancel(context.Background())
	calls := 0
	_, err := Run(newSpace(t, ds, seeds), Options{
		Context:     ctx2,
		OnIteration: func(runstats.Iteration) { calls++; cancel2() },
	})
	if err == nil && calls > 1 {
		t.Fatal("expected mid-run cancellation error")
	}
	// A background context is a no-op.
	if _, err := Run(newSpace(t, ds, seeds), Options{Context: context.Background()}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptySpaceRejected(t *testing.T) {
	if _, err := Run(emptySpace{}, Options{}); err == nil {
		t.Fatal("expected error for empty space")
	}
}

type emptySpace struct{}

func (emptySpace) NumItems() int                                  { return 0 }
func (emptySpace) NumClusters() int                               { return 0 }
func (emptySpace) Dissimilarity(int, int) float64                 { return 0 }
func (emptySpace) BoundedDissimilarity(int, int, float64) float64 { return 0 }
func (emptySpace) RecomputeCentroids([]int32)                     {}
func (emptySpace) Cost([]int32) float64                           { return 0 }

func TestEarlyAbandonSameResult(t *testing.T) {
	ds, seeds := testWorkload(t, 300, 15, 20)
	plain, err := Run(newSpace(t, ds, seeds), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(newSpace(t, ds, seeds), Options{EarlyAbandon: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain.Assign {
		if plain.Assign[i] != fast.Assign[i] {
			t.Fatalf("early abandon changed assignment of item %d", i)
		}
	}
}

func TestMinHashAcceleratorValidation(t *testing.T) {
	ds, _ := testWorkload(t, 50, 5, 20)
	if _, err := NewMinHashAccelerator(ds, lsh.Params{Bands: 0, Rows: 1}, 1); err == nil {
		t.Fatal("expected params validation error")
	}
	a, err := NewMinHashAccelerator(ds, lsh.Params{Bands: 2, Rows: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SignAll(1, nil); err == nil {
		t.Fatal("expected error signing before Reset")
	}
	if err := a.Reset(0); err == nil {
		t.Fatal("expected error for zero clusters")
	}
}

func TestRunStatsAccounting(t *testing.T) {
	ds, seeds := testWorkload(t, 200, 10, 20)
	accel, err := NewMinHashAccelerator(ds, lsh.Params{Bands: 10, Rows: 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(newSpace(t, ds, seeds), Options{Accelerator: accel})
	if err != nil {
		t.Fatal(err)
	}
	st := &res.Stats
	if st.Bootstrap <= 0 {
		t.Fatal("bootstrap duration not recorded")
	}
	if st.Total() < st.Bootstrap {
		t.Fatal("total smaller than bootstrap")
	}
	last := st.Iterations[len(st.Iterations)-1]
	if last.Moves != 0 {
		t.Fatal("converged run must end with zero moves")
	}
	for _, it := range st.Iterations {
		if it.AvgShortlist <= 0 {
			t.Fatalf("avg shortlist %v not positive", it.AvgShortlist)
		}
		if it.Comparisons <= 0 {
			t.Fatal("comparisons not counted")
		}
	}
}

package kmodes

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
)

// incTestSpace builds a tiny space over explicit rows with the first k
// items as seeds.
func incTestSpace(t *testing.T, rows [][]dataset.Value, k int, policy EmptyClusterPolicy) *Space {
	t.Helper()
	m := len(rows[0])
	values := make([]dataset.Value, 0, len(rows)*m)
	for _, r := range rows {
		values = append(values, r...)
	}
	ds, err := dataset.New(make([]string, m), values, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int32, k)
	for c := range seeds {
		seeds[c] = int32(c)
	}
	s, err := NewSpaceFromSeeds(ds, seeds, Config{EmptyCluster: policy})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestEmptiedClusterKeepsPreviousPassMode pins the subtle KeepMode case:
// when a cluster loses all members during a pass, the batch path keeps
// the mode of the *previous* pass (computed from the then-members),
// while naive FreqTable removal would leave per-attribute leftovers of
// the removal order. FinishPass must restore batch semantics.
func TestEmptiedClusterKeepsPreviousPassMode(t *testing.T) {
	// Cluster 0 members hold values {1, 2} on the single attribute:
	// previous-pass mode is 1 (tie to the smaller value). Removing item
	// 0 (value 1) then item 2 (value 2) would leave a FreqTable
	// leftover of 2.
	rows := [][]dataset.Value{{1}, {9}, {2}}
	s := incTestSpace(t, rows, 2, KeepMode)
	assign := []int32{0, 1, 0}
	s.BeginIncremental(assign, true)
	if got := s.Mode(0)[0]; got != dataset.Value(1) {
		t.Fatalf("initial mode = %d, want 1", got)
	}

	// Batch oracle over the same assignment history.
	oracle := incTestSpace(t, rows, 2, KeepMode)
	oracle.RecomputeCentroids(assign)

	// Move both members of cluster 0 to cluster 1, emptying it.
	next := []int32{1, 1, 1}
	s.ApplyMove(0, 0, 1)
	s.ApplyMove(2, 0, 1)
	s.FinishPass(next)
	oracle.RecomputeCentroids(next)

	if got, want := s.Mode(0)[0], oracle.Mode(0)[0]; got != want {
		t.Fatalf("emptied cluster mode = %d, batch keeps %d", got, want)
	}
	if got, want := s.IncrementalCost(next), oracle.Cost(next); got != want {
		t.Fatalf("incremental cost = %v, batch %v", got, want)
	}

	// The emptied cluster must be able to attract and absorb members
	// again with exact mode maintenance.
	again := []int32{0, 1, 1}
	s.ApplyMove(0, 1, 0)
	s.FinishPass(again)
	oracle.RecomputeCentroids(again)
	if got, want := s.Mode(0)[0], oracle.Mode(0)[0]; got != want {
		t.Fatalf("refilled cluster mode = %d, batch %d", got, want)
	}
	if got, want := s.IncrementalCost(again), oracle.Cost(again); got != want {
		t.Fatalf("refilled incremental cost = %v, batch %v", got, want)
	}
}

// TestIncrementalRandomMoveSequence fuzzes a longer stateful move
// sequence against the batch oracle, pass by pass.
func TestIncrementalRandomMoveSequence(t *testing.T) {
	const n, k, m = 120, 8, 6
	rows := make([][]dataset.Value, n)
	// Deterministic pseudo-data with heavy value reuse so modes tie
	// and shift often.
	x := uint64(1)
	for i := range rows {
		r := make([]dataset.Value, m)
		for a := range r {
			x = x*6364136223846793005 + 1442695040888963407
			r[a] = dataset.Value(1 + (x>>33)%5)
		}
		rows[i] = r
	}
	s := incTestSpace(t, rows, k, KeepMode)
	oracle := incTestSpace(t, rows, k, KeepMode)

	assign := make([]int32, n)
	for i := range assign {
		assign[i] = int32(i % k)
	}
	s.BeginIncremental(assign, true)
	oracle.RecomputeCentroids(assign)

	for pass := 0; pass < 30; pass++ {
		// A handful of pseudo-random moves per pass.
		for j := 0; j < 7; j++ {
			x = x*6364136223846793005 + 1442695040888963407
			item := int((x >> 33) % n)
			to := int32((x >> 13) % k)
			from := assign[item]
			if to == from {
				continue
			}
			assign[item] = to
			s.ApplyMove(item, from, to)
		}
		s.FinishPass(assign)
		oracle.RecomputeCentroids(assign)
		for c := 0; c < k; c++ {
			gm, wm := s.Mode(c), oracle.Mode(c)
			for a := range gm {
				if gm[a] != wm[a] {
					t.Fatalf("pass %d cluster %d attr %d: incremental %d, batch %d",
						pass, c, a, gm[a], wm[a])
				}
			}
		}
		if got, want := s.IncrementalCost(assign), oracle.Cost(assign); got != want {
			t.Fatalf("pass %d: incremental cost %v, batch %v", pass, got, want)
		}
	}
}

// engineState is what the engine exposes after a publish: the visible
// modes, the tables' cluster sizes, the cached item costs and their
// total, and the changed clusters.
type engineState struct {
	modes    []dataset.Value
	sizes    []int32
	itemCost []int32
	cost     float64
	changed  []int32
}

func snapshotEngine(s *Space, assign []int32) engineState {
	return engineState{
		modes:    slices.Clone(s.modes),
		sizes:    slices.Clone(s.inc.freq.sizes),
		itemCost: slices.Clone(s.inc.itemCost),
		cost:     s.IncrementalCost(assign),
		changed:  slices.Clone(s.ChangedClusters()),
	}
}

func assertEngineEqual(t *testing.T, label string, got, want engineState) {
	t.Helper()
	switch {
	case !slices.Equal(got.modes, want.modes):
		t.Fatalf("%s: modes differ", label)
	case !slices.Equal(got.sizes, want.sizes):
		t.Fatalf("%s: sizes %v, want %v", label, got.sizes, want.sizes)
	case !slices.Equal(got.itemCost, want.itemCost):
		t.Fatalf("%s: cached item costs differ", label)
	case got.cost != want.cost:
		t.Fatalf("%s: incremental cost %v, want %v", label, got.cost, want.cost)
	case !slices.Equal(got.changed, want.changed):
		t.Fatalf("%s: changed clusters %v, want %v", label, got.changed, want.changed)
	}
}

// engineWorkload is a 3,000-item, 8-attribute dataset over a small
// domain, so modes tie and shift often, with k = 40 clusters.
func engineWorkload(t *testing.T) (*dataset.Dataset, int) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{Items: 3000, Clusters: 40, Attrs: 8, Domain: 12, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ds, 40
}

// playPasses drives s through passes of seeded random moves, folding
// each with FinishPass, and returns the engine state after
// BeginIncremental and after every pass. The first assignment leaves
// three clusters empty, and each pass moves one item twice and empties
// one cluster, so both empty-cluster policies act.
func playPasses(s *Space, k int) []engineState {
	n := s.NumItems()
	rng := rand.New(rand.NewSource(9))
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = int32(rng.Intn(k - 3))
	}
	s.BeginIncremental(assign, true)
	states := []engineState{snapshotEngine(s, assign)}
	moveItem := func(item int, to int32) {
		if from := assign[item]; from != to {
			assign[item] = to
			s.ApplyMove(item, from, to)
		}
	}
	for pass := 0; pass < 12; pass++ {
		for j := rng.Intn(400); j > 0; j-- {
			moveItem(rng.Intn(n), int32(rng.Intn(k)))
		}
		twice := rng.Intn(n)
		moveItem(twice, int32(rng.Intn(k)))
		moveItem(twice, int32(rng.Intn(k)))
		victim := int32(rng.Intn(k))
		for i, c := range assign {
			if c == victim {
				moveItem(i, (victim+1)%int32(k))
			}
		}
		s.FinishPass(assign)
		states = append(states, snapshotEngine(s, assign))
	}
	return states
}

// TestIncrementalMatchesAcrossProcs: the table build, the fold of the
// logged moves and the cost scans split across GOMAXPROCS goroutines,
// and every publish must be the same at any split. One BeginIncremental
// and the same passes run under GOMAXPROCS=1, the reference, and under
// GOMAXPROCS=4; after every publish the modes, sizes, cached costs,
// incremental cost and changed clusters must agree. Each pass moves one
// item twice, so the goroutine owning it must apply its cost updates in
// log order.
func TestIncrementalMatchesAcrossProcs(t *testing.T) {
	prev := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	ds, k := engineWorkload(t)
	for _, policy := range []EmptyClusterPolicy{KeepMode, ReseedRandomItem} {
		play := func(procs int) []engineState {
			runtime.GOMAXPROCS(procs)
			s, err := NewSpace(ds, Config{K: k, Seed: 3, EmptyCluster: policy})
			if err != nil {
				t.Fatal(err)
			}
			return playPasses(s, k)
		}
		want, got := play(1), play(4)
		for i := range want {
			assertEngineEqual(t, fmt.Sprintf("policy %d, publish %d, GOMAXPROCS=4 against 1", policy, i), got[i], want[i])
		}
	}
}

// TestBeginIncrementalDropsLoggedMoves: a cancelled core.Run returns
// between a pass's ApplyMove calls and its FinishPass, so the moves it
// logged are never folded. BeginIncremental must drop them: a space
// that logged moves and began again must then publish what a space
// that logged none publishes, pass for pass.
func TestBeginIncrementalDropsLoggedMoves(t *testing.T) {
	ds, k := engineWorkload(t)
	for _, policy := range []EmptyClusterPolicy{KeepMode, ReseedRandomItem} {
		mk := func() *Space {
			s, err := NewSpace(ds, Config{K: k, Seed: 3, EmptyCluster: policy})
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		interrupted, fresh := mk(), mk()
		first := make([]int32, ds.NumItems())
		for i := range first {
			first[i] = int32(i % k)
		}
		interrupted.BeginIncremental(first, true)
		fresh.BeginIncremental(first, true)
		for i := 0; i < 200; i++ {
			interrupted.ApplyMove(i, first[i], (first[i]+1)%int32(k))
		}
		want, got := playPasses(fresh, k), playPasses(interrupted, k)
		for i := range want {
			assertEngineEqual(t, fmt.Sprintf("policy %d, publish %d", policy, i), got[i], want[i])
		}
	}
}

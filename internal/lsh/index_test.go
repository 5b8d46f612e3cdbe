package lsh

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func mustIndex(t testing.TB, p Params, seed uint64) *Index {
	t.Helper()
	ix, err := NewIndex(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func collect(ix *Index, item int32) map[int32]int {
	got := map[int32]int{}
	ix.Candidates(item, func(o int32) { got[o]++ })
	return got
}

func TestIndexSelfCollision(t *testing.T) {
	sets := [][]uint64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}}
	ix := buildFrozenIndex(t, Params{Bands: 5, Rows: 2}, 1, sets, 1)
	for i := range sets {
		got := collect(ix, int32(i))
		// An item collides with itself in every band.
		if got[int32(i)] != 5 {
			t.Fatalf("item %d self-collisions = %d, want 5 (one per band)", i, got[int32(i)])
		}
	}
}

func TestIdenticalSetsAlwaysCollide(t *testing.T) {
	set := []uint64{100, 200, 300, 400}
	ix := buildFrozenIndex(t, Params{Bands: 3, Rows: 4}, 9, [][]uint64{set, append([]uint64(nil), set...)}, 1)
	got := collect(ix, 0)
	if got[1] != 3 {
		t.Fatalf("identical item collides in %d bands, want all 3", got[1])
	}
}

func TestDisjointSetsRarelyCollide(t *testing.T) {
	// With r=8 rows per band a collision requires 8 simultaneous hash
	// agreements between disjoint sets — effectively impossible.
	a := make([]uint64, 64)
	b := make([]uint64, 64)
	for i := range a {
		a[i] = uint64(i)
		b[i] = uint64(i + 100000)
	}
	ix := buildFrozenIndex(t, Params{Bands: 4, Rows: 8}, 3, [][]uint64{a, b}, 1)
	if got := collect(ix, 0); got[1] != 0 {
		t.Fatalf("disjoint sets collided in %d bands", got[1])
	}
}

func TestDoubleInsertRejected(t *testing.T) {
	ix := mustIndex(t, Params{Bands: 2, Rows: 1}, 1)
	if err := fileSet(ix, 0, []uint64{1}); err != nil {
		t.Fatal(err)
	}
	if err := fileSet(ix, 0, []uint64{1}); err == nil {
		t.Fatal("expected error on double insert")
	}
}

func TestNegativeItemRejected(t *testing.T) {
	ix := mustIndex(t, Params{Bands: 2, Rows: 1}, 1)
	if err := fileSet(ix, -1, []uint64{1}); err == nil {
		t.Fatal("expected error on negative item ID")
	}
}

// TestGrowBeyondHint files one item far past an empty index's inserted
// flags: the flags grow to hold it, and it sits in its own bucket in
// every band.
func TestGrowBeyondHint(t *testing.T) {
	ix := mustIndex(t, Params{Bands: 3, Rows: 2}, 1)
	set := []uint64{5, 6, 7}
	if err := fileSet(ix, 10, set); err != nil {
		t.Fatal(err)
	}
	if got := collectOfSet(ix, set); !slices.Equal(got, []int32{10, 10, 10}) {
		t.Fatalf("grown item's buckets hold %v, want it in all 3", got)
	}
	if ix.NumInserted() != 1 {
		t.Fatalf("NumInserted = %d, want 1", ix.NumInserted())
	}
}

func TestCandidatesOfUninsertedItemSilent(t *testing.T) {
	for _, ix := range []*Index{
		mustIndex(t, Params{Bands: 2, Rows: 2}, 1),
		buildFrozenIndex(t, Params{Bands: 2, Rows: 2}, 1, testSets(4, 1), 1),
	} {
		calls := 0
		for _, item := range []int32{-1, 4, 9} {
			ix.Candidates(item, func(int32) { calls++ })
		}
		if calls != 0 {
			t.Fatalf("frozen=%v: uninserted items produced %d candidates", ix.Frozen(), calls)
		}
	}
}

// TestCandidatesOfSetMatchesStored: the build phase's key-addressed
// lookup of an item's set reports the same collisions, band for band,
// as the frozen index's per-item query over the same sets.
func TestCandidatesOfSetMatchesStored(t *testing.T) {
	p := Params{Bands: 6, Rows: 2}
	sets := [][]uint64{{1, 2, 3, 4}, {1, 2, 3, 9}, {50, 60, 70, 80}}
	ix := mustIndex(t, p, 5)
	fileItems(t, ix, sets, span(0, len(sets)))
	stored := collect(buildFrozenIndex(t, p, 5, sets, 1), 0)
	viaSet := map[int32]int{}
	ix.CandidatesOfSet(sets[0], func(o int32) { viaSet[o]++ })
	if len(stored) != len(viaSet) {
		t.Fatalf("stored query found %v, set query found %v", stored, viaSet)
	}
	for k, v := range stored {
		if viaSet[k] != v {
			t.Fatalf("stored query found %v, set query found %v", stored, viaSet)
		}
	}
}

func TestInvalidParams(t *testing.T) {
	if _, err := NewIndex(Params{Bands: 0, Rows: 1}, 1); err == nil {
		t.Fatal("expected error for invalid params")
	}
}

func TestStats(t *testing.T) {
	p := Params{Bands: 4, Rows: 3}
	common := []uint64{1, 2, 3, 4, 5}
	sets := [][]uint64{common, common, common}
	ix := buildFrozenIndex(t, p, 11, sets, 1)
	bp := mustIndex(t, p, 11)
	fileItems(t, bp, sets, span(0, len(sets)))
	if ix.Stats() != bp.Stats() {
		t.Fatalf("frozen stats %+v, build phase %+v", ix.Stats(), bp.Stats())
	}
	st := ix.Stats()
	if st.Items != 3 || st.Bands != 4 {
		t.Fatalf("stats = %+v", st)
	}
	// All three identical items share one bucket per band.
	if st.Buckets != 4 || st.MaxBucketLen != 3 {
		t.Fatalf("stats = %+v, want 4 buckets of 3", st)
	}
	if st.SingletonShare != 0 {
		t.Fatalf("singleton share = %v, want 0", st.SingletonShare)
	}
	if math.Abs(st.MeanBucketLen-3) > 1e-9 {
		t.Fatalf("mean bucket len = %v, want 3", st.MeanBucketLen)
	}
}

// TestEmpiricalCollisionMatchesSCurve measures the banding collision rate
// over many seeds for pairs of sets with a controlled Jaccard similarity
// and compares it with CandidateProb — the empirical validation of the
// 1−(1−s^r)^b formula the whole framework rests on.
func TestEmpiricalCollisionMatchesSCurve(t *testing.T) {
	if testing.Short() {
		t.Skip("statistical test")
	}
	rng := rand.New(rand.NewSource(4242))
	p := Params{Bands: 8, Rows: 2}
	for _, shared := range []int{6, 12, 18} {
		const total = 24
		a := make([]uint64, 0, total)
		b := make([]uint64, 0, total)
		for i := 0; i < shared; i++ {
			v := rng.Uint64() >> 1
			a = append(a, v)
			b = append(b, v)
		}
		for i := shared; i < total; i++ {
			a = append(a, rng.Uint64()>>1)
			b = append(b, rng.Uint64()>>1)
		}
		j := float64(shared) / float64(2*total-shared)
		want := p.CandidateProb(j)

		const trials = 400
		hits := 0
		for trial := 0; trial < trials; trial++ {
			ix := buildFrozenIndex(t, p, uint64(trial)+1, [][]uint64{a, b}, 1)
			if collect(ix, 0)[1] > 0 {
				hits++
			}
		}
		got := float64(hits) / trials
		sd := math.Sqrt(want*(1-want)/trials) + 1e-9
		if math.Abs(got-want) > 5*sd+0.02 {
			t.Errorf("shared=%d: empirical collision %.3f, formula %.3f (sd %.3f)",
				shared, got, want, sd)
		}
	}
}

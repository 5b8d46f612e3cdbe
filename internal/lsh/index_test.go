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

// TestIndexSelfCollision: Candidates reports the item itself first,
// then once more in each band whose bucket it shares. Items 0 and 4
// hold the same set, so they share every band; the other sets are
// disjoint, so each sits alone in every band.
func TestIndexSelfCollision(t *testing.T) {
	sets := [][]uint64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}, {10, 11, 12}, {1, 2, 3}}
	ix := buildFrozenIndex(t, Params{Bands: 5, Rows: 2}, 1, sets, 1)
	for i, want := range []int{6, 1, 1, 1, 6} {
		got := collectCandidates(ix, int32(i))
		if len(got) == 0 || got[0] != int32(i) {
			t.Fatalf("item %d candidates %v do not start with the item", i, got)
		}
		if n := collect(ix, int32(i))[int32(i)]; n != want {
			t.Fatalf("item %d self-collisions = %d, want %d (itself, then once per shared band)", i, n, want)
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

func TestCandidatesOfUninsertedItemSilent(t *testing.T) {
	for built, ix := range []*Index{
		mustIndex(t, Params{Bands: 2, Rows: 2}, 1),
		buildFrozenIndex(t, Params{Bands: 2, Rows: 2}, 1, testSets(4, 1), 1),
	} {
		calls := 0
		for _, item := range []int32{-1, 4, 9} {
			ix.Candidates(item, func(int32) { calls++ })
		}
		if calls != 0 {
			t.Fatalf("built=%v: uninserted items produced %d candidates", built == 1, calls)
		}
	}
}

// TestCandidatesOfSetMatchesStored: a band table's key-addressed Probe
// of an item's set reports, band for band, the buckets the frozen
// index's per-item query reports after the item itself: every one that
// holds another item.
func TestCandidatesOfSetMatchesStored(t *testing.T) {
	p := Params{Bands: 6, Rows: 2}
	sets := [][]uint64{{1, 2, 3, 4}, {1, 2, 3, 9}, {50, 60, 70, 80}}
	frozen := buildFrozenIndex(t, p, 5, sets, 1)
	bt := mustBandTable(t, p)
	fileItems(t, bt, frozen.Scheme(), sets, span(0, len(sets)))
	sig := make([]uint64, p.SignatureLen())
	for i, set := range sets {
		frozen.Scheme().Sign(set, sig)
		want, filed := []int32{int32(i)}, []int32(nil)
		for b := 0; b < p.Bands; b++ {
			bucket := bt.bucketOf(b, bandKeyOf(p, sig, b))
			filed = append(filed, bucket...)
			if len(bucket) > 1 {
				want = append(want, bucket...)
			}
		}
		if viaSet := probeAll(t, bt, sig); !slices.Equal(viaSet, filed) {
			t.Fatalf("item %d: Probe found %v, its band buckets hold %v", i, viaSet, filed)
		}
		if got := collectCandidates(frozen, int32(i)); !slices.Equal(got, want) {
			t.Fatalf("item %d: stored query found %v, set query's shared buckets %v", i, got, want)
		}
	}
	if collect(frozen, 0)[1] == 0 {
		t.Fatal("items 0 and 1 share no band; the fixture checks nothing")
	}
}

func TestInvalidParams(t *testing.T) {
	if _, err := NewIndex(Params{Bands: 0, Rows: 1}, 1); err == nil {
		t.Fatal("expected error for invalid params")
	}
	if _, err := NewBandTable(Params{Bands: 2, Rows: 0}); err == nil {
		t.Fatal("expected error for invalid band table params")
	}
}

// TestStats pins Stats on the frozen layout against a count of a band
// table's buckets over the same items, each filed as its own value: the
// buckets of one item, which the frozen layout leaves to −1 slots,
// count as buckets.
func TestStats(t *testing.T) {
	p := Params{Bands: 4, Rows: 3}
	common := []uint64{1, 2, 3, 4, 5}
	sets := [][]uint64{common, common, common}
	ix := buildFrozenIndex(t, p, 11, sets, 1)
	bt := mustBandTable(t, p)
	fileItems(t, bt, ix.Scheme(), sets, span(0, len(sets)))
	if ix.Stats() != bandTableStats(bt, len(sets)) {
		t.Fatalf("frozen stats %+v, band table %+v", ix.Stats(), bandTableStats(bt, len(sets)))
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

	// A fourth, disjoint set sits alone in every band.
	sets = append(sets, []uint64{100, 200, 300})
	ix = buildFrozenIndex(t, p, 11, sets, 1)
	bt = mustBandTable(t, p)
	fileItems(t, bt, ix.Scheme(), sets, span(0, len(sets)))
	want := Stats{Bands: 4, Buckets: 8, Items: 4, MaxBucketLen: 3, MeanBucketLen: 2, SingletonShare: 0.5}
	if st := ix.Stats(); st != want || bandTableStats(bt, len(sets)) != want {
		t.Fatalf("frozen stats %+v, band table %+v, want %+v", st, bandTableStats(bt, len(sets)), want)
	}
	if got := len(ix.frozen.offsets) - 1; got != 4 {
		t.Fatalf("frozen layout stores %d buckets, want the 4 shared ones", got)
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

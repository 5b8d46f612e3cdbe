package lsh

import (
	"math/rand"
	"testing"
)

func testSets(n int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	sets := make([][]uint64, n)
	for i := range sets {
		// Overlapping value sets so real bucket collisions occur.
		set := make([]uint64, 12)
		base := uint64(rng.Intn(8)) * 100
		for j := range set {
			set[j] = base + uint64(rng.Intn(40))
		}
		sets[i] = set
	}
	return sets
}

func collectCandidates(ix *Index, item int32) []int32 {
	var out []int32
	ix.Candidates(item, func(other int32) { out = append(out, other) })
	return out
}

func collectOfSet(ix *Index, set []uint64) []int32 {
	var out []int32
	ix.CandidatesOfSet(set, func(other int32) { out = append(out, other) })
	return out
}

// TestFreezePreservesQueries pins the central frozen-index property:
// Candidates returns exactly the same candidates in exactly the same
// order before and after Freeze (the clustering driver's tie-breaking
// depends on enumeration order).
func TestFreezePreservesQueries(t *testing.T) {
	sets := testSets(300, 9)
	p := Params{Bands: 6, Rows: 3}
	ix, err := NewIndex(p, 41, len(sets))
	if err != nil {
		t.Fatal(err)
	}
	for i, set := range sets {
		if err := ix.Insert(int32(i), set); err != nil {
			t.Fatal(err)
		}
	}
	before := make([][]int32, len(sets))
	for i := range sets {
		before[i] = collectCandidates(ix, int32(i))
		if len(before[i]) < p.Bands {
			t.Fatalf("item %d: %d candidates, want ≥ bands (self-collision per band)", i, len(before[i]))
		}
	}
	statsBefore := ix.Stats()

	ix.Freeze()
	if !ix.Frozen() {
		t.Fatal("index not frozen after Freeze")
	}
	ix.Freeze() // idempotent

	for i := range sets {
		after := collectCandidates(ix, int32(i))
		if len(after) != len(before[i]) {
			t.Fatalf("item %d: %d candidates frozen, %d unfrozen", i, len(after), len(before[i]))
		}
		for j := range after {
			if after[j] != before[i][j] {
				t.Fatalf("item %d candidate %d: frozen %d, unfrozen %d (order must match)",
					i, j, after[j], before[i][j])
			}
		}
	}
	statsAfter := ix.Stats()
	if statsAfter != statsBefore {
		t.Fatalf("stats changed across Freeze: %+v vs %+v", statsAfter, statsBefore)
	}
}

func TestFrozenIndexRejectsInsert(t *testing.T) {
	ix, err := NewIndex(Params{Bands: 2, Rows: 2}, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(0, []uint64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	ix.Freeze()
	if err := ix.Insert(1, []uint64{4, 5, 6}); err == nil {
		t.Fatal("Insert after Freeze succeeded, want error")
	}
}

func TestFreezeWithGapsAndUnqueriedItems(t *testing.T) {
	ix, err := NewIndex(Params{Bands: 3, Rows: 2}, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Sparse, out-of-order IDs exercise the slots gap handling.
	for _, id := range []int32{7, 2, 19} {
		if err := ix.Insert(id, []uint64{uint64(id), uint64(id) + 1}); err != nil {
			t.Fatal(err)
		}
	}
	ix.Freeze()
	if got := collectCandidates(ix, 3); got != nil {
		t.Fatalf("never-inserted item returned candidates %v", got)
	}
	if got := collectCandidates(ix, 100); got != nil {
		t.Fatalf("out-of-range item returned candidates %v", got)
	}
	for _, id := range []int32{7, 2, 19} {
		found := false
		for _, c := range collectCandidates(ix, id) {
			if c == id {
				found = true
			}
		}
		if !found {
			t.Fatalf("item %d missing from its own candidates after freeze", id)
		}
	}
}

func TestNumInsertedCounter(t *testing.T) {
	ix, err := NewIndex(Params{Bands: 2, Rows: 2}, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumInserted() != 0 {
		t.Fatalf("fresh index NumInserted = %d", ix.NumInserted())
	}
	// Sparse ascending IDs force repeated grow calls.
	ids := []int32{0, 5, 17, 100, 1000}
	for i, id := range ids {
		if err := ix.Insert(id, []uint64{uint64(id), 1}); err != nil {
			t.Fatal(err)
		}
		if got := ix.NumInserted(); got != i+1 {
			t.Fatalf("after %d inserts NumInserted = %d", i+1, got)
		}
	}
	// A duplicate insert fails and must not bump the counter.
	if err := ix.Insert(5, []uint64{9, 9}); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if got := ix.NumInserted(); got != len(ids) {
		t.Fatalf("NumInserted = %d after failed duplicate, want %d", got, len(ids))
	}
	// Stats agrees with the counter.
	if st := ix.Stats(); st.Items != len(ids) {
		t.Fatalf("Stats.Items = %d, want %d", st.Items, len(ids))
	}
}

func TestGrowPreservesState(t *testing.T) {
	p := Params{Bands: 4, Rows: 2}
	ix, err := NewIndex(p, 11, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Insert with ascending IDs far past the capacity hint; earlier
	// items' stored keys must survive every grow.
	sets := testSets(200, 3)
	for i, set := range sets {
		if err := ix.Insert(int32(i), set); err != nil {
			t.Fatal(err)
		}
	}
	for i := range sets {
		self := 0
		for _, c := range collectCandidates(ix, int32(i)) {
			if c == int32(i) {
				self++
			}
		}
		if self != p.Bands {
			t.Fatalf("item %d self-collisions = %d, want %d (stored keys corrupted by grow?)",
				i, self, p.Bands)
		}
	}
}

// TestFreezeEmptyIndex pins the lazy-storage edge: freezing an index
// before any insert must still build a valid (empty) layout, so
// post-freeze queries and the reverse view report nothing instead of
// panicking — the same behaviour BuildFrozen with n=0 has.
func TestFreezeEmptyIndex(t *testing.T) {
	ix := mustIndex(t, Params{Bands: 4, Rows: 2}, 3, 0)
	ix.Freeze()
	if got := collectCandidates(ix, 0); len(got) != 0 {
		t.Fatalf("empty frozen index returned item candidates %v", got)
	}
	ix.CandidatesBatch([]int32{0, 1}, func(pos int, _ []int32, _ int32) {
		t.Fatalf("empty frozen index returned a bucket at pos %d", pos)
	})
	rv := ix.NewReverse()
	rv.AddSource(0)
	rv.Emit(func(it int32) bool {
		t.Fatalf("empty frozen index emitted item %d", it)
		return true
	})

	// The unfrozen empty index takes the lazy-guard path instead.
	ix2 := mustIndex(t, Params{Bands: 4, Rows: 2}, 3, 0)
	if got := collectOfSet(ix2, []uint64{1, 2, 3}); len(got) != 0 {
		t.Fatalf("empty unfrozen index returned candidates %v", got)
	}
}

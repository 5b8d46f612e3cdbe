package lsh

import (
	"math/rand"
	"slices"
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

// fileSet files item under set's band buckets through QueryInsert.
func fileSet(ix *Index, item int32, set []uint64) error {
	return ix.QueryInsert(item, ix.Scheme().Sign(set, make([]uint64, ix.Params().SignatureLen())), nil)
}

func TestFrozenIndexRejectsInsert(t *testing.T) {
	ix := buildFrozenIndex(t, Params{Bands: 2, Rows: 2}, 1, [][]uint64{{1, 2, 3}}, 1)
	if err := fileSet(ix, 1, []uint64{4, 5, 6}); err == nil {
		t.Fatal("QueryInsert into a frozen index succeeded, want error")
	}
}

func TestNumInsertedCounter(t *testing.T) {
	ix := mustIndex(t, Params{Bands: 2, Rows: 2}, 3)
	if ix.NumInserted() != 0 {
		t.Fatalf("fresh index NumInserted = %d", ix.NumInserted())
	}
	// Sparse ascending IDs force repeated grow calls.
	ids := []int32{0, 5, 17, 100, 1000}
	for i, id := range ids {
		if err := fileSet(ix, id, []uint64{uint64(id), 1}); err != nil {
			t.Fatal(err)
		}
		if got := ix.NumInserted(); got != i+1 {
			t.Fatalf("after %d inserts NumInserted = %d", i+1, got)
		}
	}
	// A duplicate insert fails and must not bump the counter.
	if err := fileSet(ix, 5, []uint64{9, 9}); err == nil {
		t.Fatal("duplicate insert succeeded")
	}
	if got := ix.NumInserted(); got != len(ids) {
		t.Fatalf("NumInserted = %d after failed duplicate, want %d", got, len(ids))
	}
	// Stats agrees with the counter.
	if st := ix.Stats(); st.Items != len(ids) {
		t.Fatalf("Stats.Items = %d, want %d", st.Items, len(ids))
	}
	// So does a frozen index.
	if got := buildFrozenIndex(t, Params{Bands: 2, Rows: 2}, 3, testSets(7, 1), 2).NumInserted(); got != 7 {
		t.Fatalf("BuildFrozen over 7 items: NumInserted = %d", got)
	}
}

// TestGrowPreservesState files items with ascending IDs from an empty
// index: every growth of the inserted flags must keep the earlier
// items inserted (a repeat is rejected), and every item must sit in
// its own bucket under each of its band keys.
func TestGrowPreservesState(t *testing.T) {
	p := Params{Bands: 4, Rows: 2}
	ix := mustIndex(t, p, 11)
	sets := testSets(200, 3)
	fileItems(t, ix, sets, span(0, len(sets)))
	keys := bandKeysOf(ix, sets)
	for i, set := range sets {
		if err := fileSet(ix, int32(i), set); err == nil {
			t.Fatalf("item %d filed twice (inserted flag lost in a grow?)", i)
		}
		for b := 0; b < p.Bands; b++ {
			if !slices.Contains(ix.buildBucket(b, keys[i*p.Bands+b]), int32(i)) {
				t.Fatalf("item %d missing from its band-%d bucket", i, b)
			}
		}
	}
}

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

// TestNumInsertedCounter pins the item count: none before BuildFrozen,
// every item after, in NumInserted and in Stats alike.
func TestNumInsertedCounter(t *testing.T) {
	ix := mustIndex(t, Params{Bands: 2, Rows: 2}, 3)
	if ix.NumInserted() != 0 || ix.Stats().Items != 0 {
		t.Fatalf("fresh index NumInserted = %d, Stats.Items = %d", ix.NumInserted(), ix.Stats().Items)
	}
	ix = buildFrozenIndex(t, Params{Bands: 2, Rows: 2}, 3, testSets(7, 1), 2)
	if ix.NumInserted() != 7 || ix.Stats().Items != 7 {
		t.Fatalf("BuildFrozen over 7 items: NumInserted = %d, Stats.Items = %d", ix.NumInserted(), ix.Stats().Items)
	}
}

// TestGrowPreservesState files items with ascending IDs into an empty
// band table, whose tables double many times on the way: every item
// must still sit in its bucket under each of its band keys, and filing
// every item again must leave the table as it was.
func TestGrowPreservesState(t *testing.T) {
	p := Params{Bands: 4, Rows: 2}
	ix := mustIndex(t, p, 11)
	bt := mustBandTable(t, p)
	sets := testSets(200, 3)
	fileItems(t, bt, ix.Scheme(), sets, span(0, len(sets)))
	if len(bt.tables[0].cells) <= 16 {
		t.Fatalf("band 0's table never grew (%d cells)", len(bt.tables[0].cells))
	}
	before := bandTableStats(bt, len(sets))
	keys := bandKeysOf(ix, sets)
	for i, set := range sets {
		if err := fileSet(bt, ix.Scheme(), int32(i), set); err != nil {
			t.Fatal(err)
		}
		for b := 0; b < p.Bands; b++ {
			if !slices.Contains(bt.bucketOf(b, keys[i*p.Bands+b]), int32(i)) {
				t.Fatalf("item %d missing from its band-%d bucket", i, b)
			}
		}
	}
	if after := bandTableStats(bt, len(sets)); after != before {
		t.Fatalf("filing every item again changed the table: %+v → %+v", before, after)
	}
}

package lsh

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"lshcluster/internal/minhash"
)

// testScheme is the MinHash scheme the package tests sign value sets
// with: the family the MinHash accelerator builds from the same
// banding and seed.
func testScheme(p Params, seed uint64) *minhash.Scheme {
	return minhash.NewScheme(p.SignatureLen(), seed)
}

// setSigner signs sets[item] through scheme — what the MinHash
// accelerator's SignAll does, minus dataset plumbing. Each SignFunc is
// stateless here; scheme signing is concurrency-safe.
func setSigner(scheme *minhash.Scheme, sets [][]uint64) func() SignFunc {
	return func() SignFunc {
		return func(item int32, sig []uint64) {
			scheme.Sign(sets[item], sig)
		}
	}
}

// mustBuild builds the index of items [0, n) from keys.
func mustBuild(t testing.TB, p Params, keys []uint64, n, workers int) *Index {
	t.Helper()
	ix, err := BuildFrozen(p, keys, n, workers)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// buildFrozenIndex builds an index over sets the way the bootstrap
// does — SignAll, then BuildFrozen — at the given worker count. It is
// the one builder of the package tests' built fixtures.
func buildFrozenIndex(t testing.TB, p Params, seed uint64, sets [][]uint64, workers int) *Index {
	t.Helper()
	return mustBuild(t, p, SignAll(p, len(sets), workers, setSigner(testScheme(p, seed), sets), nil), len(sets), workers)
}

// span returns the IDs [lo, hi) in ascending order.
func span(lo, hi int) []int {
	ids := make([]int, 0, hi-lo)
	for i := lo; i < hi; i++ {
		ids = append(ids, i)
	}
	return ids
}

// bruteFrozen lays out, by brute force, the index of items [0, n)
// filed under keys[item·Bands+band]: per band, one bucket per distinct
// key that two or more items hold, in the order the key first occurs
// over ascending items, each bucket listing its items in ascending
// order, bucket IDs running on across bands; an item alone under its
// key has slot −1 there. It is BuildFrozen's reference.
func bruteFrozen(t testing.TB, p Params, keys []uint64, n int) *Index {
	t.Helper()
	return bruteLayout(t, p, keys, n, 2)
}

// legacyFrozen is bruteFrozen with every bucket stored, those of one
// item included: the layout BuildFrozen made, and Save wrote, before
// singleton buckets were dropped.
func legacyFrozen(t testing.TB, p Params, keys []uint64, n int) *Index {
	t.Helper()
	return bruteLayout(t, p, keys, n, 1)
}

// bruteLayout is bruteFrozen storing the buckets of at least minLen
// items.
func bruteLayout(t testing.TB, p Params, keys []uint64, n, minLen int) *Index {
	t.Helper()
	bands := p.Bands
	fz := frozenIndex{offsets: []int32{0}, slots: make([]int32, n*bands)}
	for i := range fz.slots {
		fz.slots[i] = -1
	}
	for b := 0; b < bands; b++ {
		var order []uint64
		members := map[uint64][]int32{}
		for i := 0; i < n; i++ {
			key := keys[i*bands+b]
			if _, seen := members[key]; !seen {
				order = append(order, key)
			}
			members[key] = append(members[key], int32(i))
		}
		for _, key := range order {
			if len(members[key]) < minLen {
				continue
			}
			for _, i := range members[key] {
				fz.slots[int(i)*bands+b] = int32(len(fz.offsets) - 1)
			}
			fz.items = append(fz.items, members[key]...)
			fz.offsets = append(fz.offsets, int32(len(fz.items)))
		}
	}
	return &Index{params: p, n: n, frozen: fz}
}

// bruteIndex is bruteFrozen over every item of sets.
func bruteIndex(t testing.TB, p Params, seed uint64, sets [][]uint64) *Index {
	t.Helper()
	return bruteFrozen(t, p, bandKeysOf(p, seed, sets), len(sets))
}

// assertFrozenIdentical compares every frozen CSR array — offsets,
// items and slots — value for value.
func assertFrozenIdentical(t testing.TB, want, got *Index) {
	t.Helper()
	fw, fg := &want.frozen, &got.frozen
	if !slices.Equal(fw.offsets, fg.offsets) {
		t.Fatalf("offsets differ:\nwant %v\ngot  %v", fw.offsets, fg.offsets)
	}
	if !slices.Equal(fw.items, fg.items) {
		t.Fatalf("items differ:\nwant %v\ngot  %v", fw.items, fg.items)
	}
	if !slices.Equal(fw.slots, fg.slots) {
		t.Fatalf("slots differ:\nwant %v\ngot  %v", fw.slots, fg.slots)
	}
}

// TestBuildFrozenMatchesInsertFreeze is the layout equivalence oracle:
// BuildFrozen over a presigned key arena must reproduce, value for
// value, the brute-force layout of the same keys (bruteFrozen), and
// hold under each key shared by two or more items exactly what a
// BandTable files there when items 0…n−1 are filed as their own values
// in ascending order, where the table files an item alone exactly when
// its frozen slot is −1 — across banding shapes, sizes and worker
// counts.
func TestBuildFrozenMatchesInsertFreeze(t *testing.T) {
	for _, tc := range []struct{ bands, rows, n int }{
		{1, 1, 1},
		{4, 2, 17},
		{3, 7, 64},
		{8, 4, 100},
		{20, 5, 250},
	} {
		sets := testSets(tc.n, int64(tc.bands*1000+tc.rows))
		p := Params{Bands: tc.bands, Rows: tc.rows}
		scheme := testScheme(p, 7)
		ref := bruteIndex(t, p, 7, sets)
		bt := mustBandTable(t, p)
		fileItems(t, bt, scheme, sets, span(0, tc.n))
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%db%dr/n=%d/w=%d", tc.bands, tc.rows, tc.n, workers), func(t *testing.T) {
				keys := SignAll(p, tc.n, workers, setSigner(scheme, sets), nil)
				ix := mustBuild(t, p, keys, tc.n, workers)
				assertFrozenIdentical(t, ref, ix)
				assertBandTableMatchesFrozen(t, bt, ix, keys, span(0, tc.n))
				if ix.NumInserted() != tc.n {
					t.Fatalf("NumInserted = %d, want %d", ix.NumInserted(), tc.n)
				}
			})
		}
	}
}

func TestBuildFrozenErrors(t *testing.T) {
	p := Params{Bands: 2, Rows: 2}
	if _, err := BuildFrozen(p, make([]uint64, 3), 4, 1); err == nil {
		t.Fatal("wrong arena length accepted")
	}
	if _, err := BuildFrozen(p, make([]uint64, 4*p.Bands), -1, 1); err == nil {
		t.Fatal("negative item count accepted")
	}
}

// TestBuildFrozenRejectsInt32Overflow pins the layout's int32 limit: a
// build over n·Bands > MaxInt32 entries is an error raised before the
// key-count check and before any allocation.
func TestBuildFrozenRejectsInt32Overflow(t *testing.T) {
	p := Params{Bands: 20, Rows: 2}
	n := math.MaxInt32/p.Bands + 1
	build := func() (*Index, error) { return BuildFrozen(p, nil, n, 1) }
	if ix, err := build(); err == nil || ix != nil {
		t.Fatalf("BuildFrozen over %d items × %d bands accepted", n, p.Bands)
	}
	if allocs := testing.AllocsPerRun(3, func() { _, _ = build() }); allocs != 0 {
		t.Fatalf("rejected BuildFrozen allocated %v times", allocs)
	}
}

// TestBuildFrozenQueries double-checks the built index behaves
// end-to-end: candidate enumeration matches the brute-force candidate
// lists, the reverse view works, and a build over no items is a valid
// empty layout whose queries and reverse view report nothing.
func TestBuildFrozenQueries(t *testing.T) {
	const n = 80
	p := Params{Bands: 6, Rows: 2}
	sets := testSets(n, 5)
	keys := SignAll(p, n, 2, setSigner(testScheme(p, 9), sets), nil)
	ix := mustBuild(t, p, keys, n, 2)
	for i := 0; i < n; i++ {
		want := bruteCandidates(keys, p.Bands, n, i)
		if got := collectCandidates(ix, int32(i)); !reflect.DeepEqual(want, got) {
			t.Fatalf("item %d candidates: want %v, got %v", i, want, got)
		}
	}
	rv := ix.NewReverse()
	rv.AddSource(0)
	seen := map[int32]bool{}
	rv.Emit(func(it int32) bool { seen[it] = true; return true })
	if !seen[0] {
		t.Fatal("reverse view missed the source item")
	}

	empty := buildFrozenIndex(t, p, 9, nil, 2)
	if got := collectCandidates(empty, 0); len(got) != 0 {
		t.Fatalf("empty index returned item candidates %v", got)
	}
	empty.CandidatesBatch([]int32{0, 1}, func(pos int, _ []int32, _ int32) {
		t.Fatalf("empty index returned a bucket at pos %d", pos)
	})
	erv := empty.NewReverse()
	erv.AddSource(0)
	erv.Emit(func(it int32) bool {
		t.Fatalf("empty index emitted item %d", it)
		return true
	})
}

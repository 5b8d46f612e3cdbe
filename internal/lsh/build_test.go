package lsh

import (
	"fmt"
	"reflect"
	"testing"
)

// setSigner signs sets[item] through the index's scheme — what the
// MinHash accelerator's SignAll does, minus dataset plumbing. Each
// SignFunc is stateless here; scheme signing is concurrency-safe.
func setSigner(ix *Index, sets [][]uint64) func() SignFunc {
	return func() SignFunc {
		return func(item int32, sig []uint64) {
			ix.Scheme().Sign(sets[item], sig)
		}
	}
}

// assertFrozenIdentical compares every frozen CSR array — offsets,
// items, slots and the per-band open-addressed key tables — byte for
// byte.
func assertFrozenIdentical(t *testing.T, want, got *Index) {
	t.Helper()
	fw, fg := want.frozen, got.frozen
	if fw == nil || fg == nil {
		t.Fatalf("frozen: want %v, got %v", fw != nil, fg != nil)
	}
	if !reflect.DeepEqual(fw.offsets, fg.offsets) {
		t.Fatalf("offsets differ:\nwant %v\ngot  %v", fw.offsets, fg.offsets)
	}
	if !reflect.DeepEqual(fw.items, fg.items) {
		t.Fatalf("items differ:\nwant %v\ngot  %v", fw.items, fg.items)
	}
	if !reflect.DeepEqual(fw.slots, fg.slots) {
		t.Fatalf("slots differ:\nwant %v\ngot  %v", fw.slots, fg.slots)
	}
	if !reflect.DeepEqual(fw.keys, fg.keys) {
		t.Fatalf("bucket keys differ:\nwant %v\ngot  %v", fw.keys, fg.keys)
	}
	if len(fw.tables) != len(fg.tables) {
		t.Fatalf("tables: want %d bands, got %d", len(fw.tables), len(fg.tables))
	}
	for b := range fw.tables {
		tw, tg := &fw.tables[b], &fg.tables[b]
		if tw.mask != tg.mask {
			t.Fatalf("band %d table mask: want %d, got %d", b, tw.mask, tg.mask)
		}
		if !reflect.DeepEqual(tw.entries, tg.entries) {
			t.Fatalf("band %d table entries differ", b)
		}
	}
}

// TestBuildFrozenMatchesInsertFreeze is the layout equivalence oracle:
// BuildFrozen over a presigned key arena must reproduce, byte for
// byte, the frozen arrays of inserting items 0…n−1 in ascending order
// and freezing — across banding shapes, sizes and worker counts.
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
		ref := mustIndex(t, p, 7, tc.n)
		for i, s := range sets {
			if err := ref.Insert(int32(i), s); err != nil {
				t.Fatal(err)
			}
		}
		ref.Freeze()
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("%db%dr/n=%d/w=%d", tc.bands, tc.rows, tc.n, workers), func(t *testing.T) {
				ix := mustIndex(t, p, 7, tc.n)
				keys := SignAll(p, tc.n, workers, setSigner(ix, sets), nil)
				if err := ix.BuildFrozen(keys, tc.n, workers); err != nil {
					t.Fatal(err)
				}
				assertFrozenIdentical(t, ref, ix)
				if ix.NumInserted() != tc.n {
					t.Fatalf("NumInserted = %d, want %d", ix.NumInserted(), tc.n)
				}
				if !ix.Frozen() {
					t.Fatal("index not frozen after BuildFrozen")
				}
			})
		}
	}
}

func TestBuildFrozenErrors(t *testing.T) {
	p := Params{Bands: 2, Rows: 2}
	sets := testSets(4, 1)
	ix := mustIndex(t, p, 1, 4)
	if err := ix.BuildFrozen(make([]uint64, 3), 4, 1); err == nil {
		t.Fatal("wrong arena length accepted")
	}
	if err := ix.Insert(0, sets[0]); err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildFrozen(make([]uint64, 4*p.Bands), 4, 1); err == nil {
		t.Fatal("BuildFrozen on a non-empty index accepted")
	}

	ix2 := mustIndex(t, p, 1, 4)
	keys := SignAll(p, 4, 1, setSigner(ix2, sets), nil)
	if err := ix2.BuildFrozen(keys, 4, 1); err != nil {
		t.Fatal(err)
	}
	if err := ix2.BuildFrozen(keys, 4, 1); err == nil {
		t.Fatal("BuildFrozen on a frozen index accepted")
	}
	if err := ix2.Insert(5, sets[0]); err == nil {
		t.Fatal("Insert on a frozen index accepted")
	}
}

// TestBuildFrozenQueries double-checks the built index behaves
// end-to-end: candidate enumeration, out-of-index key-table queries
// and the reverse view all work on a BuildFrozen index.
func TestBuildFrozenQueries(t *testing.T) {
	const n = 80
	p := Params{Bands: 6, Rows: 2}
	sets := testSets(n, 5)
	ref := mustIndex(t, p, 9, n)
	for i, s := range sets {
		if err := ref.Insert(int32(i), s); err != nil {
			t.Fatal(err)
		}
	}
	ix := mustIndex(t, p, 9, n)
	keys := SignAll(p, n, 2, setSigner(ix, sets), nil)
	if err := ix.BuildFrozen(keys, n, 2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := collectCandidates(ref, int32(i))
		got := collectCandidates(ix, int32(i))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("item %d candidates: want %v, got %v", i, want, got)
		}
	}
	for i := 0; i < n; i += 9 {
		want := collectOfSet(ref, sets[i])
		got := collectOfSet(ix, sets[i])
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("set %d of-set candidates: want %v, got %v", i, want, got)
		}
	}
	rv := ix.NewReverse()
	if rv == nil {
		t.Fatal("NewReverse returned nil on a BuildFrozen index")
	}
	rv.AddSource(0)
	seen := map[int32]bool{}
	rv.Emit(func(it int32) bool { seen[it] = true; return true })
	if !seen[0] {
		t.Fatal("reverse view missed the source item")
	}
}

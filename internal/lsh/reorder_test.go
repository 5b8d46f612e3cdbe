package lsh

import (
	"fmt"
	"reflect"
	"testing"
)

// buildReordered builds a sharded index over sets with locality
// reordering enabled, returning it and the SignAll arena used.
func buildReordered(t *testing.T, p Params, seed uint64, sets [][]uint64, shards, workers int) (*Sharded, []uint64) {
	t.Helper()
	sh, err := NewSharded(p, seed, len(sets), shards)
	if err != nil {
		t.Fatal(err)
	}
	keys := signKeysFor(sh, sets, workers)
	sh.SetReorder(true)
	if err := sh.BuildFrozen(keys, len(sets), workers); err != nil {
		t.Fatal(err)
	}
	return sh, keys
}

// TestReorderMapBijection pins the permutation's shape: perm and inv
// are inverse bijections over [0, n), within each band-0 bucket
// internal order preserves ascending original order (the property
// reorderBucketItems' band-0 skip relies on), and items sharing any
// small bucket land in the same contiguous component run.
func TestReorderMapBijection(t *testing.T) {
	const n = 250
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 51)
	sh, keys := buildReordered(t, p, 7, sets, 3, 2)
	perm, inv := sh.ReorderMap()
	if len(perm) != n || len(inv) != n {
		t.Fatalf("perm/inv lengths %d/%d, want %d", len(perm), len(inv), n)
	}
	for i := 0; i < n; i++ {
		if perm[inv[i]] != int32(i) || inv[perm[i]] != int32(i) {
			t.Fatalf("perm/inv not inverse at %d: perm[inv[%d]]=%d inv[perm[%d]]=%d",
				i, i, perm[inv[i]], i, inv[perm[i]])
		}
	}
	// Within a band-0 bucket, ascending original implies ascending
	// internal — the exact invariant that lets reorderBucketItems skip
	// re-scattering band 0.
	group := map[uint64][]int32{}
	for i := 0; i < n; i++ {
		k := keys[i*p.Bands]
		group[k] = append(group[k], perm[int32(i)])
	}
	for k, ids := range group {
		for j := 1; j < len(ids); j++ {
			if ids[j] <= ids[j-1] {
				t.Fatalf("band-0 key %#x: internal IDs %v not ascending with original order", k, ids)
			}
		}
	}
	// Collision-connected components are contiguous internal runs:
	// recompute the (uncapped — n is far below maxUnionBucket) closure
	// and check each component occupies exactly [min, min+size) in
	// internal space.
	root := make([]int, n)
	for i := range root {
		root[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if root[x] != x {
			root[x] = find(root[x])
		}
		return root[x]
	}
	for b := 0; b < p.Bands; b++ {
		first := map[uint64]int{}
		for i := 0; i < n; i++ {
			k := keys[i*p.Bands+b]
			if f, ok := first[k]; ok {
				ra, rb := find(f), find(i)
				if ra != rb {
					root[rb] = ra
				}
			} else {
				first[k] = i
			}
		}
	}
	comp := map[int][]int32{}
	for i := 0; i < n; i++ {
		r := find(i)
		comp[r] = append(comp[r], perm[i])
	}
	for r, ids := range comp {
		lo, hi := ids[0], ids[0]
		for _, id := range ids {
			lo, hi = min(lo, id), max(hi, id)
		}
		if int(hi-lo)+1 != len(ids) {
			t.Fatalf("component of %d: internal IDs span [%d,%d] for %d items — not contiguous", r, lo, hi, len(ids))
		}
	}
	if sh.ReorderTime() <= 0 {
		t.Fatal("reordered build recorded no reorder time")
	}
}

// TestReorderedQueriesMatchSingle is the reorder analogue of
// TestShardedQueriesMatchSingle: on a reordered index every query path
// emits *internal* IDs, and mapping each through inv must reproduce
// the unsharded, unreordered oracle's candidate stream exactly — same
// items, same enumeration order — for every shard count, proving the
// ascending-original emission contract.
func TestReorderedQueriesMatchSingle(t *testing.T) {
	const n = 260
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 21)
	ref := singleReference(t, p, 7, sets, true)
	refKeys := signKeysFor(&Sharded{params: p, shards: []*Index{ref}, single: ref}, sets, 1)
	for _, shards := range []int{1, 2, 3, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("s=%d/w=%d", shards, workers), func(t *testing.T) {
				sh, err := NewSharded(p, 7, n, shards)
				if err != nil {
					t.Fatal(err)
				}
				sh.SetReorder(true)
				if err := sh.BuildFrozen(refKeys, n, workers); err != nil {
					t.Fatal(err)
				}
				_, inv := sh.ReorderMap()
				if inv == nil {
					t.Fatal("range BuildFrozen with SetReorder(true) did not reorder")
				}
				toOrig := func(ids []int32) []int32 {
					out := make([]int32, len(ids))
					for i, id := range ids {
						out[i] = inv[id]
					}
					return out
				}
				q := sh.NewQuery()
				for i := 0; i < n; i++ {
					want := collectCandidates(ref, int32(i))
					got := toOrig(collectQueryCandidates(q, int32(i)))
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("item %d candidates: want %v, got %v", i, want, got)
					}
				}
				// Unknown items stay silent.
				if got := collectQueryCandidates(q, int32(n+5)); got != nil {
					t.Fatalf("out-of-range item returned %v", got)
				}
				// Batched block sweep.
				for _, blockLen := range []int{1, 7, 64} {
					for lo := 0; lo < n; lo += blockLen {
						hi := min(lo+blockLen, n)
						blk := make([]int32, 0, hi-lo)
						for i := lo; i < hi; i++ {
							blk = append(blk, int32(i))
						}
						got := collectBatch(q, blk)
						for pos, item := range blk {
							want := collectCandidates(ref, item)
							if !reflect.DeepEqual(want, toOrig(got[pos])) {
								t.Fatalf("block item %d: want %v, got %v", item, want, toOrig(got[pos]))
							}
						}
					}
				}
				if shards > 1 {
					local, foreign := sh.FanOutLocality()
					if local <= 0 {
						t.Fatalf("no shard-local candidates counted (local=%d foreign=%d)", local, foreign)
					}
				}
			})
		}
	}
}

// TestReorderedReverseMatchesSingle pins the reverse-view boundary:
// sources are original IDs in, emitted items are original IDs out, and
// the emitted set equals the unreordered oracle's.
func TestReorderedReverseMatchesSingle(t *testing.T) {
	const n = 220
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 17)
	ref := singleReference(t, p, 7, sets, true)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			sh, _ := buildReordered(t, p, 7, sets, shards, 2)
			rv := sh.NewReverse()
			if rv == nil {
				t.Fatal("NewReverse returned nil on a reordered index")
			}
			refRv := ref.NewReverse()
			for _, sources := range [][]int32{{0}, {3, 77, 150}, {n - 1, 0, 42}} {
				want := map[int32]bool{}
				got := map[int32]bool{}
				for _, s := range sources {
					refRv.AddSource(s)
					rv.AddSource(s)
				}
				refRv.Emit(func(it int32) bool { want[it] = true; return true })
				rv.Emit(func(it int32) bool { got[it] = true; return true })
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("sources %v: want %d items, got %d (sets differ)", sources, len(want), len(got))
				}
			}
		})
	}
}

// TestReorderInertLayouts pins the layout that must never reorder even
// with SetReorder(true): the per-item Insert/Freeze path.
func TestReorderInertLayouts(t *testing.T) {
	const n = 120
	p := Params{Bands: 4, Rows: 2}
	sets := testSets(n, 9)
	sh, err := NewSharded(p, 7, n, 3)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetReorder(true)
	for i, s := range sets {
		if err := sh.Insert(int32(i), s); err != nil {
			t.Fatal(err)
		}
	}
	sh.Freeze()
	if perm, _ := sh.ReorderMap(); perm != nil {
		t.Fatal("Insert/Freeze index reordered")
	}
}

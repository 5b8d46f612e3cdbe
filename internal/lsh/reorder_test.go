package lsh

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// The index keeps items in the order they are given. The tests below
// build it over the items in a locality order and check that, mapped
// back, it answers like the index over the original order: bucket
// membership depends on the items' sets, not their IDs.

// localityOrder returns the item order that makes every band-0 bucket
// contiguous (stable in ID order): order[new] = original.
func localityOrder(p Params, seed uint64, sets [][]uint64) []int {
	keys := bandKeysOf(p, seed, sets)
	order := make([]int, len(sets))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return keys[order[a]*p.Bands] < keys[order[b]*p.Bands] })
	return order
}

// reorderSets returns sets in the given order.
func reorderSets(sets [][]uint64, order []int) [][]uint64 {
	out := make([][]uint64, len(order))
	for i, o := range order {
		out[i] = sets[o]
	}
	return out
}

// TestReorderedQueriesMatchSingle: on an index built by BuildFrozen
// (one and four workers) over the items in locality order, every query
// path emits the new IDs, and mapping them back must reproduce the
// brute-force layout of the same items in original order bucket by
// bucket — the same items in each shared band bucket. For s>1 the
// locality order is split into s contiguous ranges, each built as an
// index of its own with local IDs, and each range's answers must be
// those of the brute-force layout of its items in original order.
func TestReorderedQueriesMatchSingle(t *testing.T) {
	const n = 260
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 21)
	order := localityOrder(p, 7, sets)
	if slices.IsSorted(order) {
		t.Fatal("the locality order is the identity")
	}
	ordered := reorderSets(sets, order)
	for _, shards := range []int{1, 2, 3, 4} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("s=%d/w=%d", shards, workers), func(t *testing.T) {
				cuts := itemRanges(n, shards)
				for r := 0; r < shards; r++ {
					lo, hi := cuts[r], cuts[r+1]
					ix := buildFrozenIndex(t, p, 7, ordered[lo:hi], workers)
					toOrig := order[lo:hi]
					// The reference holds the range's items in original
					// order: its item j is original item origIDs[j].
					origIDs := slices.Clone(toOrig)
					slices.Sort(origIDs)
					ref := bruteIndex(t, p, 7, reorderSets(sets, origIDs))
					for l, o := range toOrig {
						j, _ := slices.BinarySearch(origIDs, o)
						want := mappedBuckets(ref, int32(j), origIDs)
						if got := mappedBuckets(ix, int32(l), toOrig); !reflect.DeepEqual(want, got) {
							t.Fatalf("range %d item %d buckets: want %v, got %v", r, o, want, got)
						}
						var wantAll, gotAll []int32
						ref.Candidates(int32(j), func(c int32) { wantAll = append(wantAll, int32(origIDs[c])) })
						ix.Candidates(int32(l), func(c int32) { gotAll = append(gotAll, int32(toOrig[c])) })
						slices.Sort(wantAll)
						slices.Sort(gotAll)
						if !reflect.DeepEqual(wantAll, gotAll) {
							t.Fatalf("range %d item %d candidates: want %v, got %v", r, o, wantAll, gotAll)
						}
					}
					if got := collectCandidates(ix, int32(hi-lo+5)); got != nil {
						t.Fatalf("out-of-range item returned %v", got)
					}
				}
			})
		}
	}
}

// mappedBuckets returns item's band buckets on ix, each mapped through
// toOrig and sorted.
func mappedBuckets(ix *Index, item int32, toOrig []int) [][]int32 {
	var out [][]int32
	ix.CandidatesBatch([]int32{item}, func(_ int, bucket []int32, _ int32) {
		b := []int32{}
		for _, id := range bucket {
			b = append(b, int32(toOrig[id]))
		}
		slices.Sort(b)
		out = append(out, b)
	})
	return out
}

// TestReorderedReverseMatchesSingle pins the reverse view on an index
// over the items in locality order (for s>1, on each range's index of
// it, with local IDs): sources given as the index's IDs emit, mapped
// back, the original-order reference's set restricted to the index's
// items.
func TestReorderedReverseMatchesSingle(t *testing.T) {
	const n = 220
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 17)
	ref := bruteIndex(t, p, 7, sets)
	order := localityOrder(p, 7, sets)
	inv := make([]int, n)
	for i, o := range order {
		inv[o] = i
	}
	ordered := reorderSets(sets, order)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			cuts := itemRanges(n, shards)
			for r := 0; r < shards; r++ {
				lo, hi := cuts[r], cuts[r+1]
				ix := buildFrozenIndex(t, p, 7, ordered[lo:hi], 2)
				rv, refRv := ix.NewReverse(), ref.NewReverse()
				for _, sources := range [][]int32{{0}, {3, 77, 150}, {n - 1, 0, 42}, {int32(order[lo]), int32(order[hi-1])}} {
					want := map[int32]bool{}
					got := map[int32]bool{}
					for _, s := range sources {
						if l := inv[s] - lo; l >= 0 && l < hi-lo {
							refRv.AddSource(s)
							rv.AddSource(int32(l))
						}
					}
					refRv.Emit(func(it int32) bool {
						if l := inv[it] - lo; l >= 0 && l < hi-lo {
							want[it] = true
						}
						return true
					})
					rv.Emit(func(it int32) bool { got[int32(order[lo+int(it)])] = true; return true })
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("range %d sources %v: want %d items, got %d (sets differ)", r, sources, len(want), len(got))
					}
				}
			}
		})
	}
}

// TestReorderInertLayouts pins that the build does not reorder: an
// index built by BuildFrozen, at one worker or four, keeps every item
// under its own ID (every slice the block sweep reports for it holds
// it), and
// the deprecated ReorderTime reads zero beside a one-entry BuildTimes.
func TestReorderInertLayouts(t *testing.T) {
	const n = 120
	p := Params{Bands: 4, Rows: 2}
	sets := testSets(n, 9)
	for name, ix := range map[string]*Index{
		"build-w1": buildFrozenIndex(t, p, 7, sets, 1),
		"build-w4": buildFrozenIndex(t, p, 7, sets, 4),
	} {
		for i := 0; i < n; i++ {
			ix.CandidatesBatch([]int32{int32(i)}, func(_ int, bucket []int32, _ int32) {
				if !slices.Contains(bucket, int32(i)) {
					t.Fatalf("%s: item %d missing from its own bucket %v", name, i, bucket)
				}
			})
		}
		if d := ix.ReorderTime(); d != 0 {
			t.Fatalf("%s: ReorderTime = %v, want 0", name, d)
		}
		if bt := ix.BuildTimes(); len(bt) != 1 {
			t.Fatalf("%s: BuildTimes = %v, want one entry", name, bt)
		}
	}
}

// TestForeignSlotsSkippedLayouts pins that no index builds a
// foreign-emptiness bitmap or fans a query out: the deprecated
// accessors read zero after queries.
func TestForeignSlotsSkippedLayouts(t *testing.T) {
	p := Params{Bands: 4, Rows: 2}
	sets := testSets(40, 5)
	ix := buildFrozenIndex(t, p, 7, sets, 2)
	for _, blk := range blocks(len(sets), 7) {
		collectBatch(ix, blk)
	}
	if b := ix.ForeignSlotBytes(); b != 0 {
		t.Fatalf("ForeignSlotBytes = %d, want 0", b)
	}
	if probes, direct := ix.FanOutOps(); probes != 0 || direct != 0 {
		t.Fatalf("FanOutOps = %d, %d, want 0, 0", probes, direct)
	}
	if local, foreign := ix.FanOutLocality(); local != 0 || foreign != 0 {
		t.Fatalf("FanOutLocality = %d, %d, want 0, 0", local, foreign)
	}
}

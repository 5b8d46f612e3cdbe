package lsh

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// The index has one shard. The tests below check it (s=1) against a
// reference built item by item (Insert, then Freeze when frozen). Their
// s>1 cases split the items into s contiguous ranges and index each
// range on its own. Apart from TestShardedBuildDeterministic, which
// gives a range local IDs, each range's index spans all n IDs and
// leaves the other items out: it must answer its own items with the
// reference's answer restricted to the range, and every other item with
// nothing.

// itemRanges splits [0, n) into s contiguous ranges [cuts[i],
// cuts[i+1]).
func itemRanges(n, s int) []int {
	cuts := make([]int, s+1)
	for i := range cuts {
		cuts[i] = i * n / s
	}
	return cuts
}

// rangeIndex indexes the items of [lo, hi) only, over all len(sets)
// IDs, frozen on request.
func rangeIndex(t *testing.T, p Params, seed uint64, sets [][]uint64, lo, hi int, freeze bool) *Index {
	t.Helper()
	ix := mustIndex(t, p, seed, len(sets))
	for i := lo; i < hi; i++ {
		if err := ix.Insert(int32(i), sets[i]); err != nil {
			t.Fatal(err)
		}
	}
	if freeze {
		ix.Freeze()
	}
	return ix
}

// within returns the IDs of ids in [lo, hi), in order.
func within(ids []int32, lo, hi int) []int32 {
	var out []int32
	for _, id := range ids {
		if int(id) >= lo && int(id) < hi {
			out = append(out, id)
		}
	}
	return out
}

// inRange returns want[item] restricted to [lo, hi) for an item of the
// range, and nil for any other item.
func inRange(want []int32, item int32, lo, hi int) []int32 {
	if int(item) < lo || int(item) >= hi {
		return nil
	}
	return within(want, lo, hi)
}

// singleReference builds the reference: one Index with every set
// inserted in ascending order.
func singleReference(t *testing.T, p Params, seed uint64, sets [][]uint64, freeze bool) *Index {
	t.Helper()
	ix := mustIndex(t, p, seed, len(sets))
	for i, s := range sets {
		if err := ix.Insert(int32(i), s); err != nil {
			t.Fatal(err)
		}
	}
	if freeze {
		ix.Freeze()
	}
	return ix
}

// buildFrozenIndex builds a frozen index over sets the way the
// bootstrap does: BuildFrozen from a presigned arena.
func buildFrozenIndex(t testing.TB, p Params, seed uint64, sets [][]uint64, workers int) *Index {
	t.Helper()
	ix, err := NewIndex(p, seed, len(sets))
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.BuildFrozen(SignAll(p, len(sets), workers, setSigner(ix, sets), nil), len(sets), workers); err != nil {
		t.Fatal(err)
	}
	return ix
}

// collectBatch runs one CandidatesBatch sweep over blk and returns each
// position's candidate stream. It records the bucket slices during the
// sweep and reads them only after the sweep returns, so every caller
// also checks the slice-lifetime contract: buckets stay valid until
// the index changes.
func collectBatch(ix *Index, blk []int32) [][]int32 {
	buckets := make([][][]int32, len(blk))
	ix.CandidatesBatch(blk, func(pos int, bucket []int32, _ int32) {
		buckets[pos] = append(buckets[pos], bucket)
	})
	got := make([][]int32, len(blk))
	for pos, bs := range buckets {
		for _, b := range bs {
			got[pos] = append(got[pos], b...)
		}
	}
	return got
}

// blocks splits [0, n) into consecutive blocks of blockLen items.
func blocks(n, blockLen int) [][]int32 {
	var out [][]int32
	for lo := 0; lo < n; lo += blockLen {
		blk := make([]int32, 0, blockLen)
		for i := lo; i < min(lo+blockLen, n); i++ {
			blk = append(blk, int32(i))
		}
		out = append(out, blk)
	}
	return out
}

// TestShardedBuildDeterministic pins per-range frozen-array
// determinism: split one key arena into s contiguous item ranges, and
// each range's index (local IDs) built directly from its slice of the
// arena (BuildFrozen, any worker count) must be byte-identical to
// inserting the range's items in ascending order and freezing, with
// one build time recorded.
func TestShardedBuildDeterministic(t *testing.T) {
	const n = 230
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 13)
	keys := SignAll(p, n, 2, setSigner(mustIndex(t, p, 7, n), sets), nil)
	for _, shards := range []int{2, 3, 4} {
		cuts := itemRanges(n, shards)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("s=%d/w=%d", shards, workers), func(t *testing.T) {
				for r := 0; r < shards; r++ {
					lo, hi := cuts[r], cuts[r+1]
					ref := singleReference(t, p, 7, sets[lo:hi], true)
					ix := mustIndex(t, p, 7, hi-lo)
					if err := ix.BuildFrozen(keys[lo*p.Bands:hi*p.Bands], hi-lo, workers); err != nil {
						t.Fatal(err)
					}
					if got := ix.NumInserted(); got != hi-lo {
						t.Fatalf("range %d: NumInserted = %d, want %d", r, got, hi-lo)
					}
					if !ix.Frozen() {
						t.Fatalf("range %d: not frozen after BuildFrozen", r)
					}
					if bt := ix.BuildTimes(); len(bt) != 1 {
						t.Fatalf("range %d: BuildTimes has %d entries, want 1", r, len(bt))
					}
					assertFrozenIdentical(t, ref, ix)
				}
			})
		}
	}
}

// TestShardedQueriesMatchSingle: the per-item and batched block query
// paths must reproduce the reference's candidate stream exactly (same
// items, same enumeration order), on the build phase and frozen; for
// s=1 on one index (frozen: BuildFrozen), for s>1 on each range's index
// restricted to its range. Unknown and uninserted items are silent. The
// one-shard build phase also answers an out-of-index signature like the
// reference.
func TestShardedQueriesMatchSingle(t *testing.T) {
	const n = 260
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 21)
	probe := []uint64{100, 101, 102, 103, 104}
	for _, frozen := range []bool{false, true} {
		ref := singleReference(t, p, 7, sets, frozen)
		want := make([][]int32, n)
		for i := range want {
			want[i] = collectCandidates(ref, int32(i))
		}
		for _, shards := range []int{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("frozen=%v/s=%d", frozen, shards), func(t *testing.T) {
				cuts := itemRanges(n, shards)
				for r := 0; r < shards; r++ {
					lo, hi := cuts[r], cuts[r+1]
					var ix *Index
					if frozen && shards == 1 {
						ix = buildFrozenIndex(t, p, 7, sets, 2)
					} else {
						ix = rangeIndex(t, p, 7, sets, lo, hi, frozen)
					}
					for i := 0; i < n; i++ {
						w := inRange(want[i], int32(i), lo, hi)
						if got := collectCandidates(ix, int32(i)); !reflect.DeepEqual(w, got) {
							t.Fatalf("range %d item %d candidates: want %v, got %v", r, i, w, got)
						}
					}
					if got := collectCandidates(ix, int32(n+5)); got != nil {
						t.Fatalf("out-of-range item returned %v", got)
					}
					for _, blockLen := range []int{1, 7, 64} {
						for _, blk := range blocks(n, blockLen) {
							got := collectBatch(ix, blk)
							for pos, item := range blk {
								if w := inRange(want[item], item, lo, hi); !reflect.DeepEqual(w, got[pos]) {
									t.Fatalf("range %d block item %d: want %v, got %v", r, item, w, got[pos])
								}
							}
						}
					}
					ix.CandidatesBatch([]int32{int32(lo), int32(n + 9)}, func(pos int, _ []int32, _ int32) {
						if pos != 0 {
							t.Fatalf("uninserted item produced a bucket at pos %d", pos)
						}
					})
				}
				if !frozen && shards == 1 {
					ix := singleReference(t, p, 7, sets, false)
					sig := make([]uint64, p.SignatureLen())
					ix.Scheme().Sign(probe, sig)
					var wantSig, gotSig []int32
					ref.CandidatesOfSignature(sig, func(o int32) { wantSig = append(wantSig, o) })
					ix.CandidatesOfSignature(sig, func(o int32) { gotSig = append(gotSig, o) })
					if !reflect.DeepEqual(wantSig, gotSig) {
						t.Fatalf("of-signature: want %v, got %v", wantSig, gotSig)
					}
				}
			})
		}
	}
}

// TestShardedReverseMatchesSingle checks the reverse view emits
// exactly the reference's collision set for any source set (order is
// not part of the contract; the consumer dedupes) — for s=1 on a
// BuildFrozen index, for s>1 on each range's index, restricted to the
// range, where sources outside it are ignored — and stays reusable
// after an early-stopped Emit.
func TestShardedReverseMatchesSingle(t *testing.T) {
	const n = 220
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 17)
	ref := singleReference(t, p, 7, sets, true)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			cuts := itemRanges(n, shards)
			for r := 0; r < shards; r++ {
				lo, hi := cuts[r], cuts[r+1]
				ix := rangeIndex(t, p, 7, sets, lo, hi, true)
				if shards == 1 {
					ix = buildFrozenIndex(t, p, 7, sets, 2)
				}
				rv, refRv := ix.NewReverse(), ref.NewReverse()
				for _, sources := range [][]int32{{0}, {3, 77, 150}, {n - 1, 0, 42}, {int32(lo), int32(hi - 1)}} {
					want := map[int32]bool{}
					got := map[int32]bool{}
					for _, s := range sources {
						if int(s) >= lo && int(s) < hi {
							refRv.AddSource(s)
						}
						rv.AddSource(s)
					}
					refRv.Emit(func(it int32) bool {
						if int(it) >= lo && int(it) < hi {
							want[it] = true
						}
						return true
					})
					rv.Emit(func(it int32) bool { got[it] = true; return true })
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("range %d sources %v: want %d items, got %d (sets differ)", r, sources, len(want), len(got))
					}
				}
				rv.AddSource(int32(lo))
				rv.Emit(func(int32) bool { return false })
				count := 0
				rv.AddSource(int32(lo))
				rv.Emit(func(int32) bool { count++; return true })
				if count == 0 {
					t.Fatal("reverse view not reusable after an early-stopped Emit")
				}
			}
		})
	}
}

// TestShardedFanOutMatchesUnsharded pins both query paths — per item
// and batched block sweep — to the reference's candidate stream: for
// s=1 on a BuildFrozen index; for s>1 each query fans out to every
// range's index, and the answers, merged in range order, must be the
// reference's stream restricted to the item's range (only the item's
// own range answers). hedged=true runs the check twice at once, on two
// goroutines over the same indexes (the concurrent reads a frozen index
// allows); each must reproduce the stream exactly. The stride=false
// prefix names the range partition, the only one the tests ever built.
func TestShardedFanOutMatchesUnsharded(t *testing.T) {
	const n = 240
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 21)
	ref := singleReference(t, p, 7, sets, true)
	wantItems := make([][]int32, n)
	for i := range wantItems {
		wantItems[i] = collectCandidates(ref, int32(i))
	}
	for _, shards := range []int{1, 2, 4} {
		for _, hedged := range []bool{false, true} {
			t.Run(fmt.Sprintf("stride=false/s=%d/hedged=%v", shards, hedged), func(t *testing.T) {
				cuts := itemRanges(n, shards)
				ranges := make([]*Index, shards)
				for r := range ranges {
					ranges[r] = rangeIndex(t, p, 7, sets, cuts[r], cuts[r+1], true)
				}
				if shards == 1 {
					ranges[0] = buildFrozenIndex(t, p, 7, sets, 2)
				}
				rangeOf := func(item int32) int {
					r := 0
					for int(item) >= cuts[r+1] {
						r++
					}
					return r
				}
				check := func() error {
					for i := 0; i < n; i++ {
						var got []int32
						for _, ix := range ranges {
							got = append(got, collectCandidates(ix, int32(i))...)
						}
						r := rangeOf(int32(i))
						if want := within(wantItems[i], cuts[r], cuts[r+1]); !reflect.DeepEqual(want, got) {
							return fmt.Errorf("item %d: want %v, got %v", i, want, got)
						}
					}
					for _, blockLen := range []int{1, 7, 64} {
						for _, blk := range blocks(n, blockLen) {
							got := make([][]int32, len(blk))
							for _, ix := range ranges {
								for pos, c := range collectBatch(ix, blk) {
									got[pos] = append(got[pos], c...)
								}
							}
							for pos, item := range blk {
								r := rangeOf(item)
								if want := within(wantItems[item], cuts[r], cuts[r+1]); !reflect.DeepEqual(want, got[pos]) {
									return fmt.Errorf("block item %d: want %v, got %v", item, want, got[pos])
								}
							}
						}
					}
					return nil
				}
				errs := make([]error, 1)
				if hedged {
					errs = make([]error, 2)
				}
				var wg sync.WaitGroup
				for h := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[h] = check()
					}()
				}
				wg.Wait()
				for h, err := range errs {
					if err != nil {
						t.Fatalf("reader %d: %v", h, err)
					}
				}
			})
		}
	}
}

// TestShardedReverseEmitsSourceUnion pins the reverse view to the
// query path, on the one index and on each range's index: the items it
// emits for a source set are exactly the union of the sources'
// Candidates streams on the same index (collision is symmetric, and
// every item shares its own buckets), and a second view over the same
// index replays the identical emission order.
func TestShardedReverseEmitsSourceUnion(t *testing.T) {
	const n = 200
	p := Params{Bands: 5, Rows: 3}
	sets := testSets(n, 5)
	sources := []int32{0, 3, 17, 70, 140, int32(n - 1)}
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			cuts := itemRanges(n, shards)
			for r := 0; r < shards; r++ {
				ix := rangeIndex(t, p, 7, sets, cuts[r], cuts[r+1], true)
				if shards == 1 {
					ix = buildFrozenIndex(t, p, 7, sets, 2)
				}
				want := map[int32]bool{}
				for _, s := range sources {
					for _, it := range collectCandidates(ix, s) {
						want[it] = true
					}
				}
				if len(want) == 0 {
					t.Fatalf("range %d holds none of the sources", r)
				}
				emit := func() []int32 {
					rv := ix.NewReverse()
					for _, s := range sources {
						rv.AddSource(s)
					}
					var out []int32
					rv.Emit(func(item int32) bool { out = append(out, item); return true })
					return out
				}
				first := emit()
				got := map[int32]bool{}
				for _, it := range first {
					got[it] = true
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("range %d reverse emission: %d distinct items, queries %d (sets differ)", r, len(got), len(want))
				}
				if again := emit(); !reflect.DeepEqual(first, again) {
					t.Fatalf("range %d reverse emission not replayable: %v then %v", r, first, again)
				}
			}
		})
	}
}

// TestShardedInsertErrors pins insert validation: negative items and
// duplicates are rejected, and BuildFrozen enforces the arena shape.
func TestShardedInsertErrors(t *testing.T) {
	p := Params{Bands: 2, Rows: 2}
	sets := testSets(8, 3)
	ix := mustIndex(t, p, 1, 8)
	if err := ix.Insert(-1, sets[0]); err == nil {
		t.Fatal("negative insert accepted")
	}
	if err := ix.Insert(3, sets[3]); err != nil {
		t.Fatal(err)
	}
	if err := ix.Insert(3, sets[3]); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	ix2 := mustIndex(t, p, 1, 8)
	if err := ix2.BuildFrozen(make([]uint64, 3), 8, 1); err == nil {
		t.Fatal("wrong arena length accepted")
	}
	if err := ix2.BuildFrozen(make([]uint64, 4*p.Bands), 8, 1); err == nil {
		t.Fatal("wrong item count accepted")
	}
}

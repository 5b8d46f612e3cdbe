package lsh

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// The index has one shard. The tests below check it (s=1) against the
// brute-force layout of the same band keys (bruteFrozen). Their s>1
// cases split the items into s contiguous ranges and index each range
// on its own. Apart from TestShardedBuildDeterministic, which gives a
// range local IDs, each range's index spans all n IDs and leaves the
// other items out (a brute-force layout, as BuildFrozen files every
// ID): it must answer its own items as the brute force over the
// range's items does, and every other item with nothing.

// itemRanges splits [0, n) into s contiguous ranges [cuts[i],
// cuts[i+1]).
func itemRanges(n, s int) []int {
	cuts := make([]int, s+1)
	for i := range cuts {
		cuts[i] = i * n / s
	}
	return cuts
}

// rangeFlags marks the items of [lo, hi) among n.
func rangeFlags(n, lo, hi int) []bool {
	flags := make([]bool, n)
	for i := lo; i < hi; i++ {
		flags[i] = true
	}
	return flags
}

// singleReference is the reference: the brute-force layout of every
// item of sets.
func singleReference(t *testing.T, p Params, seed uint64, sets [][]uint64) *Index {
	t.Helper()
	return bruteIndex(t, p, seed, sets, 0, len(sets))
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
// arena (BuildFrozen, any worker count) must be value-identical to the
// brute-force layout of the range's items, with one build time
// recorded.
func TestShardedBuildDeterministic(t *testing.T) {
	const n = 230
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 13)
	keys := SignAll(p, n, 2, setSigner(mustIndex(t, p, 7), sets), nil)
	for _, shards := range []int{2, 3, 4} {
		cuts := itemRanges(n, shards)
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("s=%d/w=%d", shards, workers), func(t *testing.T) {
				for r := 0; r < shards; r++ {
					lo, hi := cuts[r], cuts[r+1]
					ref := singleReference(t, p, 7, sets[lo:hi])
					ix := mustIndex(t, p, 7)
					if err := ix.BuildFrozen(keys[lo*p.Bands:hi*p.Bands], hi-lo, workers); err != nil {
						t.Fatal(err)
					}
					if got := ix.NumInserted(); got != hi-lo {
						t.Fatalf("range %d: NumInserted = %d, want %d", r, got, hi-lo)
					}
					if ix.frozen == nil {
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

// TestShardedQueriesMatchSingle: on the frozen layout (frozen=true),
// the per-item and batched block query paths must reproduce the
// brute-force candidate stream exactly (same items, same enumeration
// order); for s=1 on one BuildFrozen index, for s>1 on each range's
// index against the brute force over the range's items. Unknown and
// uninserted items are silent. With frozen=false each range's items are
// filed instead, as their own values, into a band table of their own,
// which must hold them under exactly the brute-force buckets of the
// range's items, and the one-range table's Probe of an out-of-index
// signature must report the brute-force collisions of its band keys.
func TestShardedQueriesMatchSingle(t *testing.T) {
	const n = 260
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 21)
	scheme := mustIndex(t, p, 7).Scheme()
	keys := bandKeysOf(mustIndex(t, p, 7), sets)
	// An out-of-index set: item 3's with one value replaced.
	probe := append(slices.Clone(sets[3][:11]), 9999)
	for _, frozen := range []bool{false, true} {
		for _, shards := range []int{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("frozen=%v/s=%d", frozen, shards), func(t *testing.T) {
				cuts := itemRanges(n, shards)
				for r := 0; r < shards; r++ {
					lo, hi := cuts[r], cuts[r+1]
					flags := rangeFlags(n, lo, hi)
					if !frozen {
						bt := mustBandTable(t, p)
						fileItems(t, bt, scheme, sets, span(lo, hi))
						for i := lo; i < hi; i++ {
							var got []int32
							for b := 0; b < p.Bands; b++ {
								got = append(got, bt.bucketOf(b, keys[i*p.Bands+b])...)
							}
							if w := slices.Concat(bruteBuckets(keys, p.Bands, flags, i)...); !reflect.DeepEqual(w, got) {
								t.Fatalf("range %d item %d: band table files %v, want %v", r, i, got, w)
							}
						}
						continue
					}
					ix := bruteIndex(t, p, 7, sets, lo, hi)
					if shards == 1 {
						ix = buildFrozenIndex(t, p, 7, sets, 2)
					}
					answer := func(item int32) []int32 {
						if !flags[item] {
							return nil
						}
						return bruteCandidates(keys, p.Bands, flags, int(item))
					}
					for i := 0; i < n; i++ {
						w := answer(int32(i))
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
								if w := answer(item); !reflect.DeepEqual(w, got[pos]) {
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
					bt := mustBandTable(t, p)
					fileItems(t, bt, scheme, sets, span(0, n))
					sig := make([]uint64, p.SignatureLen())
					scheme.Sign(probe, sig)
					var wantSig, gotSig []int32
					for b := 0; b < p.Bands; b++ {
						key := bandKeyOf(p, sig, b)
						for i := 0; i < n; i++ {
							if keys[i*p.Bands+b] == key {
								wantSig = append(wantSig, int32(i))
							}
						}
					}
					gotSig = probeAll(t, bt, sig)
					if len(wantSig) == 0 || !reflect.DeepEqual(wantSig, gotSig) {
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
	ref := singleReference(t, p, 7, sets)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			cuts := itemRanges(n, shards)
			for r := 0; r < shards; r++ {
				lo, hi := cuts[r], cuts[r+1]
				ix := bruteIndex(t, p, 7, sets, lo, hi)
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
// and batched block sweep — to the brute-force candidate stream: for
// s=1 on a BuildFrozen index; for s>1 each query fans out to every
// range's index, and the answers, merged in range order, must be the
// brute-force stream over the items of the item's range (only the
// item's own range answers). hedged=true runs the check twice at once, on two
// goroutines over the same indexes (the concurrent reads a frozen index
// allows); each must reproduce the stream exactly. The stride=false
// prefix names the range partition, the only one the tests ever built.
func TestShardedFanOutMatchesUnsharded(t *testing.T) {
	const n = 240
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 21)
	keys := bandKeysOf(mustIndex(t, p, 7), sets)
	for _, shards := range []int{1, 2, 4} {
		for _, hedged := range []bool{false, true} {
			t.Run(fmt.Sprintf("stride=false/s=%d/hedged=%v", shards, hedged), func(t *testing.T) {
				cuts := itemRanges(n, shards)
				// wantItems[i] is item i's stream over its range's items.
				wantItems := make([][]int32, n)
				for r := 0; r < shards; r++ {
					flags := rangeFlags(n, cuts[r], cuts[r+1])
					for i := cuts[r]; i < cuts[r+1]; i++ {
						wantItems[i] = bruteCandidates(keys, p.Bands, flags, i)
					}
				}
				ranges := make([]*Index, shards)
				for r := range ranges {
					ranges[r] = bruteIndex(t, p, 7, sets, cuts[r], cuts[r+1])
				}
				if shards == 1 {
					ranges[0] = buildFrozenIndex(t, p, 7, sets, 2)
				}
				check := func() error {
					for i := 0; i < n; i++ {
						var got []int32
						for _, ix := range ranges {
							got = append(got, collectCandidates(ix, int32(i))...)
						}
						if want := wantItems[i]; !reflect.DeepEqual(want, got) {
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
								if want := wantItems[item]; !reflect.DeepEqual(want, got[pos]) {
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
				ix := bruteIndex(t, p, 7, sets, cuts[r], cuts[r+1])
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

// TestShardedInsertErrors pins insert validation: a band table rejects
// a signature of the wrong length, and BuildFrozen enforces the arena
// shape.
func TestShardedInsertErrors(t *testing.T) {
	p := Params{Bands: 2, Rows: 2}
	if err := mustBandTable(t, p).Probe(make([]uint64, p.SignatureLen()+1), nil); err == nil {
		t.Fatal("signature of the wrong length accepted")
	}
	ix2 := mustIndex(t, p, 1)
	if err := ix2.BuildFrozen(make([]uint64, 3), 8, 1); err == nil {
		t.Fatal("wrong arena length accepted")
	}
	if err := ix2.BuildFrozen(make([]uint64, 4*p.Bands), 8, 1); err == nil {
		t.Fatal("wrong item count accepted")
	}
}

package lsh

import (
	"fmt"
	"reflect"
	"testing"
)

// buildFrozenSharded builds a range-sharded frozen index over sets.
func buildFrozenSharded(t *testing.T, p Params, seed uint64, sets [][]uint64, shards int) *Sharded {
	t.Helper()
	sh, err := NewSharded(p, seed, len(sets), shards)
	if err != nil {
		t.Fatal(err)
	}
	keys := signKeysFor(sh, sets, 2)
	if err := sh.BuildFrozen(keys, len(sets), 2); err != nil {
		t.Fatal(err)
	}
	return sh
}

// buildLayout builds a range-sharded index over sets either directly
// from the presigned arena (BuildFrozen, reordered on request) or
// through the map builder and Freeze, where the reorder request is
// inert.
func buildLayout(t testing.TB, p Params, seed uint64, sets [][]uint64, shards int, freeze, reorder bool) *Sharded {
	t.Helper()
	sh, err := NewSharded(p, seed, len(sets), shards)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetReorder(reorder)
	if !freeze {
		if err := sh.BuildFrozen(signKeysFor(sh, sets, 2), len(sets), 2); err != nil {
			t.Fatal(err)
		}
		return sh
	}
	for i, s := range sets {
		if err := sh.Insert(int32(i), s); err != nil {
			t.Fatal(err)
		}
	}
	sh.Freeze()
	return sh
}

// assertForeignEmptyBitmap checks the bitmap property on a frozen
// multi-shard range index: bit u of shard s is set exactly when no
// other shard's band table holds the key of s's bucket slot u, every
// bitmap is sized for its shard's buckets with zero padding, and
// ForeignSlotBytes reports the bitmaps' size.
func assertForeignEmptyBitmap(t testing.TB, sh *Sharded) {
	t.Helper()
	if len(sh.foreignEmpty) != len(sh.shards) {
		t.Fatalf("%d bitmaps for %d shards", len(sh.foreignEmpty), len(sh.shards))
	}
	var bytes int64
	for s, ix := range sh.shards {
		fz := ix.frozen
		numSlots := len(fz.offsets) - 1
		words := sh.foreignEmpty[s]
		if len(words) != (numSlots+63)/64 {
			t.Fatalf("shard %d: %d bitmap words for %d buckets", s, len(words), numSlots)
		}
		bytes += 8 * int64(len(words))
		for b := 0; b < sh.params.Bands; b++ {
			for slot := fz.bandStart[b]; slot < fz.bandStart[b+1]; slot++ {
				shared := false
				for u, other := range sh.shards {
					if u != s && other.frozen.tables[b].get(fz.keys[slot]) >= 0 {
						shared = true
					}
				}
				if got := sh.foreignEmptyAt(s, slot); got == shared {
					t.Fatalf("shard %d band %d slot %d: bit %v, key shared with another shard: %v", s, b, slot, got, shared)
				}
			}
		}
		for slot := numSlots; slot < 64*len(words); slot++ {
			if words[slot>>6]&(1<<(slot&63)) != 0 {
				t.Fatalf("shard %d: padding bit %d set", s, slot)
			}
		}
	}
	if got := sh.ForeignSlotBytes(); got != bytes {
		t.Fatalf("ForeignSlotBytes = %d, bitmaps hold %d", got, bytes)
	}
}

// TestForeignSlotsMatchProbePath pins the foreign-emptiness bitmap
// against the key-probe path it short-cuts, on every layout that
// builds one: S∈{2,3,4}, BuildFrozen with reorder on and off, and the
// map builder frozen by Freeze. Each bit must equal "every probe of
// the other shards misses" (assertForeignEmptyBitmap); the per-item
// and block sweeps over the layout must reproduce the single-index
// candidate stream; and the block sweep's fan-out counters must
// account every (item, band, foreign shard) resolution exactly once —
// as a probe when the owner slot's bit is clear, as answered by the
// bitmap when it is set.
func TestForeignSlotsMatchProbePath(t *testing.T) {
	const n = 260
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 21)
	ref := singleReference(t, p, 7, sets, true)
	for _, shards := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			for _, freeze := range []bool{false, true} {
				for _, reorder := range []bool{false, true} {
					layout := map[bool]string{false: "build", true: "freeze"}[freeze]
					t.Run(fmt.Sprintf("%s/reorder=%v", layout, reorder), func(t *testing.T) {
						sh := buildLayout(t, p, 7, sets, shards, freeze, reorder)
						assertForeignEmptyBitmap(t, sh)
						perm, inv := sh.ReorderMap()
						if (perm != nil) != (reorder && !freeze) {
							t.Fatalf("reordered=%v, want %v", perm != nil, reorder && !freeze)
						}
						toOrig := func(ids []int32) []int32 {
							if inv == nil {
								return ids
							}
							out := make([]int32, len(ids))
							for i, id := range ids {
								out[i] = inv[id]
							}
							return out
						}
						q := sh.NewQuery()
						for i := 0; i < n; i++ {
							want := collectCandidates(ref, int32(i))
							if got := toOrig(collectQueryCandidates(q, int32(i))); !reflect.DeepEqual(want, got) {
								t.Fatalf("item %d candidates: want %v, got %v", i, want, got)
							}
						}
						probes0, direct0 := sh.FanOutOps()
						var wantProbes int64
						blk := make([]int32, 0, n)
						for i := 0; i < n; i++ {
							blk = append(blk, int32(i))
							internal := int32(i)
							if perm != nil {
								internal = perm[i]
							}
							s, local, _ := sh.part.locate(internal)
							own := sh.shards[s].frozen
							for b := 0; b < p.Bands; b++ {
								if !sh.foreignEmptyAt(s, own.slots[int(local)*p.Bands+b]) {
									wantProbes += int64(shards - 1)
								}
							}
						}
						got := collectBatch(q, blk)
						for pos, item := range blk {
							if want := collectCandidates(ref, item); !reflect.DeepEqual(want, toOrig(got[pos])) {
								t.Fatalf("block item %d: want %v, got %v", item, want, toOrig(got[pos]))
							}
						}
						probes, direct := sh.FanOutOps()
						total := int64(n) * int64(p.Bands) * int64(shards-1)
						if probes-probes0 != wantProbes || direct-direct0 != total-wantProbes {
							t.Fatalf("block sweep FanOutOps delta = (%d probes, %d direct), want (%d, %d)",
								probes-probes0, direct-direct0, wantProbes, total-wantProbes)
						}
					})
				}
			}
		})
	}
}

// TestForeignSlotsSkippedLayouts pins the layouts that build no
// foreign-emptiness bitmap: single shard, stride partition, unfrozen
// shards.
func TestForeignSlotsSkippedLayouts(t *testing.T) {
	p := Params{Bands: 4, Rows: 2}
	sets := testSets(40, 5)

	single := buildFrozenSharded(t, p, 7, sets, 1)
	if single.foreignEmpty != nil || single.ForeignSlotBytes() != 0 {
		t.Fatal("single-shard index built a foreign-emptiness bitmap")
	}

	stride, err := NewShardedStream(p, 7, 3, len(sets))
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sets {
		if err := stride.Insert(int32(i), s); err != nil {
			t.Fatal(err)
		}
	}
	stride.Freeze()
	if stride.foreignEmpty != nil || stride.ForeignSlotBytes() != 0 {
		t.Fatal("stride index built a foreign-emptiness bitmap")
	}

	unfrozen, err := NewSharded(p, 7, len(sets), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sets {
		if err := unfrozen.Insert(int32(i), s); err != nil {
			t.Fatal(err)
		}
	}
	if unfrozen.foreignEmpty != nil || unfrozen.ForeignSlotBytes() != 0 {
		t.Fatal("unfrozen index built a foreign-emptiness bitmap")
	}
}

// TestBandStartRecorded pins the bandStart invariant both construction
// paths rely on: band b's buckets occupy IDs [bandStart[b],
// bandStart[b+1]), covering all buckets, on Freeze and BuildFrozen
// alike.
func TestBandStartRecorded(t *testing.T) {
	const n = 90
	p := Params{Bands: 5, Rows: 2}
	sets := testSets(n, 11)
	frozen := singleReference(t, p, 7, sets, true).frozen
	built := buildFrozenSharded(t, p, 7, sets, 1).shards[0].frozen
	for name, fz := range map[string]*frozenIndex{"freeze": frozen, "build": built} {
		bs := fz.bandStart
		if len(bs) != p.Bands+1 {
			t.Fatalf("%s: bandStart has %d entries, want %d", name, len(bs), p.Bands+1)
		}
		if bs[0] != 0 || int(bs[p.Bands]) != len(fz.offsets)-1 {
			t.Fatalf("%s: bandStart %v does not cover %d buckets", name, bs, len(fz.offsets)-1)
		}
		for b := 0; b < p.Bands; b++ {
			if bs[b] > bs[b+1] {
				t.Fatalf("%s: bandStart not monotone: %v", name, bs)
			}
			for slot := bs[b]; slot < bs[b+1]; slot++ {
				if got := fz.tables[b].get(fz.keys[slot]); got != slot {
					t.Fatalf("%s: band %d slot %d resolves to %d via its own key", name, b, slot, got)
				}
			}
		}
	}
	if !reflect.DeepEqual(frozen.bandStart, built.bandStart) {
		t.Fatalf("freeze/build bandStart differ: %v vs %v", frozen.bandStart, built.bandStart)
	}
}

package lsh

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"lshcluster/internal/lsh/persist"
)

const (
	testPersistSeed = uint64(7)
	testPersistFP   = uint64(0xfeed)
)

// buildPersisted builds a frozen sharded index the way the bootstrap
// does — BuildFrozen from a presigned arena, optional locality reorder,
// foreign-emptiness bitmap at S>1 — ready to Save.
func buildPersisted(t *testing.T, p Params, n, S int, reorder bool) *Sharded {
	t.Helper()
	sh, err := NewSharded(p, testPersistSeed, n, S)
	if err != nil {
		t.Fatal(err)
	}
	sh.SetReorder(reorder)
	keys := signKeysFor(sh, testSets(n, 17), 2)
	if err := sh.BuildFrozen(keys, n, 2); err != nil {
		t.Fatal(err)
	}
	return sh
}

// assertShardedEqual asserts that got reproduces want exactly: every
// frozen array byte-identical per shard, same inserted flags, same
// reorder permutation, same foreign-emptiness bitmaps, and an
// identical candidate stream for every item.
func assertShardedEqual(t *testing.T, want, got *Sharded) {
	t.Helper()
	if len(want.shards) != len(got.shards) {
		t.Fatalf("shard count %d, want %d", len(got.shards), len(want.shards))
	}
	for s := range want.shards {
		assertFrozenIdentical(t, want.shards[s], got.shards[s])
		if !reflect.DeepEqual(want.shards[s].inserted, got.shards[s].inserted) {
			t.Fatalf("shard %d inserted flags differ", s)
		}
		if want.shards[s].numInserted != got.shards[s].numInserted {
			t.Fatalf("shard %d numInserted %d, want %d", s, got.shards[s].numInserted, want.shards[s].numInserted)
		}
	}
	if !reflect.DeepEqual(want.perm, got.perm) || !reflect.DeepEqual(want.inv, got.inv) {
		t.Fatal("reorder permutation differs")
	}
	if !reflect.DeepEqual(want.foreignEmpty, got.foreignEmpty) {
		t.Fatal("foreign-emptiness bitmaps differ")
	}
	wq, gq := want.NewQuery(), got.NewQuery()
	for i := 0; i < want.part.n; i++ {
		w := collectQueryCandidates(wq, int32(i))
		g := collectQueryCandidates(gq, int32(i))
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("item %d candidates: fresh %v, loaded %v", i, w, g)
		}
	}
}

func openOptsFor(sh *Sharded, mmap bool) OpenOptions {
	return OpenOptions{
		Params:      sh.params,
		Seed:        testPersistSeed,
		NumItems:    sh.part.n,
		Shards:      len(sh.shards),
		Reorder:     sh.perm != nil,
		Fingerprint: testPersistFP,
		Mmap:        mmap,
		Workers:     2,
	}
}

// TestPersistRoundTripEquivalence is the tentpole oracle: for every
// shard count, with and without reordering, a saved index loaded back
// — heap copy (Load oracle) or zero-copy mmap — is indistinguishable
// from the fresh build in every frozen array and every query answer.
func TestPersistRoundTripEquivalence(t *testing.T) {
	const n = 260
	p := Params{Bands: 6, Rows: 3}
	for _, S := range []int{1, 2, 4} {
		for _, reorder := range []bool{false, true} {
			t.Run(fmt.Sprintf("s=%d/reorder=%v", S, reorder), func(t *testing.T) {
				fresh := buildPersisted(t, p, n, S, reorder)
				dir := t.TempDir()
				if IndexSaved(dir) {
					t.Fatal("IndexSaved true before Save")
				}
				rep, err := fresh.Save(dir, testPersistSeed, testPersistFP, 2)
				if err != nil {
					t.Fatal(err)
				}
				if rep.Bytes <= 0 {
					t.Fatalf("SaveReport.Bytes = %d", rep.Bytes)
				}
				if !IndexSaved(dir) {
					t.Fatal("IndexSaved false after Save")
				}
				for _, mmap := range []bool{false, true} {
					t.Run(map[bool]string{false: "heap", true: "mmap"}[mmap], func(t *testing.T) {
						loaded, orep, err := OpenSharded(dir, openOptsFor(fresh, mmap))
						if err != nil {
							t.Fatal(err)
						}
						defer loaded.ClosePersist()
						if mmap != (orep.MmapBytes > 0) {
							t.Fatalf("mmap=%v but OpenReport.MmapBytes = %d", mmap, orep.MmapBytes)
						}
						if loaded.MmapBytes() != orep.MmapBytes {
							t.Fatalf("MmapBytes() = %d, report says %d", loaded.MmapBytes(), orep.MmapBytes)
						}
						if !loaded.Frozen() {
							t.Fatal("loaded index not frozen")
						}
						assertShardedEqual(t, fresh, loaded)
					})
				}
			})
		}
	}
}

// TestOpenShardedRejectsStale pins the invalidation rules: any drift
// between the saved index and what the caller would build fresh —
// seed, dataset, shape, shard count, reorder setting — is an error,
// never a silent reuse.
func TestOpenShardedRejectsStale(t *testing.T) {
	const n = 120
	p := Params{Bands: 4, Rows: 2}
	fresh := buildPersisted(t, p, n, 2, true)
	dir := t.TempDir()
	if _, err := fresh.Save(dir, testPersistSeed, testPersistFP, 2); err != nil {
		t.Fatal(err)
	}
	base := openOptsFor(fresh, false)
	if _, _, err := OpenSharded(dir, base); err != nil {
		t.Fatalf("control open failed: %v", err)
	}
	for name, mut := range map[string]func(*OpenOptions){
		"seed":        func(o *OpenOptions) { o.Seed++ },
		"fingerprint": func(o *OpenOptions) { o.Fingerprint++ },
		"items":       func(o *OpenOptions) { o.NumItems++ },
		"shards":      func(o *OpenOptions) { o.Shards++ },
		"bands":       func(o *OpenOptions) { o.Params.Bands++ },
		"rows":        func(o *OpenOptions) { o.Params.Rows++ },
		"reorder":     func(o *OpenOptions) { o.Reorder = false },
	} {
		t.Run(name, func(t *testing.T) {
			opt := base
			mut(&opt)
			sh, _, err := OpenSharded(dir, opt)
			if err == nil {
				sh.ClosePersist()
				t.Fatal("stale index accepted")
			}
		})
	}
	t.Run("missing", func(t *testing.T) {
		if _, _, err := OpenSharded(t.TempDir(), base); err == nil {
			t.Fatal("empty directory accepted")
		}
	})
}

// rewriteShard replaces shard s's saved file with the sections edit
// makes of the ones Save writes, as another build could have saved it.
func rewriteShard(t *testing.T, sh *Sharded, dir string, s int, edit func([]persist.Section) []persist.Section) {
	t.Helper()
	if err := persist.WriteFile(filepath.Join(dir, shardFileName(s)), edit(sh.shardSections(s))); err != nil {
		t.Fatal(err)
	}
}

// retiredSpans lays out shard s's foreign-slot span rows as the
// retired materialiser did — per bucket slot, the [lo, hi) items span
// of the matching bucket in every other shard, 8·(S−1) bytes — so a
// test can write a shard file the way older builds saved it.
func retiredSpans(sh *Sharded, s int) []int32 {
	own := sh.shards[s].frozen
	stride := 2 * (len(sh.shards) - 1)
	rows := make([]int32, (len(own.offsets)-1)*stride)
	ti := 0
	for t, ix := range sh.shards {
		if t == s {
			continue
		}
		tf := ix.frozen
		for b := 0; b < sh.params.Bands; b++ {
			for slot := own.bandStart[b]; slot < own.bandStart[b+1]; slot++ {
				if ts := tf.tables[b].get(own.keys[slot]); ts >= 0 {
					rows[int(slot)*stride+2*ti] = tf.offsets[ts]
					rows[int(slot)*stride+2*ti+1] = tf.offsets[ts+1]
				}
			}
		}
		ti++
	}
	return rows
}

// TestOpenShardedForeignSections pins how OpenSharded treats the
// foreign sections of a multi-shard index, heap and mmap alike: a
// shard file without the foreign-emptiness bitmap (what a save with
// the retired span arrays over budget or disabled wrote) or with a
// bitmap of the wrong length is an error, never a panic or a partial
// load; a file that still carries the retired span section loads with
// results identical to a fresh build, because the loader ignores it.
func TestOpenShardedForeignSections(t *testing.T) {
	const n = 200
	p := Params{Bands: 6, Rows: 3}
	const secRetiredSpans persist.SectionID = 9
	withoutBitmap := func(secs []persist.Section) []persist.Section {
		out := secs[:0]
		for _, sec := range secs {
			if sec.ID != secForeignEmpty {
				out = append(out, sec)
			}
		}
		return out
	}
	resizeBitmap := func(delta int) func([]persist.Section) []persist.Section {
		return func(secs []persist.Section) []persist.Section {
			for i, sec := range secs {
				if sec.ID == secForeignEmpty {
					secs[i].Data = make([]byte, len(sec.Data)+8*delta)
				}
			}
			return secs
		}
	}
	for _, reorder := range []bool{false, true} {
		fresh := buildPersisted(t, p, n, 4, reorder)
		for _, mmap := range []bool{false, true} {
			t.Run(fmt.Sprintf("reorder=%v/mmap=%v", reorder, mmap), func(t *testing.T) {
				for name, edit := range map[string]func([]persist.Section) []persist.Section{
					"no-bitmap":    withoutBitmap,
					"short-bitmap": resizeBitmap(-1),
					"long-bitmap":  resizeBitmap(1),
				} {
					dir := t.TempDir()
					if _, err := fresh.Save(dir, testPersistSeed, testPersistFP, 2); err != nil {
						t.Fatal(err)
					}
					rewriteShard(t, fresh, dir, 2, edit)
					sh, _, err := OpenSharded(dir, openOptsFor(fresh, mmap))
					if err == nil {
						sh.ClosePersist()
						t.Fatalf("%s: shard file accepted", name)
					}
					if !strings.Contains(err.Error(), "foreign-emptiness bitmap") {
						t.Fatalf("%s: error %q does not name the bitmap", name, err)
					}
				}
				dir := t.TempDir()
				if _, err := fresh.Save(dir, testPersistSeed, testPersistFP, 2); err != nil {
					t.Fatal(err)
				}
				for s := range fresh.shards {
					rewriteShard(t, fresh, dir, s, func(secs []persist.Section) []persist.Section {
						spans := persist.Section{ID: secRetiredSpans, ElemSize: 4, Data: bytesOf(retiredSpans(fresh, s))}
						return append(withoutBitmap(secs), spans, persist.Section{ID: secForeignEmpty, ElemSize: 8, Data: bytesOf(fresh.foreignEmpty[s])})
					})
				}
				loaded, _, err := OpenSharded(dir, openOptsFor(fresh, mmap))
				if err != nil {
					t.Fatalf("shard files with the retired span section: %v", err)
				}
				defer loaded.ClosePersist()
				assertShardedEqual(t, fresh, loaded)
			})
		}
	}
}

// hashFrozen folds every frozen array of every shard (plus the reorder
// permutation and the foreign-emptiness bitmaps) into one
// platform-independent FNV-1a hash, value by value in little-endian
// order.
func hashFrozen(sh *Sharded) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	w32 := func(vs []int32) {
		for _, v := range vs {
			binary.LittleEndian.PutUint32(buf[:4], uint32(v))
			h.Write(buf[:4])
		}
	}
	w64 := func(vs []uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	for _, ix := range sh.shards {
		fz := ix.frozen
		w32(fz.offsets)
		w32(fz.items)
		w32(fz.slots)
		w64(fz.keys)
		w32(fz.bandStart)
		for _, tb := range fz.tables {
			binary.LittleEndian.PutUint64(buf[:], tb.mask)
			h.Write(buf[:])
			for _, e := range tb.entries {
				binary.LittleEndian.PutUint64(buf[:], e.key)
				h.Write(buf[:])
				binary.LittleEndian.PutUint32(buf[:4], uint32(e.slot))
				h.Write(buf[:4])
			}
		}
	}
	w32(sh.perm)
	w32(sh.inv)
	for _, f := range sh.foreignEmpty {
		w64(f)
	}
	return h.Sum64()
}

// TestPersistGoldenDeterminism pins the frozen layout to a golden
// hash: the exact array content the on-disk format persists must not
// drift with worker count, rebuilds, or accidental nondeterminism in
// BuildFrozen — a saved index must stay loadable as a byte-exact
// oracle across runs. The golden is the hash of the same arrays as
// built before the foreign-slot span arrays were retired, spans
// excluded: dropping them moved nothing else.
func TestPersistGoldenDeterminism(t *testing.T) {
	const (
		n      = 300
		golden = uint64(0x10f99e28a227df8a)
	)
	p := Params{Bands: 6, Rows: 3}
	for _, workers := range []int{1, 4} {
		sh, err := NewSharded(p, testPersistSeed, n, 4)
		if err != nil {
			t.Fatal(err)
		}
		sh.SetReorder(true)
		keys := signKeysFor(sh, testSets(n, 17), 2)
		if err := sh.BuildFrozen(keys, n, workers); err != nil {
			t.Fatal(err)
		}
		if got := hashFrozen(sh); got != golden {
			t.Fatalf("workers=%d: frozen-layout hash %#x, golden %#x — the persisted layout drifted",
				workers, got, golden)
		}
	}
}

// FuzzPersistRoundTrip fuzzes the save/load identity: for any shard
// count, banding shape, signed value sets and reorder setting, a saved
// index loaded back (heap and mmap) is byte-identical to the build
// that saved it.
func FuzzPersistRoundTrip(f *testing.F) {
	f.Add(uint8(2), uint8(6), uint8(3), uint16(60), uint64(21), []byte("persist"))
	f.Add(uint8(1), uint8(1), uint8(1), uint16(3), uint64(0), []byte{})
	f.Add(uint8(4), uint8(8), uint8(2), uint16(130), uint64(9), []byte{0xff, 0x10, 0x7f})
	f.Fuzz(func(t *testing.T, shards, bands, rows uint8, n uint16, seed uint64, data []byte) {
		S := 1 + int(shards)%4
		p := Params{Bands: 1 + int(bands)%8, Rows: 1 + int(rows)%4}
		nn := S + int(n)%130
		reorder := byteAt(data, 0)%2 == 1
		sets := fuzzSets(nn, data)

		sh, err := NewSharded(p, seed, nn, S)
		if err != nil {
			t.Fatal(err)
		}
		sh.SetReorder(reorder)
		keys := signKeysFor(sh, sets, 2)
		if err := sh.BuildFrozen(keys, nn, 2); err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if _, err := sh.Save(dir, seed, seed^0x5bd1e995, 2); err != nil {
			t.Fatal(err)
		}
		for _, mmap := range []bool{false, true} {
			opt := OpenOptions{
				Params:      p,
				Seed:        seed,
				NumItems:    nn,
				Shards:      S,
				Reorder:     sh.perm != nil,
				Fingerprint: seed ^ 0x5bd1e995,
				Mmap:        mmap,
				Workers:     2,
			}
			loaded, _, err := OpenSharded(dir, opt)
			if err != nil {
				t.Fatal(err)
			}
			assertShardedEqual(t, sh, loaded)
			loaded.ClosePersist()
		}
	})
}

// TestSaveRejectsUnfrozen pins Save's preconditions.
func TestSaveRejectsUnfrozen(t *testing.T) {
	sh, err := NewSharded(Params{Bands: 2, Rows: 2}, 1, 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Save(filepath.Join(t.TempDir(), "idx"), 1, 2, 1); err == nil {
		t.Fatal("Save on an unfrozen index accepted")
	}
}

package lsh

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lshcluster/internal/lsh/persist"
)

const (
	testPersistSeed = uint64(7)
	testPersistFP   = uint64(0xfeed)
)

// assertLoadedEqual asserts that got reproduces want exactly: every
// layout array byte-identical, the same item count, and an identical
// candidate stream for every item.
func assertLoadedEqual(t testing.TB, want, got *Index) {
	t.Helper()
	assertFrozenIdentical(t, want, got)
	if want.n != got.n {
		t.Fatalf("%d items loaded, want %d", got.n, want.n)
	}
	for i := 0; i < want.n; i++ {
		w := collectCandidates(want, int32(i))
		g := collectCandidates(got, int32(i))
		if !reflect.DeepEqual(w, g) {
			t.Fatalf("item %d candidates: fresh %v, loaded %v", i, w, g)
		}
	}
}

func openOptsFor(ix *Index, seed, fp uint64, mmap bool) OpenOptions {
	return OpenOptions{
		Params:      ix.params,
		Seed:        seed,
		NumItems:    ix.n,
		Fingerprint: fp,
		Mmap:        mmap,
	}
}

// TestPersistRoundTripEquivalence is the persistence oracle: a saved
// index loaded back — heap copy or zero-copy mmap — is
// indistinguishable from the fresh build in every frozen array and
// every query answer, over the items in original and in locality order
// (reorder=true). s=1 saves one BuildFrozen index over every item; s>1
// saves, for each of s contiguous item ranges, the brute-force index of
// that range's items under local IDs, each on its own.
func TestPersistRoundTripEquivalence(t *testing.T) {
	const n = 260
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 17)
	for _, shards := range []int{1, 2, 4} {
		for _, reorder := range []bool{false, true} {
			t.Run(fmt.Sprintf("s=%d/reorder=%v", shards, reorder), func(t *testing.T) {
				in := sets
				if reorder {
					in = reorderSets(sets, localityOrder(p, testPersistSeed, sets))
				}
				var fresh []*Index
				if shards == 1 {
					fresh = []*Index{buildFrozenIndex(t, p, testPersistSeed, in, 2)}
				} else {
					cuts := itemRanges(n, shards)
					for r := 0; r < shards; r++ {
						fresh = append(fresh, bruteIndex(t, p, testPersistSeed, in[cuts[r]:cuts[r+1]]))
					}
				}
				dirs := make([]string, len(fresh))
				for r, ix := range fresh {
					dirs[r] = t.TempDir()
					if IndexSaved(dirs[r]) {
						t.Fatal("IndexSaved true before Save")
					}
					rep, err := ix.Save(dirs[r], testPersistSeed, testPersistFP)
					if err != nil {
						t.Fatal(err)
					}
					if rep.Bytes <= 0 {
						t.Fatalf("SaveReport.Bytes = %d", rep.Bytes)
					}
					if !IndexSaved(dirs[r]) {
						t.Fatal("IndexSaved false after Save")
					}
				}
				for _, mmap := range []bool{false, true} {
					t.Run(map[bool]string{false: "heap", true: "mmap"}[mmap], func(t *testing.T) {
						for r, ix := range fresh {
							assertOpensEqual(t, dirs[r], ix, mmap)
						}
					})
				}
			})
		}
	}
}

// assertOpensEqual opens the index saved in dir and asserts it
// reproduces fresh exactly.
func assertOpensEqual(t *testing.T, dir string, fresh *Index, mmap bool) {
	t.Helper()
	loaded, orep, err := Open(dir, openOptsFor(fresh, testPersistSeed, testPersistFP, mmap))
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
	assertLoadedEqual(t, fresh, loaded)
}

// TestOpenShardedForeignSections pins how Open treats the sections
// the multi-shard layout wrote beside the frozen arrays — the per-band
// key tables, a foreign-emptiness bitmap of any length or none, the
// retired span arrays and a permutation: it reads none of them, so a
// file that carries them loads, heap and mmap alike, with results
// identical to the fresh build, over the items in original and in
// locality order.
func TestOpenShardedForeignSections(t *testing.T) {
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(200, 17)
	// The retired sections' IDs.
	const (
		secKeys         persist.SectionID = 4
		secBandStart    persist.SectionID = 5
		secTableSizes   persist.SectionID = 6
		secTableEntries persist.SectionID = 7
		secRetiredSpans persist.SectionID = 9
		secForeignEmpty persist.SectionID = 10
		secPerm         persist.SectionID = 11
		secInv          persist.SectionID = 12
	)
	for _, reorder := range []bool{false, true} {
		in := sets
		if reorder {
			in = reorderSets(sets, localityOrder(p, testPersistSeed, sets))
		}
		fresh := buildFrozenIndex(t, p, testPersistSeed, in, 2)
		fz := &fresh.frozen
		numSlots := len(fz.offsets) - 1
		base := []persist.Section{
			{ID: secOffsets, ElemSize: 4, Data: bytesOf(fz.offsets)},
			{ID: secItems, ElemSize: 4, Data: bytesOf(fz.items)},
			{ID: secSlots, ElemSize: 4, Data: bytesOf(fz.slots)},
			{ID: secKeys, ElemSize: 8, Data: make([]byte, 8*numSlots)},
			{ID: secBandStart, ElemSize: 4, Data: make([]byte, 4*(p.Bands+1))},
			{ID: secTableSizes, ElemSize: 8, Data: make([]byte, 8*p.Bands)},
			{ID: secTableEntries, ElemSize: 16, Data: make([]byte, 16*4)},
			{ID: secInserted, ElemSize: 1, Data: bytes.Repeat([]byte{1}, fresh.n)},
			{ID: secPerm, ElemSize: 4, Data: make([]byte, 4*fresh.n)},
			{ID: secInv, ElemSize: 4, Data: make([]byte, 4*fresh.n)},
		}
		bitmap := func(words int) persist.Section {
			return persist.Section{ID: secForeignEmpty, ElemSize: 8, Data: make([]byte, 8*words)}
		}
		words := (numSlots + 63) / 64
		for _, mmap := range []bool{false, true} {
			t.Run(fmt.Sprintf("reorder=%v/mmap=%v", reorder, mmap), func(t *testing.T) {
				for name, extra := range map[string][]persist.Section{
					"no-bitmap":    nil,
					"bitmap":       {bitmap(words)},
					"short-bitmap": {bitmap(words - 1)},
					"long-bitmap":  {bitmap(words + 1)},
					"spans":        {{ID: secRetiredSpans, ElemSize: 4, Data: make([]byte, 4*2*numSlots)}, bitmap(words)},
				} {
					dir := t.TempDir()
					if _, err := fresh.Save(dir, testPersistSeed, testPersistFP); err != nil {
						t.Fatal(err)
					}
					if err := persist.WriteFile(filepath.Join(dir, indexFileName), slices.Concat(base, extra)); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					assertOpensEqual(t, dir, fresh, mmap)
				}
			})
		}
	}
}

// writeManifest rewrites dir's manifest with edit applied.
func writeManifest(t *testing.T, dir string, edit func(*persist.Manifest)) {
	t.Helper()
	m, err := persist.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	edit(m)
	if err := persist.WriteManifest(dir, m); err != nil {
		t.Fatal(err)
	}
}

// TestOpenShardedRejectsStale pins the invalidation rules: any drift
// between the saved index and what the caller would build fresh —
// seed, dataset, shape — is an error, never a silent reuse, and so is a
// directory the retired multi-shard layout saved (several shard files,
// or items in reordered order), one whose index file is missing, one
// whose manifest names an index file other than shard-0.lshz (here a
// valid one outside the directory), or one whose manifest counts fewer
// indexed items than items. Each error names its cause, and nothing
// loads half-way.
func TestOpenShardedRejectsStale(t *testing.T) {
	fresh := buildFrozenIndex(t, Params{Bands: 4, Rows: 2}, testPersistSeed, testSets(120, 17), 2)
	save := func(t *testing.T) string {
		dir := t.TempDir()
		if _, err := fresh.Save(dir, testPersistSeed, testPersistFP); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	base := openOptsFor(fresh, testPersistSeed, testPersistFP, false)
	if ix, _, err := Open(save(t), base); err != nil {
		t.Fatalf("control open failed: %v", err)
	} else {
		ix.ClosePersist()
	}
	reject := func(t *testing.T, dir string, opt OpenOptions, cause string) {
		t.Helper()
		for _, mmap := range []bool{false, true} {
			opt.Mmap = mmap
			ix, _, err := Open(dir, opt)
			if err == nil {
				ix.ClosePersist()
				t.Fatalf("mmap=%v: stale index accepted", mmap)
			}
			if !strings.Contains(err.Error(), cause) {
				t.Fatalf("mmap=%v: error %q does not name %q", mmap, err, cause)
			}
		}
	}
	for name, tc := range map[string]struct {
		mut   func(*OpenOptions)
		cause string
	}{
		"seed":        {func(o *OpenOptions) { o.Seed++ }, "seed"},
		"fingerprint": {func(o *OpenOptions) { o.Fingerprint++ }, "dataset"},
		"items":       {func(o *OpenOptions) { o.NumItems++ }, "items"},
		"bands":       {func(o *OpenOptions) { o.Params.Bands++ }, "bands"},
		"rows":        {func(o *OpenOptions) { o.Params.Rows++ }, "rows"},
	} {
		t.Run(name, func(t *testing.T) {
			opt := base
			tc.mut(&opt)
			reject(t, save(t), opt, tc.cause)
		})
	}
	t.Run("shards", func(t *testing.T) {
		dir := save(t)
		writeManifest(t, dir, func(m *persist.Manifest) {
			m.Shards = 4
			m.ShardFiles = []string{"shard-0.lshz", "shard-1.lshz", "shard-2.lshz", "shard-3.lshz"}
			m.ShardInserted = []int{30, 30, 30, 30}
		})
		reject(t, dir, base, "4 item shards")
	})
	t.Run("reorder", func(t *testing.T) {
		dir := save(t)
		writeManifest(t, dir, func(m *persist.Manifest) { m.Reordered = true })
		reject(t, dir, base, "reordered")
	})
	t.Run("shard-file-missing", func(t *testing.T) {
		dir := save(t)
		if err := os.Remove(filepath.Join(dir, indexFileName)); err != nil {
			t.Fatal(err)
		}
		reject(t, dir, base, indexFileName)
	})
	t.Run("shard-file-name", func(t *testing.T) {
		root := t.TempDir()
		dir := filepath.Join(root, "index")
		if _, err := fresh.Save(dir, testPersistSeed, testPersistFP); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(filepath.Join(dir, indexFileName), filepath.Join(root, "x.lshz")); err != nil {
			t.Fatal(err)
		}
		writeManifest(t, dir, func(m *persist.Manifest) { m.ShardFiles = []string{"../x.lshz"} })
		reject(t, dir, base, "../x.lshz")
	})
	t.Run("inserted-count", func(t *testing.T) {
		dir := save(t)
		writeManifest(t, dir, func(m *persist.Manifest) { m.ShardInserted = []int{m.Items - 1} })
		reject(t, dir, base, "items indexed")
	})
	t.Run("missing", func(t *testing.T) {
		reject(t, t.TempDir(), base, persist.ManifestName)
	})
}

// TestOpenRejectsInconsistentArrays pins the structural checks behind
// the checksums: a file whose arrays disagree with each other, or whose
// inserted flags are anything but 1, is an error, never a panic in a
// later query, nor an item silently missing from a bucket that lists
// it.
func TestOpenRejectsInconsistentArrays(t *testing.T) {
	const bands = 3
	fresh := buildFrozenIndex(t, Params{Bands: bands, Rows: 2}, testPersistSeed, testSets(50, 17), 2)
	fz := &fresh.frozen
	// stored is the first stored slot, which its item's entry in the
	// bucket it names answers, and alone the first −1 slot, where its
	// item sits alone.
	stored := slices.IndexFunc(fz.slots, func(s int32) bool { return s >= 0 })
	alone := slices.Index(fz.slots, -1)
	if stored < 0 || alone < 0 || len(fz.offsets) < 3 {
		t.Fatal("the fixture needs two stored buckets and a −1 slot")
	}
	for name, edit := range map[string]func(offsets, items, slots []int32, inserted []byte){
		"offsets-start":      func(o, _, _ []int32, _ []byte) { o[0] = 1 },
		"offsets-descending": func(o, _, _ []int32, _ []byte) { o[1], o[2] = o[2], o[1]-1 },
		"item-range":         func(_, it, _ []int32, _ []byte) { it[7] = int32(fresh.n) },
		"item-negative":      func(_, it, _ []int32, _ []byte) { it[3] = -2 },
		"slot-range":         func(_, _, s []int32, _ []byte) { s[4] = int32(len(fz.offsets)) },
		"slot-uninserted":    func(_, _, s []int32, _ []byte) { s[stored] = -1 },
		"slot-other-bucket":  func(_, _, s []int32, _ []byte) { s[stored] = (s[stored] + 1) % int32(len(fz.offsets)-1) },
		"slot-alone-named":   func(_, _, s []int32, _ []byte) { s[alone] = s[stored] },
		"bucket-order":       func(_, it, _ []int32, _ []byte) { it[0], it[1] = it[1], it[0] },
		"inserted-slot":      func(_, _, _ []int32, ins []byte) { ins[stored/bands] = 0 },
		"inserted-byte":      func(_, _, _ []int32, ins []byte) { ins[0] = 2 },
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := fresh.Save(dir, testPersistSeed, testPersistFP); err != nil {
				t.Fatal(err)
			}
			offsets := append([]int32(nil), fz.offsets...)
			items := append([]int32(nil), fz.items...)
			slots := append([]int32(nil), fz.slots...)
			inserted := bytes.Repeat([]byte{1}, fresh.n)
			edit(offsets, items, slots, inserted)
			err := persist.WriteFile(filepath.Join(dir, indexFileName), []persist.Section{
				{ID: secOffsets, ElemSize: 4, Data: bytesOf(offsets)},
				{ID: secItems, ElemSize: 4, Data: bytesOf(items)},
				{ID: secSlots, ElemSize: 4, Data: bytesOf(slots)},
				{ID: secInserted, ElemSize: 1, Data: inserted},
			})
			if err != nil {
				t.Fatal(err)
			}
			ix, _, err := Open(dir, openOptsFor(fresh, testPersistSeed, testPersistFP, false))
			if err == nil {
				ix.ClosePersist()
				t.Fatal("inconsistent index file accepted")
			}
		})
	}
}

// shortlistOf returns the distinct clusters, under view, of the items
// Candidates(item) reports, in first-appearance order, less item's own
// cluster: the shortlist an assignment pass weighs against it.
func shortlistOf(ix *Index, item int32, view []int32) []int32 {
	var out []int32
	ix.Candidates(item, func(o int32) {
		if c := view[o]; c != view[item] && !slices.Contains(out, c) {
			out = append(out, c)
		}
	})
	return out
}

// blockShortlists resolves one CandidatesBatch sweep over blk as a
// block querier does — a bucket's summary where it keeps one, its
// members under view otherwise — into each position's shortlistOf.
func blockShortlists(ix *Index, blk, view []int32) [][]int32 {
	out := make([][]int32, len(blk))
	add := func(pos int, c int32) {
		if c != view[blk[pos]] && !slices.Contains(out[pos], c) {
			out[pos] = append(out[pos], c)
		}
	}
	ix.CandidatesBatch(blk, func(pos int, bucket []int32, sum int32) {
		if sum >= 0 {
			for _, c := range ix.Summary(sum) {
				add(pos, c)
			}
			return
		}
		for _, o := range bucket {
			add(pos, view[o])
		}
	})
	return out
}

// longSlots counts the distinct stored buckets of item holding at
// least SummaryMinLen items: what Resummarize(item) must recompute.
func longSlots(ix *Index, item int32) int {
	bands := ix.params.Bands
	var seen []int32
	for _, slot := range ix.frozen.slots[int(item)*bands:][:bands] {
		if slot >= 0 && ix.frozen.offsets[slot+1]-ix.frozen.offsets[slot] >= SummaryMinLen && !slices.Contains(seen, slot) {
			seen = append(seen, slot)
		}
	}
	return len(seen)
}

// TestLegacyLayoutAnswersAlike pins that an index saved before
// singleton buckets were dropped — every bucket stored, those of one
// item included (legacyFrozen) — loads, heap and mmap alike, and
// answers like the compact build of the same keys: for every item the
// same shortlist, per item and block sweep, with and without summaries,
// before and after moves; the same summary upkeep; the same reverse
// expansion; and the same Stats.
func TestLegacyLayoutAnswersAlike(t *testing.T) {
	const n, k = 300, 7
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 23)
	for i := 0; i < 2*SummaryMinLen; i++ { // long buckets, so summaries exist
		sets[i] = sets[0]
	}
	compact := buildFrozenIndex(t, p, testPersistSeed, sets, 2)
	legacy := legacyFrozen(t, p, bandKeysOf(p, testPersistSeed, sets), n)
	if len(legacy.frozen.offsets) <= len(compact.frozen.offsets) {
		t.Fatal("the fixture has no singleton buckets")
	}
	dir := t.TempDir()
	if _, err := legacy.Save(dir, testPersistSeed, testPersistFP); err != nil {
		t.Fatal(err)
	}
	view := make([]int32, n)
	for i := range view {
		view[i] = int32(i % k)
	}
	for _, mmap := range []bool{false, true} {
		t.Run(map[bool]string{false: "heap", true: "mmap"}[mmap], func(t *testing.T) {
			loaded, _, err := Open(dir, openOptsFor(compact, testPersistSeed, testPersistFP, mmap))
			if err != nil {
				t.Fatal(err)
			}
			defer loaded.ClosePersist()
			assertFrozenIdentical(t, legacy, loaded)
			compact := buildFrozenIndex(t, p, testPersistSeed, sets, 2) // summarised below
			if loaded.Stats() != compact.Stats() {
				t.Fatalf("legacy stats %+v, compact %+v", loaded.Stats(), compact.Stats())
			}
			v := slices.Clone(view)
			same := func(stage string) {
				t.Helper()
				for i := int32(0); i < n; i++ {
					if got, want := shortlistOf(loaded, i, v), shortlistOf(compact, i, v); !slices.Equal(got, want) {
						t.Fatalf("%s: item %d shortlist: legacy %v, compact %v", stage, i, got, want)
					}
				}
				for _, blk := range blocks(n, 64) {
					got, want := blockShortlists(loaded, blk, v), blockShortlists(compact, blk, v)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: block from item %d: legacy %v, compact %v", stage, blk[0], got, want)
					}
				}
			}
			same("no summaries")
			loaded.SummarizeClusters(v)
			compact.SummarizeClusters(v)
			same("summarised")
			for i := int32(0); i < n; i += 3 {
				v[i] = (v[i] + 1) % k
				for _, ix := range []*Index{loaded, compact} {
					if got, want := ix.Resummarize([]int32{i}, v), longSlots(ix, i); got != want {
						t.Fatalf("item %d: Resummarize recomputed %d summaries, want %d", i, got, want)
					}
				}
			}
			same("after moves")
			sources := []int32{0, 40, 150, n - 1}
			emitted := func(ix *Index) map[int32]bool {
				rv, got := ix.NewReverse(), map[int32]bool{}
				for _, s := range sources {
					rv.AddSource(s)
				}
				rv.Emit(func(it int32) bool { got[it] = true; return true })
				return got
			}
			if got, want := emitted(loaded), emitted(compact); !reflect.DeepEqual(got, want) {
				t.Fatalf("reverse expansion: legacy %d items, compact %d (sets differ)", len(got), len(want))
			}
		})
	}
}

// hashFrozen folds every frozen array into one platform-independent
// FNV-1a hash, value by value in little-endian order.
func hashFrozen(ix *Index) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	for _, vs := range [][]int32{ix.frozen.offsets, ix.frozen.items, ix.frozen.slots} {
		for _, v := range vs {
			binary.LittleEndian.PutUint32(buf[:], uint32(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// TestPersistGoldenDeterminism pins the frozen layout to a golden
// hash: the exact array content the on-disk format persists must not
// drift with worker count, rebuilds, or accidental nondeterminism in
// BuildFrozen — a saved index must stay loadable as a byte-exact
// oracle across runs. The golden is the hash of the same arrays as a
// one-shard, original-order build made them before the multi-shard
// layout and the key tables were retired.
func TestPersistGoldenDeterminism(t *testing.T) {
	const (
		n      = 300
		golden = uint64(0x160341fee069f60d)
	)
	p := Params{Bands: 6, Rows: 3}
	keys := SignAll(p, n, 2, setSigner(testScheme(p, testPersistSeed), testSets(n, 17)), nil)
	for _, workers := range []int{1, 4} {
		ix := mustBuild(t, p, keys, n, workers)
		if got := hashFrozen(ix); got != golden {
			t.Fatalf("workers=%d: frozen-layout hash %#x, golden %#x — the persisted layout drifted",
				workers, got, golden)
		}
	}
}

// FuzzPersistRoundTrip fuzzes the save/load identity: for any banding
// shape, item count and signed value sets, a saved index loaded back
// (heap and mmap) is byte-identical to the build that saved it.
func FuzzPersistRoundTrip(f *testing.F) {
	f.Add(uint8(6), uint8(3), uint16(60), uint64(21), []byte("persist"))
	f.Add(uint8(1), uint8(1), uint16(3), uint64(0), []byte{})
	f.Add(uint8(8), uint8(2), uint16(130), uint64(9), []byte{0xff, 0x10, 0x7f})
	f.Fuzz(func(t *testing.T, bands, rows uint8, n uint16, seed uint64, data []byte) {
		p := Params{Bands: 1 + int(bands)%8, Rows: 1 + int(rows)%4}
		sets := fuzzSets(1+int(n)%130, data)
		ix := buildFrozenIndex(t, p, seed, sets, 2)
		dir := t.TempDir()
		if _, err := ix.Save(dir, seed, seed^0x5bd1e995); err != nil {
			t.Fatal(err)
		}
		for _, mmap := range []bool{false, true} {
			loaded, _, err := Open(dir, openOptsFor(ix, seed, seed^0x5bd1e995, mmap))
			if err != nil {
				t.Fatal(err)
			}
			assertLoadedEqual(t, ix, loaded)
			loaded.ClosePersist()
		}
	})
}

package lsh

import (
	"math/rand"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"lshcluster/internal/lsh/persist"
	"lshcluster/internal/minhash"
)

// byteAt cycles through the fuzz payload, defaulting to 0 on an empty
// one, so derived inputs are total functions of the corpus entry.
func byteAt(data []byte, i int) byte {
	if len(data) == 0 {
		return 0
	}
	return data[i%len(data)]
}

// fuzzSets derives n value sets from raw fuzz bytes, shaped like
// testSets (small overlapping universes so bucket collisions occur)
// but with sizes, bases and values all under the fuzzer's control.
func fuzzSets(n int, data []byte) [][]uint64 {
	sets := make([][]uint64, n)
	for i := range sets {
		size := 1 + int(byteAt(data, i*31))%12
		base := uint64(byteAt(data, i*7+1)%8) * 100
		set := make([]uint64, size)
		for j := range set {
			set[j] = base + uint64(byteAt(data, i*13+j*3+2)%40)
		}
		sets[i] = set
	}
	return sets
}

// setSignerFor adapts sets to a SignAll signer through the index
// scheme, as the accelerators do.
func setSignerFor(scheme *minhash.Scheme, sets [][]uint64) func() SignFunc {
	return func() SignFunc {
		return func(item int32, sig []uint64) {
			scheme.Sign(sets[item], sig)
		}
	}
}

// FuzzBuildFrozenIdentity fuzzes the layout identity: for any banding
// shape, item count, scheme seed, signed value sets and worker count,
// building the frozen index directly from the presigned key arena
// (BuildFrozen) must reproduce, value for value, the brute-force
// layout of the same keys (bruteFrozen). A BandTable into which every
// item is filed as its own value must hold under each of the item's
// keys exactly the items of its frozen bucket, or the item alone where
// its frozen slot is −1: filed in ascending order, the frozen bucket
// element for element; filed in an order shuffled by the scheme seed,
// the same items in that order.
func FuzzBuildFrozenIdentity(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(17), uint64(7), []byte("seed-corpus"))
	f.Add(uint8(1), uint8(1), uint16(1), uint64(0), []byte{})
	f.Add(uint8(20), uint8(5), uint16(120), uint64(42), []byte{0xff, 0x00, 0x7f})
	f.Add(uint8(8), uint8(4), uint16(100), uint64(3), []byte("collide collide"))
	f.Fuzz(func(t *testing.T, bands, rows uint8, n uint16, seed uint64, data []byte) {
		p := Params{Bands: 1 + int(bands)%12, Rows: 1 + int(rows)%6}
		nn := 1 + int(n)%150
		workers := 1 + int(byteAt(data, 0))%4
		sets := fuzzSets(nn, data)

		ix, err := NewIndex(p, seed)
		if err != nil {
			t.Fatal(err)
		}
		keys := SignAll(p, nn, workers, setSignerFor(ix.Scheme(), sets), nil)
		if err := ix.BuildFrozen(keys, nn, workers); err != nil {
			t.Fatal(err)
		}
		all := make([]bool, nn)
		for i := range all {
			all[i] = true
		}
		assertFrozenIdentical(t, bruteFrozen(t, p, seed, keys, all), ix)

		for _, order := range [][]int{span(0, nn), rand.New(rand.NewSource(int64(seed))).Perm(nn)} {
			bt := mustBandTable(t, p)
			fileItems(t, bt, ix.Scheme(), sets, order)
			assertBandTableMatchesFrozen(t, bt, ix, keys, order)
		}
	})
}

// FuzzOpenCraftedIndex writes crafted index files — a built layout,
// compact or, with legacy set, every bucket stored as before singleton
// buckets were dropped, its offsets, items, slots and inserted sections
// then edited by the fuzzer — through persist.WriteFile, so every
// checksum is valid, with the manifest's inserted count kept in step.
// Open must reject the file, or load an index that answers every query
// from its own slots: each item's Candidates stream is the item, then,
// band by band, the ascending items whose slot in that band names the
// same bucket; the block sweep reports the same streams; the reverse
// view emits the union of its sources' streams; and the summaries and
// their upkeep run. An unedited file must load. Each edit is four
// bytes: the section (one in five edits resizes it instead), a
// position, and the new value as a signed byte.
func FuzzOpenCraftedIndex(f *testing.F) {
	f.Add(uint8(3), uint8(40), false, []byte("crafted"), []byte{})
	f.Add(uint8(2), uint8(60), true, []byte("legacy"), []byte{})
	f.Add(uint8(3), uint8(40), false, []byte("crafted"), []byte{2, 0, 0, 0xff, 2, 1, 0, 0})
	f.Add(uint8(5), uint8(30), false, []byte{0xff, 0x00, 0x7f}, []byte{1, 0, 0, 3, 1, 1, 0, 2})
	f.Add(uint8(1), uint8(20), true, []byte("collide collide"), []byte{3, 4, 0, 0, 4, 9, 0, 0})
	f.Fuzz(func(t *testing.T, shape, n uint8, legacy bool, data, edits []byte) {
		const seed, fp = uint64(7), uint64(0xc0ffee)
		p := Params{Bands: 1 + int(shape)%4, Rows: 1 + int(shape/4)%3}
		nn := 1 + int(n)%80
		bands := p.Bands
		src := mustIndex(t, p, seed)
		keys := SignAll(p, nn, 1, setSignerFor(src.Scheme(), fuzzSets(nn, data)), nil)
		if legacy {
			src = legacyFrozen(t, p, seed, keys, rangeFlags(nn, 0, nn))
		} else if err := src.BuildFrozen(keys, nn, 1); err != nil {
			t.Fatal(err)
		}
		offsets := slices.Clone(src.frozen.offsets)
		items := slices.Clone(src.frozen.items)
		slots := slices.Clone(src.frozen.slots)
		inserted := slices.Clone(bytesOf(src.inserted))
		edited := false
		for e := 0; e+4 <= len(edits) && e < 4*16; e += 4 {
			edited = true
			pos, val := int(edits[e+1])|int(edits[e+2])<<8, int32(int8(edits[e+3]))
			switch edits[e] % 5 {
			case 0:
				offsets = editAt(offsets, pos, val)
			case 1:
				items = editAt(items, pos, val)
			case 2:
				slots = editAt(slots, pos, val)
			case 3:
				if len(inserted) > 0 {
					inserted[pos%len(inserted)] = byte(val)
				}
			case 4:
				switch pos % 4 {
				case 0:
					offsets = resize(offsets, int(val))
				case 1:
					items = resize(items, int(val))
				case 2:
					slots = resize(slots, int(val))
				case 3:
					inserted = resize(inserted, int(val))
				}
			}
		}
		dir := t.TempDir()
		if _, err := src.Save(dir, seed, fp); err != nil {
			t.Fatal(err)
		}
		if err := persist.WriteFile(filepath.Join(dir, indexFileName), []persist.Section{
			{ID: secOffsets, ElemSize: 4, Data: bytesOf(offsets)},
			{ID: secItems, ElemSize: 4, Data: bytesOf(items)},
			{ID: secSlots, ElemSize: 4, Data: bytesOf(slots)},
			{ID: secInserted, ElemSize: 1, Data: inserted},
		}); err != nil {
			t.Fatal(err)
		}
		count := 0
		for _, b := range inserted {
			if b != 0 {
				count++
			}
		}
		writeManifest(t, dir, func(m *persist.Manifest) { m.ShardInserted = []int{count} })
		for _, mmap := range []bool{false, true} {
			ix, _, err := Open(dir, OpenOptions{Params: p, Seed: seed, NumItems: nn, Fingerprint: fp, Mmap: mmap})
			if err != nil {
				if !edited {
					t.Fatalf("mmap=%v: unedited file rejected: %v", mmap, err)
				}
				continue
			}
			fz := ix.frozen
			want := make([][]int32, nn)
			for i := range want {
				if !ix.inserted[i] {
					continue
				}
				want[i] = []int32{int32(i)}
				for b := 0; b < bands; b++ {
					s := fz.slots[i*bands+b]
					for j := 0; s >= 0 && j < nn; j++ {
						if fz.slots[j*bands+b] == s {
							want[i] = append(want[i], int32(j))
						}
					}
				}
				if got := collectCandidates(ix, int32(i)); !slices.Equal(got, want[i]) {
					t.Fatalf("mmap=%v: item %d candidates %v, its slots give %v", mmap, i, got, want[i])
				}
			}
			all := blocks(nn+2, nn+2)[0] // every item and two beyond the index
			for pos, got := range collectBatch(ix, all) {
				if pos < nn && !slices.Equal(got, want[pos]) || pos >= nn && got != nil {
					t.Fatalf("mmap=%v: block item %d: %v, per item %v", mmap, pos, got, want[min(pos, nn-1)])
				}
			}
			rv, emitted := ix.NewReverse(), map[int32]bool{}
			union := map[int32]bool{}
			for i := range all {
				rv.AddSource(int32(i))
				if i < nn {
					for _, o := range want[i] {
						union[o] = true
					}
				}
			}
			rv.Emit(func(it int32) bool { emitted[it] = true; return true })
			if !reflect.DeepEqual(emitted, union) {
				t.Fatalf("mmap=%v: reverse view emitted %d items, the streams hold %d", mmap, len(emitted), len(union))
			}
			view := make([]int32, nn)
			for i := range view {
				view[i] = int32(i % 3)
			}
			ix.SummarizeClusters(view)
			ix.CandidatesBatch(all, func(_ int, _ []int32, sum int32) {
				if sum >= 0 {
					ix.Summary(sum)
				}
			})
			ix.Resummarize(all, view)
			ix.Stats()
			if err := ix.ClosePersist(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// editAt sets s[pos mod len(s)] to val, when s has an element.
func editAt(s []int32, pos int, val int32) []int32 {
	if len(s) > 0 {
		s[pos%len(s)] = val
	}
	return s
}

// resize grows or shrinks s by delta elements (zeros when growing, and
// never below empty).
func resize[T any](s []T, delta int) []T {
	if delta < 0 {
		return s[:max(len(s)+delta, 0)]
	}
	return append(s, make([]T, delta)...)
}

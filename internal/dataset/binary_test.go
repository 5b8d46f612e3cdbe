package dataset

import (
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"lshcluster/internal/lsh/persist"
)

// buildBinaryFixture makes a labelled dataset with a mix of present and
// absent feature values, so a round trip has to preserve the presence
// bitmap as well as the columnar payload.
func buildBinaryFixture(t testing.TB) *Dataset {
	t.Helper()
	b := NewBuilder([]string{"a", "b", "c", "d"})
	for i := 0; i < 37; i++ {
		row := []string{
			"v" + strconv.Itoa(i%5),
			"w" + strconv.Itoa(i%7),
			"x" + strconv.Itoa(i%3),
			"y" + strconv.Itoa(i%11),
		}
		present := []bool{true, i%4 != 0, true, i%6 != 0}
		if err := b.AddPresence(row, present, i%4, true); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func assertDatasetEqual(t *testing.T, label string, want, got *Dataset) {
	t.Helper()
	if got.NumItems() != want.NumItems() || got.NumAttrs() != want.NumAttrs() {
		t.Fatalf("%s: shape = (%d,%d), want (%d,%d)", label,
			got.NumItems(), got.NumAttrs(), want.NumItems(), want.NumAttrs())
	}
	for i, name := range want.AttrNames() {
		if got.AttrNames()[i] != name {
			t.Fatalf("%s: attr[%d] = %q, want %q", label, i, got.AttrNames()[i], name)
		}
	}
	wv, gv := want.Values(), got.Values()
	for i := range wv {
		if wv[i] != gv[i] {
			t.Fatalf("%s: values[%d] = %d, want %d", label, i, gv[i], wv[i])
		}
	}
	if got.Labeled() != want.Labeled() {
		t.Fatalf("%s: labeled = %v, want %v", label, got.Labeled(), want.Labeled())
	}
	if want.Labeled() {
		for i := 0; i < want.NumItems(); i++ {
			if got.Label(i) != want.Label(i) {
				t.Fatalf("%s: label[%d] = %d, want %d", label, i, got.Label(i), want.Label(i))
			}
		}
	}
	for _, v := range wv {
		if got.Present(v) != want.Present(v) {
			t.Fatalf("%s: Present(%d) = %v, want %v", label, v, got.Present(v), want.Present(v))
		}
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint %#x, want %#x", label, got.Fingerprint(), want.Fingerprint())
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	ds := buildBinaryFixture(t)
	path := filepath.Join(t.TempDir(), "data.lshz")
	if err := WriteBinary(ds, path); err != nil {
		t.Fatal(err)
	}

	heap, closeHeap, err := OpenBinary(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeHeap()
	assertDatasetEqual(t, "heap", ds, heap)

	if persist.MmapSupported {
		mapped, closeMapped, err := OpenBinary(path, true)
		if err != nil {
			t.Fatal(err)
		}
		assertDatasetEqual(t, "mmap", ds, mapped)
		if err := closeMapped(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestBinaryRoundTripUnlabeled(t *testing.T) {
	b := NewBuilder([]string{"p", "q"})
	for i := 0; i < 9; i++ {
		if err := b.Add([]string{"u" + strconv.Itoa(i%2), "v" + strconv.Itoa(i%3)}); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "data.lshz")
	if err := WriteBinary(ds, path); err != nil {
		t.Fatal(err)
	}
	got, closeFn, err := OpenBinary(path, false)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	assertDatasetEqual(t, "unlabeled", ds, got)
}

// TestBinaryCorruptRejected flips one byte in the middle of the file:
// the container checksum must refuse the load rather than hand back a
// silently corrupted dataset.
func TestBinaryCorruptRejected(t *testing.T) {
	ds := buildBinaryFixture(t)
	path := filepath.Join(t.TempDir(), "data.lshz")
	if err := WriteBinary(ds, path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenBinary(path, false); err == nil {
		t.Fatal("OpenBinary accepted a corrupted file")
	}
}

// TestFingerprintMatchesFNV pins Fingerprint's value to hash/fnv's
// 64-bit FNV-1a over the bytes it documents — item count, attribute
// count, then every value shifted left by one with its presence flag
// in bit 0, each as eight little-endian bytes — on a dataset with
// absent values, so every manifest saved before the hash was inlined
// still matches its dataset.
func TestFingerprintMatchesFNV(t *testing.T) {
	ds := buildBinaryFixture(t)
	absent := 0
	h := fnv.New64a()
	word := func(w uint64) { h.Write(binary.LittleEndian.AppendUint64(nil, w)) }
	word(uint64(ds.NumItems()))
	word(uint64(ds.NumAttrs()))
	for i := 0; i < ds.NumItems(); i++ {
		for _, v := range ds.Row(i) {
			w := uint64(v) << 1
			if ds.Present(v) {
				w |= 1
			} else {
				absent++
			}
			word(w)
		}
	}
	if absent == 0 {
		t.Fatal("the fixture has no absent values")
	}
	if got, want := ds.Fingerprint(), h.Sum64(); got != want {
		t.Fatalf("Fingerprint = %#x, hash/fnv over the same bytes = %#x", got, want)
	}
}

// TestFingerprintDistinguishes: the fingerprint must move when the data
// it guards moves — values and presence flags alike.
func TestFingerprintDistinguishes(t *testing.T) {
	a := buildBinaryFixture(t)

	b := NewBuilder([]string{"a", "b", "c", "d"})
	for i := 0; i < 37; i++ {
		row := []string{
			"v" + strconv.Itoa(i%5),
			"w" + strconv.Itoa(i%7),
			"x" + strconv.Itoa(i%3),
			"y" + strconv.Itoa(i%11),
		}
		// Same raw values, one presence flag pattern shifted.
		present := []bool{true, i%4 != 1, true, i%6 != 0}
		if err := b.AddPresence(row, present, i%4, true); err != nil {
			t.Fatal(err)
		}
	}
	shifted, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if a.Fingerprint() == shifted.Fingerprint() {
		t.Fatal("fingerprint ignored a presence-flag change")
	}
}

// TestOpenBinaryRejectsHeader writes files whose sections carry valid
// checksums but whose header disagrees with them: each must be
// rejected. The first is a header whose n·m wraps around 2^64 to the
// value count, which used to load as one item.
func TestOpenBinaryRejectsHeader(t *testing.T) {
	names := []byte("a\x00b\x00c\x00d")
	values := rawBytes([]Value{1, 2, 3, 4, 5, 6, 7, 8})
	for name, c := range map[string]struct {
		hdr    []int64
		values []byte
	}{
		"wrapping-n":         {[]int64{1<<62 + 2, 4, 0, 0}, values},
		"negative-n":         {[]int64{-2, 4, 0, 0}, values},
		"n-too-small":        {[]int64{1, 4, 0, 0}, values},
		"n-too-large":        {[]int64{3, 4, 0, 0}, values},
		"partial-row":        {[]int64{2, 4, 0, 0}, rawBytes([]Value{1, 2, 3, 4, 5, 6, 7, 8, 9})},
		"label-flag-2":       {[]int64{2, 4, 2, 0}, values},
		"presence-flag-neg":  {[]int64{2, 4, 0, -1}, values},
		"presence-flag-high": {[]int64{2, 4, 0, 1 << 40}, values},
	} {
		path := filepath.Join(t.TempDir(), "data.lshz")
		if err := persist.WriteFile(path, []persist.Section{
			{ID: secHeader, ElemSize: 8, Data: rawBytes(c.hdr)},
			{ID: secNames, ElemSize: 1, Data: names},
			{ID: secValues, ElemSize: 4, Data: c.values},
			{ID: secPresent, ElemSize: 8, Data: rawBytes([]uint64{0xff})},
		}); err != nil {
			t.Fatal(err)
		}
		if ds, _, err := OpenBinary(path, false); err == nil {
			t.Errorf("%s: loaded %d items", name, ds.NumItems())
		}
	}
}

package dataset

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"lshcluster/internal/lsh/persist"
)

// binarySections reads back the five sections WriteBinary wrote for ds,
// as raw bytes, in section-ID order; an absent section is nil.
func binarySections(tb testing.TB, ds *Dataset) [5][]byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), "seed.lshz")
	if err := WriteBinary(ds, path); err != nil {
		tb.Fatal(err)
	}
	f, err := persist.Open(path, false)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	return [5][]byte{
		sectionBytes[int64](tb, f, secHeader),
		sectionBytes[byte](tb, f, secNames),
		sectionBytes[Value](tb, f, secValues),
		sectionBytes[int32](tb, f, secLabels),
		sectionBytes[uint64](tb, f, secPresent),
	}
}

// sectionBytes copies section id of f, viewed as []T, or returns nil
// when f has no such section.
func sectionBytes[T any](tb testing.TB, f *persist.File, id persist.SectionID) []byte {
	tb.Helper()
	if !f.Has(id) {
		return nil
	}
	s, err := persist.View[T](f, id)
	if err != nil {
		tb.Fatal(err)
	}
	return bytes.Clone(rawBytes(s))
}

// words decodes b as native-order words of size bytes, dropping a
// partial tail word.
func words(b []byte, size int) []uint64 {
	out := make([]uint64, len(b)/size)
	for i := range out {
		switch size {
		case 4:
			out[i] = uint64(binary.NativeEndian.Uint32(b[4*i:]))
		case 8:
			out[i] = binary.NativeEndian.Uint64(b[8*i:])
		}
	}
	return out
}

// FuzzOpenBinary writes fuzzed header, names, values, labels and
// presence-bitmap sections with valid checksums, any of them left out
// by a bit of omit, and opens the file on the heap and mapped.
// OpenBinary must reject it, or load exactly the dataset that New
// builds from the same sections — its labels when the header's label
// flag is 1, the bitmap's presence when its presence flag is 1 — with
// the header's item count equal to NumItems and both flags 0 or 1.
// Nothing may panic.
func FuzzOpenBinary(f *testing.F) {
	labelled := buildBinaryFixture(f)
	b := NewBuilder([]string{"p", "q"})
	for i := 0; i < 9; i++ {
		if err := b.Add([]string{"u" + strconv.Itoa(i%2), "v" + strconv.Itoa(i%3)}); err != nil {
			f.Fatal(err)
		}
	}
	unlabelled, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	plain, err := New([]string{"a", "b", "c"}, []Value{1, 2, 3, 4, 5, 6}, nil, nil)
	if err != nil {
		f.Fatal(err)
	}
	plainLabelled, err := New([]string{"a"}, []Value{7, 8, 7}, []int32{0, 1, 0}, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, ds := range []*Dataset{labelled, unlabelled, plain, plainLabelled} {
		s := binarySections(f, ds)
		f.Add(s[0], s[1], s[2], s[3], s[4], uint8(0))
	}
	// A header whose n·m wraps around 2^64 to the value count.
	s := binarySections(f, plainLabelled)
	wrap := rawBytes([]int64{1<<62 + 1, 4, 0, 0})
	f.Add(bytes.Clone(wrap), []byte("a\x00b\x00c\x00d"), rawBytes([]Value{1, 2, 3, 4}), []byte(nil), []byte(nil), uint8(0))
	f.Add(s[0], s[1], s[2], s[3], s[4], uint8(1<<3)) // labelled, no labels section
	f.Fuzz(func(t *testing.T, header, names, values, labels, bitmap []byte, omit uint8) {
		data := [5][]byte{header, names, values, labels, bitmap}
		elem := [5]int{8, 1, 4, 4, 8}
		var sections []persist.Section
		for j := range data {
			data[j] = data[j][:len(data[j])/elem[j]*elem[j]]
			if omit&(1<<j) == 0 {
				sections = append(sections, persist.Section{ID: secHeader + persist.SectionID(j), ElemSize: elem[j], Data: data[j]})
			}
		}
		path := filepath.Join(t.TempDir(), "data.lshz")
		if err := persist.WriteFile(path, sections); err != nil {
			t.Fatal(err)
		}
		for _, mmap := range []bool{false, true} {
			if mmap && !persist.MmapSupported {
				continue
			}
			got, closeFn, err := OpenBinary(path, mmap)
			if err != nil {
				continue
			}
			checkLoaded(t, got, data)
			if err := closeFn(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// checkLoaded requires got, loaded from sections data, to equal what New
// builds from the same sections.
func checkLoaded(t *testing.T, got *Dataset, data [5][]byte) {
	t.Helper()
	hdr := words(data[0], 8)
	if len(hdr) != 4 {
		t.Fatalf("loaded a header of %d fields", len(hdr))
	}
	if hdr[2] > 1 || hdr[3] > 1 {
		t.Fatalf("loaded header flags %d and %d", int64(hdr[2]), int64(hdr[3]))
	}
	var values []Value
	for _, v := range words(data[2], 4) {
		values = append(values, Value(v))
	}
	var labels []int32
	if hdr[2] == 1 {
		labels = []int32{}
		for _, l := range words(data[3], 4) {
			labels = append(labels, int32(l))
		}
	}
	want, err := New(splitNames(string(data[1])), values, labels, nil)
	if err != nil {
		t.Fatalf("loaded sections New rejects: %v", err)
	}
	if hdr[3] == 1 {
		want.present = bitmapPresence(words(data[4], 8))
	}
	if int64(hdr[0]) != int64(got.NumItems()) {
		t.Fatalf("header says %d items, loaded %d", int64(hdr[0]), got.NumItems())
	}
	if got.NumItems() != want.NumItems() || got.NumAttrs() != want.NumAttrs() {
		t.Fatalf("shape (%d,%d), New (%d,%d)", got.NumItems(), got.NumAttrs(), want.NumItems(), want.NumAttrs())
	}
	if !slices.Equal(got.AttrNames(), want.AttrNames()) || !slices.Equal(got.Values(), want.Values()) {
		t.Fatal("names or values differ from New's")
	}
	if got.Labeled() != want.Labeled() || !slices.Equal(got.Labels(), want.Labels()) {
		t.Fatalf("labels %v, New %v", got.Labels(), want.Labels())
	}
	for _, v := range append(values, 0, 1, 63, 64, 1<<20) {
		if got.Present(v) != want.Present(v) {
			t.Fatalf("Present(%d) = %v, New %v", v, got.Present(v), want.Present(v))
		}
	}
	if n := got.NumItems(); n > 0 {
		_ = got.Row(n - 1)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatal("fingerprint differs from New's")
	}
}

// Binary dataset interchange: a columnar on-disk format (the shared
// internal/lsh/persist section container) that OpenBinary can memory-map,
// so the CLI clusters a file without materialising its rows on the heap
// — the dataset's value store aliases the read-only mapping and pages in
// on demand. WriteBinary is lossless for everything clustering observes:
// attribute names, values, labels and per-value presence flags (the
// interning dictionary itself — raw strings — is not retained; a
// binary-loaded dataset answers Present but not value decoding).
package dataset

import (
	"bytes"
	"fmt"
	"unsafe"

	"lshcluster/internal/lsh/persist"
)

// Binary-dataset section IDs.
const (
	secHeader  persist.SectionID = 1 // []int64{n, m, labeled, presence}
	secNames   persist.SectionID = 2 // attribute names, 0x00-separated
	secValues  persist.SectionID = 3 // []Value, row-major n·m
	secLabels  persist.SectionID = 4 // []int32, present when labeled
	secPresent persist.SectionID = 5 // presence bitmap over value IDs
)

// rawBytes reinterprets a slice as its backing bytes (zero-copy).
func rawBytes[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(t)))
}

// bitmapPresence answers Present from a packed bitmap over value IDs —
// the on-disk representation of a dictionary's presence flags.
type bitmapPresence []uint64

func (b bitmapPresence) present(v Value) bool {
	w := int(v) >> 6
	if w >= len(b) {
		return false
	}
	return b[w]&(1<<(uint(v)&63)) != 0
}

// WriteBinary persists ds to path in the binary columnar format
// (checksummed, atomically written, 0644). Presence flags are flattened
// to a bitmap, so MinHash filtering behaves identically on reload.
func WriteBinary(ds *Dataset, path string) error {
	n := ds.NumItems()
	hasLabels := int64(0)
	if ds.labels != nil {
		hasLabels = 1
	}
	hasPresent := int64(0)
	var bitmap []uint64
	if ds.dict != nil {
		hasPresent = 1
		maxVal := ds.MaxValue()
		bitmap = make([]uint64, (int(maxVal)+64)/64)
		for v := Value(1); v <= maxVal; v++ {
			if ds.present.present(v) {
				bitmap[int(v)>>6] |= 1 << (uint(v) & 63)
			}
		}
	}
	names := []byte(joinNames(ds.attrNames))
	sections := []persist.Section{
		{ID: secHeader, ElemSize: 8, Data: rawBytes([]int64{int64(n), int64(ds.m), hasLabels, hasPresent})},
		{ID: secNames, ElemSize: 1, Data: names},
		{ID: secValues, ElemSize: 4, Data: rawBytes(ds.values)},
	}
	if hasLabels == 1 {
		sections = append(sections, persist.Section{ID: secLabels, ElemSize: 4, Data: rawBytes(ds.labels)})
	}
	if hasPresent == 1 {
		sections = append(sections, persist.Section{ID: secPresent, ElemSize: 8, Data: rawBytes(bitmap)})
	}
	if err := persist.WriteFile(path, sections); err != nil {
		return fmt.Errorf("dataset: writing binary dataset: %w", err)
	}
	return nil
}

func joinNames(names []string) string {
	var b bytes.Buffer
	for i, s := range names {
		if i > 0 {
			b.WriteByte(0)
		}
		b.WriteString(s)
	}
	return b.String()
}

// OpenBinary loads a binary dataset from path. With useMmap the value
// store (the n·m bulk of the file) aliases a read-only memory mapping —
// rows are never materialised on the heap, pages fault in as clustering
// touches them; otherwise everything is copied to the heap (the
// portable oracle, byte-identical data either way). The returned close
// function releases the mapping; the dataset must not be used after.
func OpenBinary(path string, useMmap bool) (*Dataset, func() error, error) {
	f, err := persist.Open(path, useMmap)
	if err != nil {
		return nil, nil, err
	}
	fail := func(err error) (*Dataset, func() error, error) {
		f.Close()
		return nil, nil, err
	}
	hdr, err := persist.View[int64](f, secHeader)
	if err != nil {
		return fail(err)
	}
	if len(hdr) != 4 {
		return fail(fmt.Errorf("dataset: binary header has %d fields, want 4", len(hdr)))
	}
	if hdr[2]>>1 != 0 || hdr[3]>>1 != 0 {
		return fail(fmt.Errorf("dataset: binary header flags %d and %d, want 0 or 1", hdr[2], hdr[3]))
	}
	n, hasLabels, hasPresent := hdr[0], hdr[2] == 1, hdr[3] == 1
	names, err := persist.View[byte](f, secNames)
	if err != nil {
		return fail(err)
	}
	attrNames := splitNames(string(names))
	if hdr[1] < 1 || int64(len(attrNames)) != hdr[1] {
		return fail(fmt.Errorf("dataset: binary file names %d attributes, header says %d", len(attrNames), hdr[1]))
	}
	m := len(attrNames)
	values, err := persist.View[Value](f, secValues)
	if err != nil {
		return fail(err)
	}
	// n·m may wrap; the quotient may not.
	if len(values)%m != 0 || int64(len(values)/m) != n {
		return fail(fmt.Errorf("dataset: binary file holds %d values for %d items of %d attributes", len(values), n, m))
	}
	ds := &Dataset{attrNames: attrNames, m: m, values: values, present: allPresent{}}
	if hasLabels {
		if ds.labels, err = persist.View[int32](f, secLabels); err != nil {
			return fail(err)
		}
		if int64(len(ds.labels)) != n {
			return fail(fmt.Errorf("dataset: binary file holds %d labels for %d items", len(ds.labels), n))
		}
	}
	if hasPresent {
		bitmap, err := persist.View[uint64](f, secPresent)
		if err != nil {
			return fail(err)
		}
		ds.present = bitmapPresence(bitmap)
	}
	return ds, f.Close, nil
}

func splitNames(blob string) []string {
	var names []string
	for len(blob) > 0 {
		i := 0
		for i < len(blob) && blob[i] != 0 {
			i++
		}
		names = append(names, blob[:i])
		if i == len(blob) {
			break
		}
		blob = blob[i+1:]
	}
	return names
}

// Fingerprint returns a stable hash of everything LSH signing observes
// — item count, attribute count, every value and its presence flag —
// identifying the dataset a persisted index was built from. Two
// datasets with equal fingerprints produce identical signatures under
// the same scheme, so a saved index is valid for exactly the datasets
// sharing the fingerprint of the one it was built from. Computed once
// and cached (datasets are immutable); safe for concurrent use.
func (ds *Dataset) Fingerprint() uint64 {
	ds.fpOnce.Do(func() {
		h := fnvWord(fnvOffset64, uint64(ds.NumItems()))
		h = fnvWord(h, uint64(ds.m))
		for _, v := range ds.values {
			w := uint64(v) << 1
			if ds.present.present(v) {
				w |= 1
			}
			h = fnvWord(h, w)
		}
		ds.fp = h
	})
	return ds.fp
}

// The 64-bit FNV-1a parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvWord folds w's eight little-endian bytes into the FNV-1a state h:
// what one 8-byte Write to hash/fnv's New64a does, without the call.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= w & 0xff
		h *= fnvPrime64
		w >>= 8
	}
	return h
}

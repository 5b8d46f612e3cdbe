package persist

import (
	"encoding/binary"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"testing"
	"unsafe"
)

// reseal rewrites data's stored size and checksums in place — every
// section whose table entry lies inside data and whose bytes do too,
// then the table's and the header's — so that an edit to the header or
// the section table reaches the checks behind the checksums.
func reseal(data []byte) {
	if len(data) < headerSize {
		return
	}
	hdr := data[:headerSize]
	binary.LittleEndian.PutUint64(hdr[24:], uint64(len(data)))
	count := int64(binary.LittleEndian.Uint32(hdr[16:]))
	if tableEnd := headerSize + count*entrySize; tableEnd <= int64(len(data)) {
		table := data[headerSize:tableEnd]
		for i := int64(0); i < count; i++ {
			e := table[i*entrySize:]
			off, length := binary.LittleEndian.Uint64(e[16:]), binary.LittleEndian.Uint64(e[24:])
			if off <= uint64(len(data)) && length <= uint64(len(data))-off {
				binary.LittleEndian.PutUint32(e[32:], crc32.Checksum(data[off:off+length], castagnoli))
			}
		}
		binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(table, castagnoli))
	}
	binary.LittleEndian.PutUint32(hdr[36:], crc32.Checksum(hdr[0:36], castagnoli))
}

// viewBytes returns View of section id through the element type of its
// width, as raw bytes; ok is false for a width no fixed-size integer
// has.
func viewBytes(f *File, id SectionID, elemSize int) (b []byte, ok bool, err error) {
	raw := func(p unsafe.Pointer, n int) []byte { return unsafe.Slice((*byte)(p), n*elemSize) }
	switch elemSize {
	case 1:
		v, err := View[uint8](f, id)
		return v, true, err
	case 2:
		v, err := View[uint16](f, id)
		return raw(unsafe.Pointer(unsafe.SliceData(v)), len(v)), true, err
	case 4:
		v, err := View[uint32](f, id)
		return raw(unsafe.Pointer(unsafe.SliceData(v)), len(v)), true, err
	case 8:
		v, err := View[uint64](f, id)
		return raw(unsafe.Pointer(unsafe.SliceData(v)), len(v)), true, err
	}
	return nil, false, nil
}

// FuzzOpen fuzzes Open on raw file bytes, heap-copied and memory-mapped.
// With reseal set, the input's stored size and every checksum are made
// to match it first, so the fuzzer's edits to the header, the section
// count and the table entries — element size, element count, offset,
// length — reach the geometry checks instead of stopping at a checksum.
// Open must return an error or a File whose every table entry is a
// section of exactly count × element-size bytes, without overflow,
// that lies inside the file, and on which View through the element
// type of that width returns exactly those bytes. Nothing may panic.
func FuzzOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed.lshz")
	if err := WriteFile(path, testSections()); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid, false)
	for _, n := range []int{0, 8, headerSize - 1, headerSize, headerSize + entrySize, len(valid) - 1} {
		f.Add(valid[:n], false)
		f.Add(valid[:n], true)
	}
	edit := func(at int, put func([]byte)) []byte {
		b := append([]byte(nil), valid...)
		put(b[at:])
		return b
	}
	le32, le64 := binary.LittleEndian.PutUint32, binary.LittleEndian.PutUint64
	entry := headerSize + entrySize                                                // the second section's table entry
	f.Add(edit(16, func(b []byte) { le32(b, 1<<30) }), true)                       // section count past the file
	f.Add(edit(entry+4, func(b []byte) { le32(b, 2) }), true)                      // element size disagreeing with the length
	f.Add(edit(entry+8, func(b []byte) { le64(b, 1<<63+5) }), true)                // count × element size wrapping to the length
	f.Add(edit(entry+16, func(b []byte) { le64(b, uint64(len(valid))+64) }), true) // offset past the end
	f.Add(edit(entry+24, func(b []byte) { le64(b, 1<<62) }), true)                 // length past the end
	f.Add(edit(entry+16, func(b []byte) { le64(b, 1<<64-64) }), true)              // offset + length wrapping
	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		data = append([]byte(nil), data...)
		if resealed {
			reseal(data)
		}
		path := filepath.Join(t.TempDir(), "fuzz.lshz")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, useMmap := range []bool{false, MmapSupported} {
			file, err := Open(path, useMmap)
			if err != nil {
				continue
			}
			if file.Size() != int64(len(data)) {
				t.Fatalf("mmap=%v: file of %d bytes opened as %d", useMmap, len(data), file.Size())
			}
			count := int(binary.LittleEndian.Uint32(data[16:]))
			if len(file.sections) != count {
				t.Fatalf("mmap=%v: %d sections listed, %d opened", useMmap, count, len(file.sections))
			}
			for i := 0; i < count; i++ {
				e := data[headerSize+i*entrySize:]
				id := SectionID(binary.LittleEndian.Uint32(e))
				elem := int(binary.LittleEndian.Uint32(e[4:]))
				hi, length := bits.Mul64(binary.LittleEndian.Uint64(e[8:]), uint64(elem))
				off := binary.LittleEndian.Uint64(e[16:])
				if hi != 0 || length != binary.LittleEndian.Uint64(e[24:]) || off > uint64(len(data)) || length > uint64(len(data))-off {
					t.Fatalf("mmap=%v: section %d (%d-byte elements, table entry %x) opened", useMmap, id, elem, e[:40])
				}
				b, ok, err := viewBytes(file, id, elem)
				if !ok {
					if _, err := View[uint8](file, id); err == nil {
						t.Fatalf("mmap=%v: section %d of %d-byte elements viewed as bytes", useMmap, id, elem)
					}
					continue
				}
				if err != nil {
					t.Fatalf("mmap=%v: View of section %d: %v", useMmap, id, err)
				}
				if uint64(len(b)) != length {
					t.Fatalf("mmap=%v: View of section %d holds %d bytes, want %d", useMmap, id, len(b), length)
				}
				if length > 0 && (&b[0] != &file.data[off] || string(b) != string(data[off:off+length])) {
					t.Fatalf("mmap=%v: View of section %d is not the file's bytes %d..%d", useMmap, id, off, off+length)
				}
			}
			if err := file.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// Package persist is the versioned, checksummed on-disk format for
// the LSH index and the binary datasets: persistent storage and
// mmap'd zero-copy loading. The cluster summaries of long buckets are
// never persisted; they describe an assignment and are rebuilt per run.
//
// A file (a saved index's <dir>/shard-0.lshz, a binary dataset, a
// run-state snapshot) is a fixed 64-byte header, a section table, and
// the sections themselves, each padded to a 64-byte boundary:
//
//	header   magic "LSHZIDX\x00" · format version · native byte-order
//	         marker · section count · file size · table CRC · header CRC
//	table    one 40-byte entry per section: id, element size, element
//	         count, absolute offset, byte length, section CRC
//	sections raw little-ended slice memory, 64-byte aligned
//
// An index file's sections carry the index arrays exactly as they sit
// in memory (offsets, items and slots), so a mapped section is directly
// usable as the existing slice field: a mapped Open aliases the
// mapping with zero copies, while a heap Open reads the same bytes
// into heap memory — the portable oracle the equivalence tests pin the
// mmap path against. A fourth section keeps the per-item inserted
// flags of the format; every index holds all its items, so each flag
// is written, and must read, 1. Every integrity check is an error,
// never a panic: bad magic, wrong version, foreign byte order,
// truncation (stored size ≠ actual size), table corruption, a section
// whose element count times element size overflows or differs from its
// length or which reaches past the file, and per-section CRC32-C
// mismatches all reject the file before any data is handed out, so a
// crashed or corrupted save can never be partially loaded.
//
// Alongside the index file sits manifest.json (written last, after the
// index file has been renamed into place, so a directory with a
// manifest is complete by construction). The manifest captures the
// build configuration — banding parameters, signing seed, item count,
// dataset fingerprint, and the inserted count, shard count, file name
// and reorder flag of the retired per-item and multi-shard layouts,
// which must read the item count, 1, shard-0.lshz and false — and
// loading verifies every field against the caller's expectation: a
// stale index is rejected with an error, never silently reused.
package persist

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/bits"
	"os"
	"path/filepath"
	"unsafe"
)

// FormatVersion is the on-disk format revision. Readers reject any
// other version.
const FormatVersion = 1

const (
	magic       = "LSHZIDX\x00"
	headerSize  = 64
	entrySize   = 40
	sectionAlig = 64
	// orderMark is stored as raw native memory; a reader on a machine
	// with a different byte order sees it scrambled and rejects the file
	// (sections are raw slice memory, meaningless cross-endian).
	orderMark uint32 = 0x01020304
)

// filePerm is the mode saved artifacts are created with:
// world-readable index files, like any other build product.
const filePerm = 0o644

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SectionID identifies one array within a file. IDs are assigned by
// the caller (internal/lsh owns the index layout) and must be
// unique within a file.
type SectionID uint32

// Section is one array scheduled for writing: Data holds the raw slice
// memory, ElemSize the element width it will be reinterpreted at on
// load (View checks it).
type Section struct {
	ID       SectionID
	ElemSize int
	Data     []byte
}

type sectionInfo struct {
	elemSize int
	off      int64
	length   int64
}

// nativeOrderBytes returns orderMark as it lies in this machine's
// memory.
func nativeOrderBytes() [4]byte {
	var b [4]byte
	*(*uint32)(unsafe.Pointer(&b[0])) = orderMark
	return b
}

func align64(n int64) int64 { return (n + sectionAlig - 1) &^ (sectionAlig - 1) }

// WriteFile writes sections to path atomically: the file is assembled
// under a temporary name in the same directory and renamed into place,
// so a crash mid-save never leaves a loadable half-file. Files are
// created 0644.
func WriteFile(path string, sections []Section) (err error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: creating %s: %w", path, err)
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	// Layout first: section offsets are known before any data is
	// written, so the body streams in one pass and only the header and
	// table are patched afterwards.
	tableLen := int64(len(sections)) * entrySize
	off := align64(headerSize + tableLen)
	table := make([]byte, tableLen)
	seen := make(map[SectionID]bool, len(sections))
	for i, s := range sections {
		if s.ElemSize <= 0 || len(s.Data)%s.ElemSize != 0 {
			return fmt.Errorf("persist: section %d has %d bytes, element size %d", s.ID, len(s.Data), s.ElemSize)
		}
		if seen[s.ID] {
			return fmt.Errorf("persist: duplicate section id %d", s.ID)
		}
		seen[s.ID] = true
		e := table[i*entrySize:]
		binary.LittleEndian.PutUint32(e[0:], uint32(s.ID))
		binary.LittleEndian.PutUint32(e[4:], uint32(s.ElemSize))
		binary.LittleEndian.PutUint64(e[8:], uint64(len(s.Data)/s.ElemSize))
		binary.LittleEndian.PutUint64(e[16:], uint64(off))
		binary.LittleEndian.PutUint64(e[24:], uint64(len(s.Data)))
		binary.LittleEndian.PutUint32(e[32:], crc32.Checksum(s.Data, castagnoli))
		off = align64(off + int64(len(s.Data)))
	}
	fileSize := off

	var hdr [headerSize]byte
	copy(hdr[0:8], magic)
	binary.LittleEndian.PutUint32(hdr[8:], FormatVersion)
	om := nativeOrderBytes()
	copy(hdr[12:16], om[:])
	binary.LittleEndian.PutUint32(hdr[16:], uint32(len(sections)))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(fileSize))
	binary.LittleEndian.PutUint32(hdr[32:], crc32.Checksum(table, castagnoli))
	binary.LittleEndian.PutUint32(hdr[36:], crc32.Checksum(hdr[0:36], castagnoli))

	if _, err = tmp.Write(hdr[:]); err != nil {
		return fmt.Errorf("persist: writing %s: %w", path, err)
	}
	if _, err = tmp.Write(table); err != nil {
		return fmt.Errorf("persist: writing %s: %w", path, err)
	}
	pos := headerSize + tableLen
	var pad [sectionAlig]byte
	for _, s := range sections {
		if n := align64(pos) - pos; n > 0 {
			if _, err = tmp.Write(pad[:n]); err != nil {
				return fmt.Errorf("persist: writing %s: %w", path, err)
			}
			pos += n
		}
		if _, err = tmp.Write(s.Data); err != nil {
			return fmt.Errorf("persist: writing %s: %w", path, err)
		}
		pos += int64(len(s.Data))
	}
	if n := align64(pos) - pos; n > 0 {
		if _, err = tmp.Write(pad[:n]); err != nil {
			return fmt.Errorf("persist: writing %s: %w", path, err)
		}
	}
	if err = tmp.Chmod(filePerm); err != nil {
		return fmt.Errorf("persist: chmod %s: %w", path, err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing %s: %w", path, err)
	}
	if err = os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: renaming %s: %w", path, err)
	}
	return nil
}

// File is one opened file: either a heap copy (Load, the
// portable oracle) or a read-only memory mapping (LoadMmap) of the
// whole file, with sections resolved to subslices. Section data must
// be treated as immutable; the mmap path enforces it (PROT_READ — a
// stray write faults loudly instead of corrupting the index).
type File struct {
	path     string
	data     []byte
	mapped   bool
	sections map[SectionID]sectionInfo
}

// Open reads and fully verifies the file at path. With useMmap the
// file contents are memory-mapped read-only and section slices alias
// the mapping (zero-copy); otherwise the bytes are copied to the heap.
// Verification — magic, version, byte order, size, table and
// per-section CRC32-C — always runs in full, so a corrupted file is
// rejected here and never partially observed.
func Open(path string, useMmap bool) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	defer fh.Close()
	st, err := fh.Stat()
	if err != nil {
		return nil, fmt.Errorf("persist: %s: %w", path, err)
	}
	size := st.Size()
	if size < headerSize {
		return nil, fmt.Errorf("persist: %s: truncated (%d bytes, header needs %d)", path, size, headerSize)
	}
	var data []byte
	mapped := false
	if useMmap {
		data, err = mmapFile(fh, size)
		if err != nil {
			return nil, fmt.Errorf("persist: mmap %s: %w", path, err)
		}
		mapped = true
	} else {
		// Back the heap copy with a uint64 slice so every 64-byte-aligned
		// section offset lands on at least 8-byte-aligned memory — the
		// alignment View's reinterpret casts require. A plain []byte
		// carries no alignment guarantee.
		words := make([]uint64, (size+7)/8)
		data = unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
		if _, err := fh.ReadAt(data, 0); err != nil {
			return nil, fmt.Errorf("persist: reading %s: %w", path, err)
		}
	}
	f := &File{path: path, data: data, mapped: mapped}
	if err := f.verify(size); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func (f *File) verify(size int64) error {
	hdr := f.data[:headerSize]
	if string(hdr[0:8]) != magic {
		return fmt.Errorf("persist: %s: bad magic %q", f.path, hdr[0:8])
	}
	if got := binary.LittleEndian.Uint32(hdr[36:]); got != crc32.Checksum(hdr[0:36], castagnoli) {
		return fmt.Errorf("persist: %s: header checksum mismatch", f.path)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != FormatVersion {
		return fmt.Errorf("persist: %s: format version %d, this build reads %d", f.path, v, FormatVersion)
	}
	om := nativeOrderBytes()
	if [4]byte(hdr[12:16]) != om {
		return fmt.Errorf("persist: %s: foreign byte order", f.path)
	}
	if stored := binary.LittleEndian.Uint64(hdr[24:]); stored != uint64(size) {
		return fmt.Errorf("persist: %s: truncated (%d of %d bytes)", f.path, size, stored)
	}
	count := int64(binary.LittleEndian.Uint32(hdr[16:]))
	tableEnd := headerSize + count*entrySize
	if tableEnd > size {
		return fmt.Errorf("persist: %s: section table exceeds file", f.path)
	}
	table := f.data[headerSize:tableEnd]
	if got := binary.LittleEndian.Uint32(hdr[32:]); got != crc32.Checksum(table, castagnoli) {
		return fmt.Errorf("persist: %s: section table checksum mismatch", f.path)
	}
	f.sections = make(map[SectionID]sectionInfo, count)
	for i := int64(0); i < count; i++ {
		e := table[i*entrySize:]
		id := SectionID(binary.LittleEndian.Uint32(e[0:]))
		elem := int64(binary.LittleEndian.Uint32(e[4:]))
		n := binary.LittleEndian.Uint64(e[8:])
		off := binary.LittleEndian.Uint64(e[16:])
		length := binary.LittleEndian.Uint64(e[24:])
		crc := binary.LittleEndian.Uint32(e[32:])
		if hi, bytes := bits.Mul64(n, uint64(elem)); elem <= 0 || hi != 0 || bytes != length {
			return fmt.Errorf("persist: %s: section %d: inconsistent geometry", f.path, id)
		}
		if off%sectionAlig != 0 || off > uint64(size) || length > uint64(size)-off {
			return fmt.Errorf("persist: %s: section %d: out of bounds", f.path, id)
		}
		if _, dup := f.sections[id]; dup {
			return fmt.Errorf("persist: %s: duplicate section id %d", f.path, id)
		}
		body := f.data[off : off+length]
		if crc32.Checksum(body, castagnoli) != crc {
			return fmt.Errorf("persist: %s: section %d: checksum mismatch", f.path, id)
		}
		f.sections[id] = sectionInfo{elemSize: int(elem), off: int64(off), length: int64(length)}
	}
	return nil
}

// Mapped reports whether the file is memory-mapped (LoadMmap) rather
// than heap-copied.
func (f *File) Mapped() bool { return f.mapped }

// Size returns the total byte size of the backing data.
func (f *File) Size() int64 { return int64(len(f.data)) }

// Has reports whether a section with the given id is present.
func (f *File) Has(id SectionID) bool {
	_, ok := f.sections[id]
	return ok
}

// View reinterprets section id as a []T aliasing the file's backing
// memory (the mapping for mmap'd files, the heap copy otherwise). The
// stored element size must match T exactly.
func View[T any](f *File, id SectionID) ([]T, error) {
	info, ok := f.sections[id]
	if !ok {
		return nil, fmt.Errorf("persist: %s: missing section %d", f.path, id)
	}
	var t T
	if sz := int(unsafe.Sizeof(t)); sz != info.elemSize {
		return nil, fmt.Errorf("persist: %s: section %d holds %d-byte elements, want %d", f.path, id, info.elemSize, int(unsafe.Sizeof(t)))
	}
	if info.length == 0 {
		return []T{}, nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&f.data[info.off])), info.length/int64(info.elemSize)), nil
}

// Close releases the mapping (or the heap copy). Any slice returned by
// View is invalid afterwards; the caller must guarantee no concurrent
// readers remain.
func (f *File) Close() error {
	data := f.data
	f.data = nil
	f.sections = nil
	if f.mapped && data != nil {
		f.mapped = false
		if err := munmapFile(data); err != nil {
			return fmt.Errorf("persist: munmap %s: %w", f.path, err)
		}
	}
	return nil
}

// ManifestName is the index manifest's file name within a saved index
// directory.
const ManifestName = "manifest.json"

// Manifest records the configuration a saved index directory was built
// under. Every field is verified on load against the opener's
// expectation; any mismatch rejects the directory as stale. Seed,
// PermHash and Fingerprint are hex strings because JSON numbers cannot
// carry a full uint64.
type Manifest struct {
	FormatVersion int      `json:"format_version"`
	Shards        int      `json:"shards"`
	Items         int      `json:"items"`
	Bands         int      `json:"bands"`
	Rows          int      `json:"rows"`
	Seed          string   `json:"seed"`
	Partitioner   string   `json:"partitioner"`
	Reordered     bool     `json:"reordered"`
	PermHash      string   `json:"perm_hash"`
	Fingerprint   string   `json:"dataset_fingerprint"`
	ShardFiles    []string `json:"shard_files"`
	ShardInserted []int    `json:"shard_inserted"`
}

// Hex64 formats a uint64 for a manifest field.
func Hex64(v uint64) string { return fmt.Sprintf("%016x", v) }

// WriteManifest writes the manifest atomically into dir. It must be
// called last: a directory without a manifest is treated as absent, so
// a save that crashes before this point leaves nothing loadable.
func WriteManifest(dir string, m *Manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("persist: encoding manifest: %w", err)
	}
	data = append(data, '\n')
	tmp, err := os.CreateTemp(dir, ManifestName+".tmp*")
	if err != nil {
		return fmt.Errorf("persist: creating manifest: %w", err)
	}
	path := filepath.Join(dir, ManifestName)
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: writing manifest: %w", err)
	}
	if err := tmp.Chmod(filePerm); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: chmod manifest: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: closing manifest: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("persist: renaming manifest: %w", err)
	}
	return nil
}

// ReadManifest reads dir's manifest. A missing manifest returns
// os.ErrNotExist (wrapped): the directory holds no loadable index.
func ReadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("persist: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("persist: decoding manifest: %w", err)
	}
	if m.FormatVersion != FormatVersion {
		return nil, fmt.Errorf("persist: manifest format version %d, this build reads %d", m.FormatVersion, FormatVersion)
	}
	if m.Shards < 1 || len(m.ShardFiles) != m.Shards || len(m.ShardInserted) != m.Shards {
		return nil, fmt.Errorf("persist: manifest inconsistent: %d shards, %d files", m.Shards, len(m.ShardFiles))
	}
	return &m, nil
}

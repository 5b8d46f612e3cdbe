package lsh

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
	"unsafe"

	"lshcluster/internal/lsh/persist"
)

// Index-file section IDs (internal/lsh/persist format). Each section is
// the raw memory of one frozen-index slice, so a memory-mapped section
// is usable as the slice field directly. IDs 4–7 held the per-band key
// tables, 9 and 10 the cross-shard fan-out's span arrays and
// foreign-emptiness bitmap, and 11–12 the locality permutation; the
// loader reads none of them and no new file writes them.
const (
	secOffsets  persist.SectionID = 1
	secItems    persist.SectionID = 2
	secSlots    persist.SectionID = 3
	secInserted persist.SectionID = 8
)

// indexFileName is the saved index's one section file; the manifest
// lists it under its historical shard name.
const indexFileName = "shard-0.lshz"

// bytesOf reinterprets a slice as its raw backing bytes (zero-copy).
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(t)))
}

// IndexSaved reports whether dir holds a complete saved index (the
// manifest is written last, so its presence implies the index file
// landed).
func IndexSaved(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, persist.ManifestName))
	return err == nil
}

// SaveReport summarises a Save: wall time and total bytes written.
type SaveReport struct {
	Duration time.Duration
	Bytes    int64
}

// Save persists the frozen index to <dir>/shard-0.lshz plus a manifest,
// creating dir as needed. seed must be the signing seed the index was
// built with and fingerprint the dataset fingerprint; both go into the
// manifest so Open can reject a stale index. The index file is written
// atomically (temp + rename) and the manifest last, so a crashed save
// leaves no loadable directory.
func (ix *Index) Save(dir string, seed, fingerprint uint64) (SaveReport, error) {
	start := time.Now()
	fz := ix.frozen
	if fz == nil {
		return SaveReport{}, fmt.Errorf("lsh: Save before the index is frozen")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return SaveReport{}, fmt.Errorf("lsh: Save: %w", err)
	}
	path := filepath.Join(dir, indexFileName)
	err := persist.WriteFile(path, []persist.Section{
		{ID: secOffsets, ElemSize: 4, Data: bytesOf(fz.offsets)},
		{ID: secItems, ElemSize: 4, Data: bytesOf(fz.items)},
		{ID: secSlots, ElemSize: 4, Data: bytesOf(fz.slots)},
		{ID: secInserted, ElemSize: 1, Data: bytesOf(ix.inserted)},
	})
	if err != nil {
		return SaveReport{}, fmt.Errorf("lsh: saving index: %w", err)
	}
	m := &persist.Manifest{
		FormatVersion: persist.FormatVersion,
		Shards:        1,
		Items:         len(ix.inserted),
		Bands:         ix.params.Bands,
		Rows:          ix.params.Rows,
		Seed:          persist.Hex64(seed),
		Partitioner:   "range",
		PermHash:      persist.Hex64(0),
		Fingerprint:   persist.Hex64(fingerprint),
		ShardFiles:    []string{indexFileName},
		ShardInserted: []int{ix.numInserted},
	}
	var bytes int64
	if st, err := os.Stat(path); err == nil {
		bytes = st.Size()
	}
	if err := persist.WriteManifest(dir, m); err != nil {
		return SaveReport{}, fmt.Errorf("lsh: Save: %w", err)
	}
	return SaveReport{Duration: time.Since(start), Bytes: bytes}, nil
}

// OpenOptions configures Open. Params, Seed, NumItems and Fingerprint
// state what the caller would build fresh; each is checked against the
// manifest so a stale index is rejected, never silently reused.
type OpenOptions struct {
	Params   Params
	Seed     uint64
	NumItems int
	// Fingerprint is the dataset fingerprint the index must have been
	// built from.
	Fingerprint uint64
	// Mmap selects the zero-copy mapped load; false is the heap-copy
	// oracle.
	Mmap bool
}

// OpenReport summarises an Open: wall time and, for a mapped load, the
// mapped bytes.
type OpenReport struct {
	Duration  time.Duration
	MmapBytes int64
}

// Open loads a saved index from dir, verifying the manifest against opt
// and the index file's checksums and structure, and returns the index
// exactly as a fresh build would have left it: the same signing scheme
// and frozen arrays byte-identical to BuildFrozen's (the persistence
// equivalence tests pin this). With opt.Mmap the frozen slices alias a
// read-only mapping (zero-copy); otherwise they live on the heap. A
// directory saved with several shards or in reordered item order is
// rejected: its files do not hold this layout, and a reordered index's
// item IDs are permuted.
func Open(dir string, opt OpenOptions) (*Index, OpenReport, error) {
	start := time.Now()
	m, err := persist.ReadManifest(dir)
	if err != nil {
		return nil, OpenReport{}, err
	}
	if err := checkManifest(m, &opt); err != nil {
		return nil, OpenReport{}, fmt.Errorf("lsh: stale index in %s: %w", dir, err)
	}
	ix, err := NewIndex(opt.Params, opt.Seed)
	if err != nil {
		return nil, OpenReport{}, err
	}
	f, err := persist.Open(filepath.Join(dir, m.ShardFiles[0]), opt.Mmap)
	if err != nil {
		return nil, OpenReport{}, fmt.Errorf("lsh: index in %s: %w", dir, err)
	}
	if err := ix.load(f, opt.NumItems, m.ShardInserted[0]); err != nil {
		f.Close()
		return nil, OpenReport{}, fmt.Errorf("lsh: index in %s: %w", dir, err)
	}
	ix.file = f
	return ix, OpenReport{Duration: time.Since(start), MmapBytes: ix.MmapBytes()}, nil
}

// checkManifest verifies every invalidation rule: any configuration
// drift between the saved index and what the caller would build fresh
// is an error.
func checkManifest(m *persist.Manifest, opt *OpenOptions) error {
	switch {
	case m.Shards != 1:
		return fmt.Errorf("saved as %d item shards, which this build no longer reads; rebuild the index", m.Shards)
	case m.Reordered:
		return fmt.Errorf("saved in reordered item order, which this build no longer reads; rebuild the index")
	case m.Partitioner != "range":
		return fmt.Errorf("partitioner %q, want range", m.Partitioner)
	case m.Items != opt.NumItems:
		return fmt.Errorf("saved for %d items, dataset has %d", m.Items, opt.NumItems)
	case m.Bands != opt.Params.Bands || m.Rows != opt.Params.Rows:
		return fmt.Errorf("saved with bands=%d rows=%d, run wants bands=%d rows=%d",
			m.Bands, m.Rows, opt.Params.Bands, opt.Params.Rows)
	case m.Seed != persist.Hex64(opt.Seed):
		return fmt.Errorf("saved under a different signing seed")
	case m.Fingerprint != persist.Hex64(opt.Fingerprint):
		return fmt.Errorf("saved from a different dataset (fingerprint %s, dataset %s)",
			m.Fingerprint, persist.Hex64(opt.Fingerprint))
	}
	return nil
}

// load validates f's arrays and installs them, aliasing the file's
// backing memory (the mapping or the heap copy), as the frozen layout.
// numItems is the caller's item count and wantInserted the manifest's
// inserted-item count.
func (ix *Index) load(f *persist.File, numItems, wantInserted int) error {
	fz := &frozenIndex{}
	var err error
	if fz.offsets, err = persist.View[int32](f, secOffsets); err != nil {
		return err
	}
	if fz.items, err = persist.View[int32](f, secItems); err != nil {
		return err
	}
	if fz.slots, err = persist.View[int32](f, secSlots); err != nil {
		return err
	}
	inserted, err := persist.View[bool](f, secInserted)
	if err != nil {
		return err
	}
	if err := validateFrozen(fz, inserted, ix.params.Bands, numItems); err != nil {
		return err
	}
	numInserted := 0
	for _, ok := range inserted {
		if ok {
			numInserted++
		}
	}
	if numInserted != wantInserted {
		return fmt.Errorf("%d inserted items, manifest says %d", numInserted, wantInserted)
	}
	ix.frozen = fz
	ix.inserted = inserted
	ix.numInserted = numInserted
	return nil
}

// validateFrozen structurally validates loaded frozen arrays. The
// checksums already reject storage corruption; these checks reject
// files whose contents are internally inconsistent (a crafted or
// mismatched file), so no later query can index out of bounds —
// corruption is an error here, never a panic downstream.
func validateFrozen(fz *frozenIndex, inserted []bool, bands, wantItems int) error {
	if len(inserted) != wantItems {
		return fmt.Errorf("%d inserted flags for %d items", len(inserted), wantItems)
	}
	if len(fz.offsets) < 1 || fz.offsets[0] != 0 {
		return fmt.Errorf("offsets must start at 0")
	}
	numBuckets := len(fz.offsets) - 1
	for i := 0; i < numBuckets; i++ {
		if fz.offsets[i] > fz.offsets[i+1] {
			return fmt.Errorf("offsets not monotone at bucket %d", i)
		}
	}
	if int(fz.offsets[numBuckets]) != len(fz.items) {
		return fmt.Errorf("offsets cover %d items, section holds %d", fz.offsets[numBuckets], len(fz.items))
	}
	for i, it := range fz.items {
		if uint(it) >= uint(wantItems) {
			return fmt.Errorf("bucket entry %d holds item %d of %d", i, it, wantItems)
		}
	}
	if len(fz.slots) != wantItems*bands {
		return fmt.Errorf("%d slots for %d items × %d bands", len(fz.slots), wantItems, bands)
	}
	for item, ok := range inserted {
		for b, s := range fz.slots[item*bands : (item+1)*bands] {
			if s < -1 || int(s) >= numBuckets || ok != (s >= 0) {
				return fmt.Errorf("item %d band %d: slot %d out of range", item, b, s)
			}
		}
	}
	return nil
}

// MmapBytes returns the bytes of the read-only file mapping backing
// this index (0 for built or heap-loaded indexes).
//
//lshvet:noescape
func (ix *Index) MmapBytes() int64 {
	if ix.file == nil || !ix.file.Mapped() {
		return 0
	}
	return ix.file.Size()
}

// ClosePersist releases the file mapping (or heap copy) of an index
// loaded with Open. The index is unusable afterwards; the caller must
// guarantee no queries are in flight. No-op for built indexes.
func (ix *Index) ClosePersist() error {
	f := ix.file
	ix.file = nil
	if f == nil {
		return nil
	}
	return f.Close()
}

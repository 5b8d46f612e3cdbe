package lsh

import (
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"sync"
	"time"
	"unsafe"

	"lshcluster/internal/lsh/persist"
	"lshcluster/internal/minhash"
)

// Shard-file section IDs (internal/lsh/persist format). Each section
// is the raw memory of one frozen-index slice, so a memory-mapped
// section is usable as the slice field directly. ID 9 is retired: it
// held the foreign-slot span arrays, which files saved before their
// removal still carry; the loader never reads it and no new file
// writes it.
const (
	secOffsets      persist.SectionID = 1
	secItems        persist.SectionID = 2
	secSlots        persist.SectionID = 3
	secKeys         persist.SectionID = 4
	secBandStart    persist.SectionID = 5
	secTableSizes   persist.SectionID = 6
	secTableEntries persist.SectionID = 7
	secInserted     persist.SectionID = 8
	secForeignEmpty persist.SectionID = 10
	secPerm         persist.SectionID = 11
	secInv          persist.SectionID = 12
)

// The on-disk key-table section stores []keyEntry verbatim; pin the
// 16-byte layout the format documents (8-byte key, 4-byte slot, 4
// bytes padding — zeroed by make, so the bytes are deterministic).
var _ [16 - unsafe.Sizeof(keyEntry{})]byte
var _ [unsafe.Sizeof(keyEntry{}) - 16]byte

func shardFileName(s int) string { return fmt.Sprintf("shard-%d.lshz", s) }

// bytesOf reinterprets a slice as its raw backing bytes (zero-copy).
func bytesOf[T any](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	var t T
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(t)))
}

func hashInt32s(vs []int32) uint64 {
	h := fnv.New64a()
	h.Write(bytesOf(vs))
	return h.Sum64()
}

// IndexSaved reports whether dir holds a complete saved index (the
// manifest is written last, so its presence implies every shard file
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

// Save persists every frozen shard to <dir>/shard-<i>.lshz plus a
// manifest, creating dir as needed. seed must be the signing seed the
// index was built with and fingerprint the dataset fingerprint; both
// go into the manifest so OpenSharded can reject a stale index. Shard
// files are written in parallel (workers goroutines), each atomically
// (temp + rename), and the manifest last — a crashed save leaves no
// loadable directory. Only frozen, range-partitioned indexes can be
// saved.
func (sh *Sharded) Save(dir string, seed, fingerprint uint64, workers int) (SaveReport, error) {
	start := time.Now()
	if !sh.Frozen() {
		return SaveReport{}, fmt.Errorf("lsh: Save before the index is frozen")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return SaveReport{}, fmt.Errorf("lsh: Save: %w", err)
	}
	S := len(sh.shards)
	if workers < 1 {
		workers = 1
	}
	if workers > S {
		workers = S
	}
	errs := make([]error, S)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := g; s < S; s += workers {
				errs[s] = sh.saveShard(dir, s)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return SaveReport{}, err
		}
	}
	m := &persist.Manifest{
		FormatVersion: persist.FormatVersion,
		Shards:        S,
		Items:         sh.part.n,
		Bands:         sh.params.Bands,
		Rows:          sh.params.Rows,
		Seed:          persist.Hex64(seed),
		Partitioner:   "range",
		Reordered:     sh.perm != nil,
		PermHash:      persist.Hex64(0),
		Fingerprint:   persist.Hex64(fingerprint),
		ShardFiles:    make([]string, S),
		ShardInserted: make([]int, S),
	}
	if sh.perm != nil {
		m.PermHash = persist.Hex64(hashInt32s(sh.perm))
	}
	var bytes int64
	for s := 0; s < S; s++ {
		m.ShardFiles[s] = shardFileName(s)
		m.ShardInserted[s] = sh.shards[s].numInserted
		if st, err := os.Stat(filepath.Join(dir, shardFileName(s))); err == nil {
			bytes += st.Size()
		}
	}
	if err := persist.WriteManifest(dir, m); err != nil {
		return SaveReport{}, fmt.Errorf("lsh: Save: %w", err)
	}
	return SaveReport{Duration: time.Since(start), Bytes: bytes}, nil
}

// saveShard writes shard s's file.
func (sh *Sharded) saveShard(dir string, s int) error {
	if err := persist.WriteFile(filepath.Join(dir, shardFileName(s)), sh.shardSections(s)); err != nil {
		return fmt.Errorf("lsh: saving shard %d: %w", s, err)
	}
	return nil
}

// shardSections assembles shard s's file sections: the frozen arrays,
// the foreign-emptiness bitmap when the index has one (every S>1
// range index does), and, in shard 0, the reorder permutation.
func (sh *Sharded) shardSections(s int) []persist.Section {
	ix := sh.shards[s]
	fz := ix.frozen
	bands := sh.params.Bands
	sizes := make([]int64, bands)
	total := 0
	for b := range fz.tables {
		sizes[b] = int64(len(fz.tables[b].entries))
		total += len(fz.tables[b].entries)
	}
	entries := make([]keyEntry, 0, total)
	for b := range fz.tables {
		entries = append(entries, fz.tables[b].entries...)
	}
	sections := []persist.Section{
		{ID: secOffsets, ElemSize: 4, Data: bytesOf(fz.offsets)},
		{ID: secItems, ElemSize: 4, Data: bytesOf(fz.items)},
		{ID: secSlots, ElemSize: 4, Data: bytesOf(fz.slots)},
		{ID: secKeys, ElemSize: 8, Data: bytesOf(fz.keys)},
		{ID: secBandStart, ElemSize: 4, Data: bytesOf(fz.bandStart)},
		{ID: secTableSizes, ElemSize: 8, Data: bytesOf(sizes)},
		{ID: secTableEntries, ElemSize: 16, Data: bytesOf(entries)},
		{ID: secInserted, ElemSize: 1, Data: bytesOf(ix.inserted)},
	}
	if sh.foreignEmpty != nil {
		sections = append(sections, persist.Section{ID: secForeignEmpty, ElemSize: 8, Data: bytesOf(sh.foreignEmpty[s])})
	}
	if s == 0 && sh.perm != nil {
		sections = append(sections,
			persist.Section{ID: secPerm, ElemSize: 4, Data: bytesOf(sh.perm)},
			persist.Section{ID: secInv, ElemSize: 4, Data: bytesOf(sh.inv)},
		)
	}
	return sections
}

// OpenOptions configures OpenSharded. Params, Seed, NumItems, Shards,
// Reorder and Fingerprint state what the caller would build fresh;
// each is checked against the manifest so a stale index is rejected,
// never silently reused.
type OpenOptions struct {
	Params   Params
	Seed     uint64
	NumItems int
	// Shards is the requested shard count (clamped exactly as
	// NewSharded clamps it).
	Shards int
	// Reorder states whether the caller's fresh build would apply the
	// locality reordering; the saved index must match, or the loaded
	// arrays would not be byte-identical to the oracle build.
	Reorder bool
	// Fingerprint is the dataset fingerprint the index must have been
	// built from.
	Fingerprint uint64
	// Mmap selects the zero-copy mapped load; false is the heap-copy
	// oracle (Load).
	Mmap bool
	// Workers bounds the parallel shard-file loads.
	Workers int
}

// OpenReport summarises an OpenSharded: wall time and, for mapped
// loads, the total mapped bytes.
type OpenReport struct {
	Duration  time.Duration
	MmapBytes int64
}

// OpenSharded loads a saved index from dir, verifying the manifest
// against opt and every shard file's checksums, and reconstructs the
// Sharded exactly as a fresh build would have left it: same partition,
// same shared signing scheme, and frozen arrays — the foreign-emptiness
// bitmap included — byte-identical to BuildFrozen's (the persistence
// equivalence tests pin this). A multi-shard index whose files lack a
// correctly sized bitmap is rejected as stale. With opt.Mmap the
// frozen slices alias read-only mappings (zero-copy); otherwise they
// live on the heap. Shard files load in parallel.
func OpenSharded(dir string, opt OpenOptions) (*Sharded, OpenReport, error) {
	start := time.Now()
	m, err := persist.ReadManifest(dir)
	if err != nil {
		return nil, OpenReport{}, err
	}
	if err := checkManifest(m, &opt); err != nil {
		return nil, OpenReport{}, fmt.Errorf("lsh: stale index in %s: %w", dir, err)
	}
	p := opt.Params
	n := opt.NumItems
	S := m.Shards
	cuts := ShardCuts(n, S)
	sh := &Sharded{
		params: p,
		part:   partition{n: n, s: S, cuts: cuts},
		shards: make([]*Index, S),
	}
	if S == 1 {
		ix, err := NewIndex(p, opt.Seed, n)
		if err != nil {
			return nil, OpenReport{}, err
		}
		sh.shards[0] = ix
		sh.single = ix
	} else {
		scheme := minhash.NewScheme(p.SignatureLen(), opt.Seed)
		for s := 0; s < S; s++ {
			sh.shards[s] = newShardIndex(p, scheme, int(cuts[s+1]-cuts[s]), cuts[s])
		}
	}

	workers := opt.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > S {
		workers = S
	}
	files := make([]*persist.File, S)
	loadTimes := make([]time.Duration, S)
	errs := make([]error, S)
	if S > 1 {
		sh.foreignEmpty = make([][]uint64, S)
	}
	closeAll := func() {
		for _, f := range files {
			if f != nil {
				f.Close()
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := g; s < S; s += workers {
				t0 := time.Now()
				errs[s] = sh.loadShard(dir, m, s, &opt, files)
				loadTimes[s] = time.Since(t0)
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			closeAll()
			return nil, OpenReport{}, err
		}
	}
	if m.Reordered {
		if err := loadReorder(sh, files[0], m); err != nil {
			closeAll()
			return nil, OpenReport{}, err
		}
	}
	sh.buildTimes = loadTimes
	sh.persistFiles = files
	var rep OpenReport
	for _, f := range files {
		if f.Mapped() {
			rep.MmapBytes += f.Size()
		}
	}
	sh.persistBytes = rep.MmapBytes
	rep.Duration = time.Since(start)
	return sh, rep, nil
}

// checkManifest verifies every invalidation rule: any configuration
// drift between the saved index and what the caller would build fresh
// is an error.
func checkManifest(m *persist.Manifest, opt *OpenOptions) error {
	shards := opt.Shards
	if shards > opt.NumItems {
		shards = opt.NumItems
	}
	if shards < 1 {
		shards = 1
	}
	switch {
	case m.Partitioner != "range":
		return fmt.Errorf("partitioner %q, want range", m.Partitioner)
	case m.Items != opt.NumItems:
		return fmt.Errorf("saved for %d items, dataset has %d", m.Items, opt.NumItems)
	case m.Shards != shards:
		return fmt.Errorf("saved with %d shards, run wants %d", m.Shards, shards)
	case m.Bands != opt.Params.Bands || m.Rows != opt.Params.Rows:
		return fmt.Errorf("saved with bands=%d rows=%d, run wants bands=%d rows=%d",
			m.Bands, m.Rows, opt.Params.Bands, opt.Params.Rows)
	case m.Seed != persist.Hex64(opt.Seed):
		return fmt.Errorf("saved under a different signing seed")
	case m.Fingerprint != persist.Hex64(opt.Fingerprint):
		return fmt.Errorf("saved from a different dataset (fingerprint %s, dataset %s)",
			m.Fingerprint, persist.Hex64(opt.Fingerprint))
	case m.Reordered != opt.Reorder:
		return fmt.Errorf("saved with reorder=%v, run wants reorder=%v", m.Reordered, opt.Reorder)
	}
	return nil
}

// loadShard opens shard s's file, validates its structure and installs
// the frozen arrays (aliasing the file's backing memory — the mapping
// or the heap copy) into the shard Index, plus the shard's
// foreign-emptiness bitmap when the index has more than one shard.
func (sh *Sharded) loadShard(dir string, m *persist.Manifest, s int, opt *OpenOptions, files []*persist.File) error {
	f, err := persist.Open(filepath.Join(dir, m.ShardFiles[s]), opt.Mmap)
	if err != nil {
		return err
	}
	files[s] = f
	bands := sh.params.Bands
	fz := &frozenIndex{}
	if fz.offsets, err = persist.View[int32](f, secOffsets); err != nil {
		return err
	}
	if fz.items, err = persist.View[int32](f, secItems); err != nil {
		return err
	}
	if fz.slots, err = persist.View[int32](f, secSlots); err != nil {
		return err
	}
	if fz.keys, err = persist.View[uint64](f, secKeys); err != nil {
		return err
	}
	if fz.bandStart, err = persist.View[int32](f, secBandStart); err != nil {
		return err
	}
	sizes, err := persist.View[int64](f, secTableSizes)
	if err != nil {
		return err
	}
	entries, err := persist.View[keyEntry](f, secTableEntries)
	if err != nil {
		return err
	}
	inserted, err := persist.View[bool](f, secInserted)
	if err != nil {
		return err
	}
	wantItems := int(sh.part.cuts[s+1] - sh.part.cuts[s])
	if err := validateShardArrays(fz, sizes, entries, inserted, bands, wantItems); err != nil {
		return fmt.Errorf("lsh: shard %d in %s: %w", s, dir, err)
	}
	fz.tables = make([]keyTable, bands)
	off := 0
	for b := 0; b < bands; b++ {
		size := int(sizes[b])
		fz.tables[b] = keyTable{entries: entries[off : off+size : off+size], mask: uint64(size - 1)}
		off += size
	}
	numInserted := 0
	for _, ok := range inserted {
		if ok {
			numInserted++
		}
	}
	if numInserted != m.ShardInserted[s] {
		return fmt.Errorf("lsh: shard %d in %s: %d inserted items, manifest says %d", s, dir, numInserted, m.ShardInserted[s])
	}
	ix := sh.shards[s]
	ix.frozen = fz
	ix.inserted = inserted
	ix.numInserted = numInserted
	f.AdviseRandom(secTableEntries)
	if sh.foreignEmpty == nil {
		return nil
	}
	if !f.Has(secForeignEmpty) {
		return fmt.Errorf("lsh: stale index in %s: shard %d has no foreign-emptiness bitmap; rebuild the index", dir, s)
	}
	words, err := persist.View[uint64](f, secForeignEmpty)
	if err != nil {
		return err
	}
	if numSlots := len(fz.offsets) - 1; len(words) != (numSlots+63)/64 {
		return fmt.Errorf("lsh: shard %d in %s: foreign-emptiness bitmap has %d words for %d buckets", s, dir, len(words), numSlots)
	}
	sh.foreignEmpty[s] = words
	return nil
}

// validateShardArrays structurally validates one shard's loaded
// arrays. The checksums already reject storage corruption; these
// checks reject files whose contents are internally inconsistent (a
// crafted or mismatched file), so no later query can index out of
// bounds — corruption is an error here, never a panic downstream.
func validateShardArrays(fz *frozenIndex, sizes []int64, entries []keyEntry, inserted []bool, bands, wantItems int) error {
	if len(inserted) != wantItems {
		return fmt.Errorf("%d inserted flags for %d partition items", len(inserted), wantItems)
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
	if len(fz.keys) != numBuckets {
		return fmt.Errorf("%d bucket keys for %d buckets", len(fz.keys), numBuckets)
	}
	if len(fz.bandStart) != bands+1 || fz.bandStart[0] != 0 || int(fz.bandStart[bands]) != numBuckets {
		return fmt.Errorf("bandStart does not cover %d buckets over %d bands", numBuckets, bands)
	}
	for b := 0; b < bands; b++ {
		if fz.bandStart[b] > fz.bandStart[b+1] {
			return fmt.Errorf("bandStart not monotone at band %d", b)
		}
	}
	if len(fz.slots) != wantItems*bands {
		return fmt.Errorf("%d slots for %d items × %d bands", len(fz.slots), wantItems, bands)
	}
	for i, s := range fz.slots {
		if s < -1 || int(s) >= numBuckets {
			return fmt.Errorf("slot %d out of range at index %d", s, i)
		}
	}
	if len(sizes) != bands {
		return fmt.Errorf("%d key-table sizes for %d bands", len(sizes), bands)
	}
	total := 0
	for b, size := range sizes {
		if size < 2 || size&(size-1) != 0 {
			return fmt.Errorf("band %d key-table size %d not a power of two", b, size)
		}
		total += int(size)
	}
	if total != len(entries) {
		return fmt.Errorf("key tables claim %d entries, section holds %d", total, len(entries))
	}
	for i := range entries {
		if s := entries[i].slot; s < -1 || int(s) >= numBuckets {
			return fmt.Errorf("key-table entry %d references bucket %d of %d", i, s, numBuckets)
		}
	}
	return nil
}

// loadReorder restores the locality permutation from shard 0's file,
// verifying the bijection and the manifest's permutation hash.
func loadReorder(sh *Sharded, f0 *persist.File, m *persist.Manifest) error {
	perm, err := persist.View[int32](f0, secPerm)
	if err != nil {
		return err
	}
	inv, err := persist.View[int32](f0, secInv)
	if err != nil {
		return err
	}
	n := sh.part.n
	if len(perm) != n || len(inv) != n {
		return fmt.Errorf("lsh: reorder permutation covers %d items, index has %d", len(perm), n)
	}
	for i, p := range perm {
		if p < 0 || int(p) >= n || int(inv[p]) != i {
			return fmt.Errorf("lsh: reorder permutation is not a bijection at item %d", i)
		}
	}
	if got := persist.Hex64(hashInt32s(perm)); got != m.PermHash {
		return fmt.Errorf("lsh: reorder permutation hash %s does not match manifest %s", got, m.PermHash)
	}
	sh.perm, sh.inv = perm, inv
	return nil
}

// MmapBytes returns the total bytes of read-only file mappings backing
// this index (0 for fresh or heap-loaded indexes).
//
//lshvet:noescape
func (sh *Sharded) MmapBytes() int64 { return sh.persistBytes }

// ClosePersist releases the shard-file mappings (or heap copies) of an
// index loaded with OpenSharded. The index is unusable afterwards; the
// caller must guarantee no queries are in flight. No-op for fresh
// indexes.
func (sh *Sharded) ClosePersist() error {
	files := sh.persistFiles
	sh.persistFiles = nil
	var first error
	for _, f := range files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

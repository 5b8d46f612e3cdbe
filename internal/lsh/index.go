package lsh

import (
	"fmt"
	"math"
	"slices"
	"time"

	"lshcluster/internal/hashfamily"
	"lshcluster/internal/lsh/persist"
	"lshcluster/internal/minhash"
)

// Index is the MinHash banding index of paper Algorithm 2. Items are
// inserted once (the single pass over the dataset after centroid
// initialisation); each band of an item's signature is hashed to a bucket
// key, and the item ID is appended to that band's bucket.
//
// Band keys for every inserted item are also retained, so the recurring
// per-iteration query "which items collide with item i" is a pure lookup
// that never re-hashes the item. Buckets store item IDs, and the
// caller's assignment slice maps them to clusters at query time, so
// "updating the cluster reference" after a move (§III-B) starts with a
// single slice store. The frozen index also keeps the paper's cluster
// reference itself for every bucket of at least SummaryMinLen items:
// the members' distinct clusters, which a block query reads in place of
// the members (summary.go). Those summaries are refreshed when the
// caller reports a move (Resummarize).
//
// The index has two construction lifecycles. The batch build
// (BuildFrozen) constructs the frozen layout — flat CSR arrays for
// cache-friendly, allocation-free candidate lookups during iteration —
// straight from presigned band keys. The *build* phase accepts one
// insert at a time into a pointer-free banding table (runTable): the
// streaming clusterer keeps inserting into it and querying it
// (QueryInsert), and the serial bootstrap oracle inserts every item and
// then freezes (Freeze) before its first query. Freeze builds from the
// stored per-item keys with BuildFrozen's own passes, so every frozen
// layout comes from one constructor.
//
// An Index is not safe for concurrent mutation, and Insert signs into
// internal scratch (sigBuf); parallel constructions sign with
// per-worker scratch (SignAll) instead. Concurrent queries via
// Candidates/CandidatesBatch are safe once all insertions (or Freeze /
// BuildFrozen / Open) are done.
type Index struct {
	params Params
	scheme *minhash.Scheme
	// capHint is the NewIndex numItems capacity hint, consumed when the
	// build-phase storage is materialised.
	capHint int
	// runs[band] is one band's build-phase table: it maps a band key to
	// the run of arena holding its bucket. Separate tables per band
	// implement the paper's requirement that "there will be b sets of
	// buckets to map to, one set for each band so no overlapping between
	// bands can occur"; keys are additionally salted with the band
	// number. Allocated lazily on the first insert (ensureBuild) so the
	// direct-to-frozen batch build pays nothing for it; nil once frozen.
	runs []runTable
	// arena holds every build-phase bucket as a run of ascending IDs. A
	// run's room is its length rounded up to a power of two; a full run
	// moves to the arena's end with twice the room (addToRun), leaving
	// its old room unused. Nil once frozen.
	arena []int32
	// maxRun is the longest run's length, which bounds how far one
	// insert can extend the arena (QueryInsert keeps run offsets inside
	// int32).
	maxRun int32
	// keys[item·bands+band] is the stored band key of an inserted item:
	// what unfrozen per-item queries look up and what Freeze builds
	// from. Nil once frozen (the frozen layout resolves items to bucket
	// slots directly).
	keys        []uint64
	inserted    []bool
	numInserted int
	frozen      *frozenIndex
	// buildTime is the wall time the frozen layout took to build (zero
	// for a loaded index).
	buildTime time.Duration
	// file backs the frozen arrays of an index loaded by Open (the
	// mapping or the heap copy); nil for a built index.
	file   *persist.File
	sigBuf []uint64
	// sums is the cluster-summary store of the long frozen buckets
	// (summary.go): nil until SummarizeClusters, and never persisted.
	sums *clusterSummaries
}

// NewIndex creates an index for the given banding parameters, seeded
// deterministically; numItems is the capacity hint for stored band keys
// (items with larger IDs may still be inserted).
func NewIndex(p Params, seed uint64, numItems int) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if numItems < 0 {
		numItems = 0
	}
	return &Index{
		params:  p,
		scheme:  minhash.NewScheme(p.SignatureLen(), seed),
		capHint: numItems,
		sigBuf:  make([]uint64, p.SignatureLen()),
	}, nil
}

// isInserted reports whether item has been inserted.
func (ix *Index) isInserted(item int32) bool {
	return uint(item) < uint(len(ix.inserted)) && ix.inserted[item]
}

// ensureBuild materialises the build-phase storage on first use.
// Deferred out of NewIndex so BuildFrozen — which resolves buckets
// straight into the frozen layout — never allocates the tables, the
// arena or the per-item key store it would immediately discard.
func (ix *Index) ensureBuild() {
	if ix.runs != nil {
		return
	}
	// Distinct keys per band range from ~1 (degenerate all-identical
	// data) to numItems (all singletons); numItems/Bands is a
	// middle-ground hint that removes most doublings without reserving
	// Bands× the worst case.
	bands := ix.params.Bands
	ix.runs = make([]runTable, bands)
	for b := range ix.runs {
		ix.runs[b] = newRunTable(ix.capHint / bands)
	}
	// Each item takes one arena entry per band, so the hint's items
	// need at least capHint·Bands.
	ix.arena = make([]int32, 0, ix.capHint*bands)
	ix.keys = make([]uint64, ix.capHint*bands)
	ix.inserted = make([]bool, ix.capHint)
}

// Params returns the banding configuration.
func (ix *Index) Params() Params { return ix.params }

// Scheme exposes the underlying MinHash scheme (e.g. for similarity
// estimation diagnostics).
func (ix *Index) Scheme() *minhash.Scheme { return ix.scheme }

// NumInserted returns how many items have been inserted. O(1): the
// count is maintained on insert rather than scanned.
func (ix *Index) NumInserted() int { return ix.numInserted }

// bandKeyOf hashes rows [band·r, (band+1)·r) of sig into a salted
// 64-bit bucket key. A free function so parallel signing workers can
// compute keys without touching an Index.
func bandKeyOf(p Params, sig []uint64, band int) uint64 {
	r := p.Rows
	key := uint64(band)*0x9e3779b97f4a7c15 + 0x85ebca6b9d1c5e27
	for _, v := range sig[band*r : (band+1)*r] {
		key = hashfamily.Mix64(key ^ v)
	}
	return key
}

// bandKey hashes rows [band·r, (band+1)·r) of sig into a salted 64-bit
// bucket key.
func (ix *Index) bandKey(sig []uint64, band int) uint64 {
	return bandKeyOf(ix.params, sig, band)
}

// Insert MinHashes the given present-value set and files item under every
// band bucket (Algorithm 2 lines 5–9 applied at index-construction time).
// Inserting the same item twice is an error.
//
// Insert signs into internal scratch: it must not be called
// concurrently with itself. Parallel batch construction signs with
// per-worker scratch via SignAll + BuildFrozen instead.
func (ix *Index) Insert(item int32, presentValues []uint64) error {
	return ix.InsertSignature(item, ix.scheme.Sign(presentValues, ix.sigBuf))
}

// InsertSignature files item under the band buckets of a precomputed
// signature of length SignatureLen. It allows other LSH families — e.g.
// the random-hyperplane (SimHash) signatures of the numeric extension —
// to reuse the banding index.
func (ix *Index) InsertSignature(item int32, sig []uint64) error {
	return ix.QueryInsert(item, sig, nil)
}

// QueryInsert files item under the band buckets of a precomputed
// signature and, in the same probe of each band, hands fn (when
// non-nil) that band's bucket as it stood before item joined it, band
// by band in ascending band order, buckets in ascending ID order.
// Empty buckets are not reported. The bucket slice aliases index
// storage and is valid only during the call; fn must not modify it or
// touch the index.
//
// The streaming clusterer queries and files every arriving item this
// way, probing each band once. The arguments are validated before any
// band is touched, so an error leaves the index unchanged.
func (ix *Index) QueryInsert(item int32, sig []uint64, fn func(bucket []int32)) error {
	if item < 0 {
		return fmt.Errorf("lsh: negative item ID %d", item)
	}
	if len(sig) != ix.params.SignatureLen() {
		return fmt.Errorf("lsh: signature length %d, want %d", len(sig), ix.params.SignatureLen())
	}
	if ix.frozen != nil {
		return fmt.Errorf("lsh: index is frozen")
	}
	if ix.isInserted(item) {
		return fmt.Errorf("lsh: item %d already inserted", item)
	}
	// Each band may move a full run to the arena's end with twice its
	// room, or start a run of one.
	if bands := int64(ix.params.Bands); int64(len(ix.arena))+bands*(2*int64(ix.maxRun)+1) > math.MaxInt32 {
		return fmt.Errorf("lsh: build-phase arena holds %d entries, too many to file item %d within int32 offsets",
			len(ix.arena), item)
	}
	ix.ensureBuild()
	ix.grow(int(item) + 1)
	keys := ix.keys[int(item)*ix.params.Bands:][:ix.params.Bands]
	for b := range keys {
		key := ix.bandKey(sig, b)
		keys[b] = key
		t := &ix.runs[b]
		e := t.find(key)
		if e.n == 0 {
			e = t.claim(e, key)
		} else if fn != nil {
			fn(ix.arena[e.off : e.off+e.n])
		}
		ix.addToRun(e, item)
	}
	ix.inserted[item] = true
	ix.numInserted++
	return nil
}

// addToRun files id into e's run. Runs are kept in ascending ID order —
// an index invariant that makes candidate enumeration a function of the
// bucket's *membership*, independent of insertion order, and so
// identical to the frozen layout's. Ascending insert sequences (the
// serial bootstrap oracle, streaming) append; only an out-of-order
// insert pays insertion-sort shifts.
//
// A run of n items has room for n rounded up to a power of two. When n
// is a power of two the run is full: it moves to the arena's end with
// room for 2n, so a bucket of n items is copied fewer than 2n times in
// all. A new run (n = 0) starts at the arena's end with room for one.
func (ix *Index) addToRun(e *runEntry, id int32) {
	n := e.n
	if n&(n-1) == 0 {
		end, room := len(ix.arena), max(2*int(n), 1)
		ix.arena = slices.Grow(ix.arena, room)[:end+room]
		copy(ix.arena[end:], ix.arena[e.off:e.off+n])
		e.off = int32(end)
	}
	run := ix.arena[e.off : e.off+n+1]
	run[n] = id
	for i := n; i > 0 && run[i-1] > run[i]; i-- {
		run[i-1], run[i] = run[i], run[i-1]
	}
	e.n = n + 1
	ix.maxRun = max(ix.maxRun, e.n)
}

// grow extends the per-item storage to hold at least n items, doubling
// capacity so a stream of ascending inserts stays amortised O(1). The
// extra tail entries are simply "not inserted".
func (ix *Index) grow(n int) {
	if n <= len(ix.inserted) {
		return
	}
	newLen := 2 * len(ix.inserted)
	if newLen < n {
		newLen = n
	}
	inserted := make([]bool, newLen)
	copy(inserted, ix.inserted)
	ix.inserted = inserted
	keys := make([]uint64, newLen*ix.params.Bands)
	copy(keys, ix.keys)
	ix.keys = keys
}

// runEntry is one cell of a band's build-phase table: a band key and
// its bucket's run, arena[off : off+n]. n == 0 marks an empty cell: a
// filed bucket holds at least one item.
type runEntry struct {
	key uint64
	off int32
	n   int32
}

// runTable is one band's build-phase table: linear probing over
// runEntry cells, kept at most three quarters full by doubling. Band
// keys are already avalanche-mixed 64-bit hashes, so the raw key masks
// straight into the table, and a probe steps through 16-byte cells,
// four to a cache line. It holds no pointers, so the collector never
// scans it. Most stream buckets are singletons (99% of 2.8M on the
// stream-ingest benchmark), so the table, not the arena, is most of
// the build phase's memory; at half full it took 80 MB more there.
type runTable struct {
	cells []runEntry
	mask  uint64
	used  int
}

// minRunTable is the smallest table size, in cells.
const minRunTable = 16

// newRunTable sizes a table for keys distinct keys.
func newRunTable(keys int) runTable {
	size := minRunTable
	for 3*size < 4*keys {
		size *= 2
	}
	return runTable{cells: make([]runEntry, size), mask: uint64(size - 1)}
}

// find returns the cell filed under key, or the empty cell where a
// probe for key ends.
func (t *runTable) find(key uint64) *runEntry {
	i := key & t.mask
	for {
		e := &t.cells[i]
		if e.n == 0 || e.key == key {
			return e
		}
		i = (i + 1) & t.mask
	}
}

// claim files key in empty, the cell find(key) returned, and returns
// the claimed cell. When one more key would fill the table past three
// quarters, the table doubles first and key goes where a probe of the
// new table ends. The caller sets the run.
func (t *runTable) claim(empty *runEntry, key uint64) *runEntry {
	if 4*(t.used+1) > 3*len(t.cells) {
		old := t.cells
		t.cells = make([]runEntry, 2*len(old))
		t.mask = uint64(len(t.cells) - 1)
		for _, e := range old {
			if e.n > 0 {
				*t.find(e.key) = e
			}
		}
		empty = t.find(key)
	}
	t.used++
	empty.key = key
	return empty
}

// buildBucket returns band b's build-phase bucket filed under key
// (empty when absent). The slice aliases the arena.
func (ix *Index) buildBucket(b int, key uint64) []int32 {
	e := ix.runs[b].find(key)
	return ix.arena[e.off : e.off+e.n]
}

// Candidates invokes fn for every item sharing at least one band bucket
// with the previously inserted item. The item itself is reported (it
// trivially collides with itself in every band), and an item sharing
// several bands is reported once per shared band — callers dedupe, which
// the shortlist construction does anyway while mapping items to clusters.
func (ix *Index) Candidates(item int32, fn func(other int32)) {
	if !ix.isInserted(item) {
		return
	}
	base := int(item) * ix.params.Bands
	if fz := ix.frozen; fz != nil {
		// Frozen fast path: the item's bucket slots were resolved at
		// Freeze time, so each band is two array reads plus a
		// contiguous scan — no hashing, no table probes, no allocation.
		for b := 0; b < ix.params.Bands; b++ {
			slot := fz.slots[base+b]
			for _, other := range fz.items[fz.offsets[slot]:fz.offsets[slot+1]] {
				fn(other)
			}
		}
		return
	}
	for b := 0; b < ix.params.Bands; b++ {
		for _, other := range ix.buildBucket(b, ix.keys[base+b]) {
			fn(other)
		}
	}
}

// CandidatesBatch invokes fn once per (item, band) with the whole band
// bucket of the corresponding block item, skipping items that were
// never inserted. Enumeration is band-major across the block — every
// item's band-0 bucket, then every item's band-1 bucket, and so on — so
// each step of the sweep stays inside one band's contiguous region of
// the frozen CSR layout, amortising cache and TLB misses that a
// per-item band sweep pays once per item. For any single pos the
// buckets still arrive in ascending band order with their build-phase
// item order intact, so a per-pos consumer observes exactly the
// sequence Candidates(items[pos]) would deliver; handing whole bucket
// slices to fn additionally removes Candidates' per-colliding-item
// closure dispatch. sum is the bucket's cluster-summary handle
// (Summary), -1 when it keeps none. The bucket slices alias index
// storage and must not be modified; a frozen index's stay valid for
// its lifetime, a build-phase index's until the next insert.
func (ix *Index) CandidatesBatch(items []int32, fn func(pos int, bucket []int32, sum int32)) {
	bands := ix.params.Bands
	if fz := ix.frozen; fz != nil {
		for b := 0; b < bands; b++ {
			for pos, item := range items {
				if !ix.isInserted(item) {
					continue
				}
				slot := fz.slots[int(item)*bands+b]
				bucket := fz.items[fz.offsets[slot]:fz.offsets[slot+1]]
				fn(pos, bucket, ix.summaryOf(slot, len(bucket)))
			}
		}
		return
	}
	for b := 0; b < bands; b++ {
		for pos, item := range items {
			if ix.isInserted(item) {
				fn(pos, ix.buildBucket(b, ix.keys[int(item)*bands+b]), -1)
			}
		}
	}
}

// Stats summarises bucket occupancy for diagnostics.
type Stats struct {
	Bands          int
	Buckets        int     // non-empty buckets across all bands
	Items          int     // inserted items
	MaxBucketLen   int     // largest bucket
	MeanBucketLen  float64 // mean items per non-empty bucket
	SingletonShare float64 // fraction of buckets holding exactly one item
}

// Stats scans the index and returns occupancy statistics.
func (ix *Index) Stats() Stats {
	st := Stats{Bands: ix.params.Bands, Items: ix.NumInserted()}
	singles, total := 0, 0
	bucketLen := func(n int) {
		st.Buckets++
		total += n
		if n > st.MaxBucketLen {
			st.MaxBucketLen = n
		}
		if n == 1 {
			singles++
		}
	}
	if fz := ix.frozen; fz != nil {
		for s := 0; s+1 < len(fz.offsets); s++ {
			bucketLen(int(fz.offsets[s+1] - fz.offsets[s]))
		}
	} else {
		for _, t := range ix.runs {
			for _, e := range t.cells {
				if e.n > 0 {
					bucketLen(int(e.n))
				}
			}
		}
	}
	if st.Buckets > 0 {
		st.MeanBucketLen = float64(total) / float64(st.Buckets)
		st.SingletonShare = float64(singles) / float64(st.Buckets)
	}
	return st
}

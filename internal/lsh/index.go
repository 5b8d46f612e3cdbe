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
// filed once (the single pass over the dataset after centroid
// initialisation); each band of an item's signature is hashed to a bucket
// key, and the item ID is filed in that band's bucket.
//
// Buckets store item IDs, and the caller's assignment slice maps them
// to clusters at query time, so "updating the cluster reference" after
// a move (§III-B) starts with a single slice store. The frozen index
// also keeps the paper's cluster reference itself for every bucket of
// at least SummaryMinLen items: the members' distinct clusters, which a
// block query reads in place of the members (summary.go). Those
// summaries are refreshed when the caller reports a move (Resummarize).
//
// The index has two lifecycles. Batch clustering builds the frozen
// layout — flat CSR arrays for cache-friendly, allocation-free
// candidate lookups during iteration — in one pass from presigned band
// keys (BuildFrozen), or loads a saved one (Open); the recurring
// per-iteration query "which items collide with item i" (Candidates,
// CandidatesBatch) then resolves i's buckets without re-hashing it. The
// streaming clusterer instead files each arriving item into the *build*
// phase, a pointer-free banding table (runTable), and reads the item's
// buckets in the same probe (QueryInsert); it never freezes. Candidates
// and CandidatesBatch read only the frozen layout.
//
// An Index is not safe for concurrent mutation. Concurrent queries via
// Candidates/CandidatesBatch are safe once BuildFrozen or Open is done.
type Index struct {
	params Params
	scheme *minhash.Scheme
	// runs[band] is one band's build-phase table: it maps a band key to
	// the run of arena holding its bucket. Separate tables per band
	// implement the paper's requirement that "there will be b sets of
	// buckets to map to, one set for each band so no overlapping between
	// bands can occur"; keys are additionally salted with the band
	// number. Allocated on the first insert (ensureBuild), so a frozen
	// index has none.
	runs []runTable
	// arena holds every build-phase bucket as a run of ascending IDs. A
	// run's room is its length rounded up to a power of two; a full run
	// moves to the arena's end with twice the room (addToRun), leaving
	// its old room unused.
	arena []int32
	// maxRun is the longest run's length, which bounds how far one
	// insert can extend the arena (QueryInsert keeps run offsets inside
	// int32).
	maxRun      int32
	inserted    []bool
	numInserted int
	frozen      *frozenIndex
	// buildTime is the wall time the frozen layout took to build (zero
	// for a loaded index).
	buildTime time.Duration
	// file backs the frozen arrays of an index loaded by Open (the
	// mapping or the heap copy); nil for a built index.
	file *persist.File
	// sums is the cluster-summary store of the long frozen buckets
	// (summary.go): nil until SummarizeClusters, and never persisted.
	sums *clusterSummaries
}

// NewIndex creates an empty index for the given banding parameters,
// seeded deterministically.
func NewIndex(p Params, seed uint64) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Index{params: p, scheme: minhash.NewScheme(p.SignatureLen(), seed)}, nil
}

// isInserted reports whether item has been inserted.
func (ix *Index) isInserted(item int32) bool {
	return uint(item) < uint(len(ix.inserted)) && ix.inserted[item]
}

// ensureBuild allocates the build-phase tables on the first insert.
func (ix *Index) ensureBuild() {
	if ix.runs != nil {
		return
	}
	ix.runs = make([]runTable, ix.params.Bands)
	for b := range ix.runs {
		ix.runs[b] = newRunTable()
	}
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
	for b := range ix.runs {
		key := ix.bandKey(sig, b)
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
// an index invariant that makes a bucket's enumeration a function of
// its *membership*, independent of insertion order, and so identical to
// the frozen layout's. Ascending insert sequences (streaming) append;
// only an out-of-order insert pays insertion-sort shifts.
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

// grow extends the inserted flags to hold at least n items, doubling
// capacity so a stream of ascending inserts stays amortised O(1). The
// extra tail entries are simply "not inserted".
func (ix *Index) grow(n int) {
	if n <= len(ix.inserted) {
		return
	}
	inserted := make([]bool, max(2*len(ix.inserted), n))
	copy(inserted, ix.inserted)
	ix.inserted = inserted
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

// newRunTable returns an empty table of minRunTable cells.
func newRunTable() runTable {
	return runTable{cells: make([]runEntry, minRunTable), mask: minRunTable - 1}
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

// Candidates invokes fn for every item sharing at least one band bucket
// with item on the frozen index: item itself first, then the members of
// each of its stored buckets, band by band, each bucket in ascending ID
// order. A band where item sits alone adds nothing, and item appears
// again in each bucket it shares; an item sharing several bands with
// it is reported once per shared band — callers dedupe, which the
// shortlist construction does anyway while mapping items to clusters.
// Items never inserted, and every item of a build-phase index, report
// nothing.
func (ix *Index) Candidates(item int32, fn func(other int32)) {
	fz := ix.frozen
	if fz == nil || !ix.isInserted(item) {
		return
	}
	fn(item)
	// The item's bucket slots were resolved at build time, so each band
	// is two array reads plus a contiguous scan — no hashing, no table
	// probes, no allocation.
	for _, slot := range fz.slots[int(item)*ix.params.Bands:][:ix.params.Bands] {
		if slot < 0 {
			continue
		}
		for _, other := range fz.items[fz.offsets[slot]:fz.offsets[slot+1]] {
			fn(other)
		}
	}
}

// CandidatesBatch invokes fn for every block item with what
// Candidates(items[pos]) reports, a whole bucket at a time: first the
// item itself, as the one-item slice items[pos:pos+1], then each of its
// stored band buckets. Items never inserted are skipped; a build-phase
// index reports nothing. Enumeration is band-major across the block —
// every item itself, then every item's band-0 bucket, then every item's
// band-1 bucket, and so on — so each step of the sweep stays inside one
// band's contiguous region of the frozen CSR layout, amortising cache
// and TLB misses that a per-item band sweep pays once per item. For any
// single pos the slices still arrive in Candidates' order, so a per-pos
// consumer observes exactly the sequence Candidates(items[pos]) would
// deliver; handing whole bucket slices to fn additionally removes
// Candidates' per-colliding-item closure dispatch. sum is the bucket's
// cluster-summary handle (Summary), -1 when it keeps none and for the
// item itself. A bucket slice aliases index storage and stays valid for
// the index's lifetime; the item's own slice aliases items. Neither may
// be modified.
func (ix *Index) CandidatesBatch(items []int32, fn func(pos int, bucket []int32, sum int32)) {
	fz := ix.frozen
	if fz == nil {
		return
	}
	for pos, item := range items {
		if ix.isInserted(item) {
			fn(pos, items[pos:pos+1], -1)
		}
	}
	bands := ix.params.Bands
	for b := 0; b < bands; b++ {
		for pos, item := range items {
			if !ix.isInserted(item) {
				continue
			}
			slot := fz.slots[int(item)*bands+b]
			if slot < 0 {
				continue
			}
			bucket := fz.items[fz.offsets[slot]:fz.offsets[slot+1]]
			fn(pos, bucket, ix.summaryOf(slot, len(bucket)))
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

// Stats returns the frozen layout's occupancy statistics. The buckets
// of one item count too: each is the −1 slot of an inserted item (or,
// in a file saved before they were dropped, a stored bucket). A
// build-phase index reports its bands and inserted items only.
func (ix *Index) Stats() Stats {
	st := Stats{Bands: ix.params.Bands, Items: ix.NumInserted()}
	fz := ix.frozen
	if fz == nil {
		return st
	}
	singles := 0
	for s := 0; s+1 < len(fz.offsets); s++ {
		n := int(fz.offsets[s+1] - fz.offsets[s])
		st.MaxBucketLen = max(st.MaxBucketLen, n)
		if n == 1 {
			singles++
		}
	}
	alone, bands := 0, ix.params.Bands
	for item, ok := range ix.inserted {
		if !ok {
			continue
		}
		for _, slot := range fz.slots[item*bands:][:bands] {
			if slot < 0 {
				alone++
			}
		}
	}
	if alone > 0 {
		st.MaxBucketLen = max(st.MaxBucketLen, 1)
	}
	st.Buckets = len(fz.offsets) - 1 + alone
	if st.Buckets > 0 {
		st.MeanBucketLen = float64(len(fz.items)+alone) / float64(st.Buckets)
		st.SingletonShare = float64(singles+alone) / float64(st.Buckets)
	}
	return st
}

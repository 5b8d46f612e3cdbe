package lsh

import (
	"time"

	"lshcluster/internal/hashfamily"
	"lshcluster/internal/lsh/persist"
)

// Index is the banding index of paper Algorithm 2 over items [0, n),
// every one of them indexed. It is made once, in the single pass over
// the dataset after centroid initialisation: BuildFrozen files each
// item under the bucket key of every band of its signature, from the
// presigned keys SignAll computed, or Open loads a layout such a build
// saved. Nothing is filed after that. The index owns no hash family:
// whoever signs the items (MinHash, SimHash) hands it the keys.
//
// Buckets store item IDs, and the caller's assignment slice maps them
// to clusters at query time, so "updating the cluster reference" after
// a move (§III-B) starts with a single slice store. The index also
// keeps the paper's cluster reference itself for every bucket of at
// least SummaryMinLen items: the members' distinct clusters, which a
// block query reads in place of the members (summary.go). Those
// summaries are refreshed when the caller reports a move (Resummarize).
//
// The layout is flat CSR arrays (frozen.go), so the recurring
// per-iteration query "which items collide with item i" (Candidates,
// CandidatesBatch) resolves i's buckets without re-hashing it, reads
// contiguous memory and allocates nothing. The streaming clusterer,
// which files each arriving item's cluster under its band keys, keeps
// a BandTable instead.
//
// Concurrent queries via Candidates/CandidatesBatch are safe;
// SummarizeClusters and Resummarize must not run beside them.
type Index struct {
	params Params
	// n is the item count: items [0, n) are indexed, and any other ID
	// reports nothing.
	n      int
	frozen frozenIndex
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

// indexed reports whether item is one of the index's items [0, n).
func (ix *Index) indexed(item int32) bool { return uint(item) < uint(ix.n) }

// Params returns the banding configuration.
func (ix *Index) Params() Params { return ix.params }

// NumInserted returns how many items the index holds: all n.
func (ix *Index) NumInserted() int { return ix.n }

// bandKeyOf hashes rows [band·r, (band+1)·r) of sig into a salted
// 64-bit bucket key. A free function so parallel signing workers can
// compute keys without an Index.
func bandKeyOf(p Params, sig []uint64, band int) uint64 {
	r := p.Rows
	key := uint64(band)*0x9e3779b97f4a7c15 + 0x85ebca6b9d1c5e27
	for _, v := range sig[band*r : (band+1)*r] {
		key = hashfamily.Mix64(key ^ v)
	}
	return key
}

// Candidates invokes fn for every item sharing at least one band bucket
// with item: item itself first, then the members of each of its stored
// buckets, band by band, each bucket in ascending ID order. A band
// where item sits alone adds nothing, and item appears again in each
// bucket it shares; an item sharing several bands with it is reported
// once per shared band — callers dedupe, which the shortlist
// construction does anyway while mapping items to clusters. An ID
// outside [0, n) reports nothing.
func (ix *Index) Candidates(item int32, fn func(other int32)) {
	if !ix.indexed(item) {
		return
	}
	fn(item)
	// The item's bucket slots were resolved at build time, so each band
	// is two array reads plus a contiguous scan — no hashing, no table
	// probes, no allocation.
	fz := &ix.frozen
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
// stored band buckets. IDs outside [0, n) are skipped. Enumeration is
// band-major across the block — every item itself, then every item's
// band-0 bucket, then every item's band-1 bucket, and so on — so each
// step of the sweep stays inside one band's contiguous region of the
// CSR layout, amortising cache and TLB misses that a per-item band
// sweep pays once per item. For any single pos the slices still arrive
// in Candidates' order, so a per-pos consumer observes exactly the
// sequence Candidates(items[pos]) would deliver; handing whole bucket
// slices to fn additionally removes Candidates' per-colliding-item
// closure dispatch. sum is the bucket's cluster-summary handle
// (Summary), -1 when it keeps none and for the item itself. A bucket
// slice aliases index storage and stays valid for the index's
// lifetime; the item's own slice aliases items. Neither may be
// modified.
func (ix *Index) CandidatesBatch(items []int32, fn func(pos int, bucket []int32, sum int32)) {
	for pos, item := range items {
		if ix.indexed(item) {
			fn(pos, items[pos:pos+1], -1)
		}
	}
	fz := &ix.frozen
	bands := ix.params.Bands
	for b := 0; b < bands; b++ {
		for pos, item := range items {
			if !ix.indexed(item) {
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
	Items          int     // indexed items
	MaxBucketLen   int     // largest bucket
	MeanBucketLen  float64 // mean items per non-empty bucket
	SingletonShare float64 // fraction of buckets holding exactly one item
}

// Stats returns the layout's occupancy statistics. The buckets of one
// item count too: each is a −1 slot (or, in a file saved before they
// were dropped, a stored bucket).
func (ix *Index) Stats() Stats {
	st := Stats{Bands: ix.params.Bands, Items: ix.n}
	fz := &ix.frozen
	singles := 0
	for s := 0; s+1 < len(fz.offsets); s++ {
		n := int(fz.offsets[s+1] - fz.offsets[s])
		st.MaxBucketLen = max(st.MaxBucketLen, n)
		if n == 1 {
			singles++
		}
	}
	alone := 0
	for _, slot := range fz.slots {
		if slot < 0 {
			alone++
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

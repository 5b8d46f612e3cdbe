package lsh

import (
	"fmt"

	"lshcluster/internal/hashfamily"
	"lshcluster/internal/minhash"
)

// Index is the MinHash banding index of paper Algorithm 2. Items are
// inserted once (the single pass over the dataset after centroid
// initialisation); each band of an item's signature is hashed to a bucket
// key, and the item ID is appended to that band's bucket.
//
// Band keys for every inserted item are also retained, so the recurring
// per-iteration query "which items collide with item i" is a pure lookup
// that never re-hashes the item. The paper's per-item *cluster reference*
// lives outside the index, in the caller's assignment slice: because
// buckets store item IDs and the caller maps IDs to clusters at query
// time, "updating the reference" after a move is a single slice store —
// exactly the O(1) pointer update described in §III-B.
//
// The index has two construction lifecycles. The batch build
// (BuildFrozen) constructs the frozen layout — flat CSR arrays for
// cache-friendly, allocation-free candidate lookups during iteration —
// straight from presigned band keys. The map-based *build* phase
// accepts one insert at a time: the streaming clusterer keeps
// inserting into it and queries it between inserts, and the serial
// bootstrap oracle inserts every item and then compacts the maps into
// the same frozen layout (Freeze) before its first query.
//
// An Index is not safe for concurrent mutation. Insert and
// CandidatesOfSet additionally share internal signing scratch
// (sigBuf), so neither may run concurrently with the other even
// though CandidatesOfSet does not mutate buckets; parallel
// constructions sign with per-worker scratch (SignAll) instead.
// Concurrent queries via Candidates/CandidatesBatch/
// CandidatesOfSignature are safe once all insertions (or Freeze /
// BuildFrozen) are done.
type Index struct {
	params Params
	scheme *minhash.Scheme
	// capHint is the NewIndex numItems capacity hint, consumed when the
	// build-phase storage is materialised.
	capHint int
	// buckets[band] maps a band key to the IDs of the items whose
	// signature hashed to it. Separate maps per band implement the
	// paper's requirement that "there will be b sets of buckets to map
	// to, one set for each band so no overlapping between bands can
	// occur"; keys are additionally salted with the band number.
	// Allocated lazily on the first insert (ensureBuild) so the
	// direct-to-frozen batch build, which never files into maps, pays
	// nothing for them; nil once frozen.
	buckets []map[uint64][]int32
	// keyOrder[band] lists the band's distinct keys in first-insertion
	// order. Freeze assigns bucket IDs in this order, which makes the
	// frozen layout a deterministic function of the insertion sequence
	// (map iteration order is randomised) and lets BuildFrozen — which
	// processes items in ascending ID order — reproduce it byte for
	// byte. Nil once frozen.
	keyOrder [][]uint64
	// keys[item·bands+band] is the stored band key of an inserted item.
	// Nil once frozen (the frozen layout resolves items to bucket slots
	// directly).
	keys        []uint64
	inserted    []bool
	numInserted int
	frozen      *frozenIndex
	sigBuf      []uint64
	// idBase maps this index's local item IDs to the global IDs stored
	// in buckets: global = idBase + local. A standalone index uses 0,
	// where local and global coincide; a shard of a Sharded index uses
	// its first global item, so bucket scans emit global IDs with no
	// per-item translation.
	idBase int32
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

// newShardIndex creates one shard of a Sharded index: the scheme is
// shared (every shard signs identically) and base is the shard's first
// global item.
func newShardIndex(p Params, scheme *minhash.Scheme, capHint int, base int32) *Index {
	return &Index{
		params:  p,
		scheme:  scheme,
		capHint: capHint,
		sigBuf:  make([]uint64, p.SignatureLen()),
		idBase:  base,
	}
}

// globalID maps a local item ID to the global ID stored in buckets.
func (ix *Index) globalID(local int32) int32 { return ix.idBase + local }

// isInserted reports whether local item ID has been inserted.
func (ix *Index) isInserted(local int32) bool {
	return int(local) < len(ix.inserted) && ix.inserted[local]
}

// ensureBuild materialises the map-based build storage on first use.
// Deferred out of NewIndex so BuildFrozen — which resolves buckets
// straight into the frozen layout — never allocates the maps, the
// key-order lists or the per-item key arena it would immediately
// discard.
func (ix *Index) ensureBuild() {
	if ix.buckets != nil {
		return
	}
	// Pre-size each band's bucket map so the streaming build phase does
	// not pay log(buckets) incremental rehashes. Distinct keys per band
	// range from ~1 (degenerate all-identical data) to numItems (all
	// singletons); numItems/Bands is a middle-ground hint that removes
	// most growth steps without over-reserving Bands× the worst case.
	hint := ix.capHint / ix.params.Bands
	ix.buckets = make([]map[uint64][]int32, ix.params.Bands)
	for b := range ix.buckets {
		ix.buckets[b] = make(map[uint64][]int32, hint)
	}
	ix.keyOrder = make([][]uint64, ix.params.Bands)
	ix.keys = make([]uint64, ix.capHint*ix.params.Bands)
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
// Insert signs into scratch shared with CandidatesOfSet: it must not be
// called concurrently with itself or with CandidatesOfSet. Parallel
// batch construction signs with per-worker scratch via SignAll +
// BuildFrozen instead.
func (ix *Index) Insert(item int32, presentValues []uint64) error {
	return ix.InsertSignature(item, ix.scheme.Sign(presentValues, ix.sigBuf))
}

// InsertSignature files item under the band buckets of a precomputed
// signature of length SignatureLen. It allows other LSH families — e.g.
// the random-hyperplane (SimHash) signatures of the numeric extension —
// to reuse the banding index.
func (ix *Index) InsertSignature(item int32, sig []uint64) error {
	if item < 0 {
		return fmt.Errorf("lsh: negative item ID %d", item)
	}
	if len(sig) != ix.params.SignatureLen() {
		return fmt.Errorf("lsh: signature length %d, want %d", len(sig), ix.params.SignatureLen())
	}
	if ix.frozen != nil {
		return fmt.Errorf("lsh: index is frozen")
	}
	ix.ensureBuild()
	ix.grow(int(item) + 1)
	if ix.inserted[item] {
		return fmt.Errorf("lsh: item %d already inserted", item)
	}
	base := int(item) * ix.params.Bands
	for b := 0; b < ix.params.Bands; b++ {
		ix.file(b, ix.bandKey(sig, b), item, base)
	}
	ix.inserted[item] = true
	ix.numInserted++
	return nil
}

// file adds item (as its global ID) to band b's bucket under key,
// recording the key's first appearance in keyOrder (the deterministic
// Freeze ordering) and retaining it in the per-item key store.
//
// Buckets are kept in ascending global-ID order — an index invariant
// that makes candidate enumeration a function of the bucket's
// *membership*, independent of insertion order, and therefore
// identical across shard partitions (a sharded query concatenates
// per-shard buckets in ascending shard order). Ascending insert
// sequences (the serial bootstrap oracle, streaming) take the append
// path unchanged; only an out-of-order insert pays insertion-sort
// shifts.
func (ix *Index) file(b int, key uint64, item int32, base int) {
	ix.keys[base+b] = key
	bucket, ok := ix.buckets[b][key]
	if !ok {
		ix.keyOrder[b] = append(ix.keyOrder[b], key)
	}
	bucket = append(bucket, ix.globalID(item))
	for i := len(bucket) - 1; i > 0 && bucket[i-1] > bucket[i]; i-- {
		bucket[i-1], bucket[i] = bucket[i], bucket[i-1]
	}
	ix.buckets[b][key] = bucket
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

// Candidates invokes fn for every item sharing at least one band bucket
// with the previously inserted item. The item itself is reported (it
// trivially collides with itself in every band), and an item sharing
// several bands is reported once per shared band — callers dedupe, which
// the shortlist construction does anyway while mapping items to clusters.
func (ix *Index) Candidates(item int32, fn func(other int32)) {
	if int(item) >= len(ix.inserted) || !ix.inserted[item] {
		return
	}
	if fz := ix.frozen; fz != nil {
		// Frozen fast path: the item's bucket slots were resolved at
		// Freeze time, so each band is two array reads plus a
		// contiguous scan — no hashing, no map probes, no allocation.
		base := int(item) * ix.params.Bands
		for b := 0; b < ix.params.Bands; b++ {
			slot := fz.slots[base+b]
			for _, other := range fz.items[fz.offsets[slot]:fz.offsets[slot+1]] {
				fn(other)
			}
		}
		return
	}
	base := int(item) * ix.params.Bands
	for b := 0; b < ix.params.Bands; b++ {
		for _, other := range ix.buckets[b][ix.keys[base+b]] {
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
// closure dispatch. The bucket slices alias index storage and must not
// be modified.
func (ix *Index) CandidatesBatch(items []int32, fn func(pos int, bucket []int32)) {
	bands := ix.params.Bands
	if fz := ix.frozen; fz != nil {
		for b := 0; b < bands; b++ {
			for pos, item := range items {
				if int(item) >= len(ix.inserted) || !ix.inserted[item] {
					continue
				}
				slot := fz.slots[int(item)*bands+b]
				fn(pos, fz.items[fz.offsets[slot]:fz.offsets[slot+1]])
			}
		}
		return
	}
	for b := 0; b < bands; b++ {
		for pos, item := range items {
			if int(item) >= len(ix.inserted) || !ix.inserted[item] {
				continue
			}
			fn(pos, ix.buckets[b][ix.keys[int(item)*bands+b]])
		}
	}
}

// CandidatesOfSet MinHashes an arbitrary (possibly un-inserted) value set
// and reports colliding items, with the same duplication semantics as
// Candidates. It is used for out-of-index queries such as assigning new
// items in a streaming setting.
//
// CandidatesOfSet signs into scratch shared with Insert: it must not be
// called concurrently with itself or with Insert. Callers that need
// concurrent out-of-index queries sign externally (with private
// scratch) and use CandidatesOfSignature.
func (ix *Index) CandidatesOfSet(presentValues []uint64, fn func(other int32)) {
	ix.CandidatesOfSignature(ix.scheme.Sign(presentValues, ix.sigBuf), fn)
}

// CandidatesOfSignature reports the items colliding with a precomputed
// signature of length SignatureLen, with the same duplication semantics
// as Candidates. It lets callers that sign externally — the streaming
// clusterer signs once per arriving item and reuses the signature for
// both this query and the subsequent InsertSignature — avoid
// re-hashing the item per use.
func (ix *Index) CandidatesOfSignature(sig []uint64, fn func(other int32)) {
	if len(sig) != ix.params.SignatureLen() {
		panic("lsh: CandidatesOfSignature signature length mismatch")
	}
	if ix.frozen == nil && ix.buckets == nil {
		return // nothing inserted yet (build storage is lazy)
	}
	if fz := ix.frozen; fz != nil {
		for b := 0; b < ix.params.Bands; b++ {
			slot := fz.tables[b].get(ix.bandKey(sig, b))
			if slot < 0 {
				continue
			}
			for _, other := range fz.items[fz.offsets[slot]:fz.offsets[slot+1]] {
				fn(other)
			}
		}
		return
	}
	for b := 0; b < ix.params.Bands; b++ {
		for _, other := range ix.buckets[b][ix.bandKey(sig, b)] {
			fn(other)
		}
	}
}

// lookupBucket returns band b's bucket filed under key (nil when
// absent) on a frozen index — the cross-shard key probe. The returned
// slice aliases index storage and must not be modified; its entries
// are global item IDs.
func (ix *Index) lookupBucket(b int, key uint64) []int32 {
	fz := ix.frozen
	slot := fz.tables[b].get(key)
	if slot < 0 {
		return nil
	}
	return fz.items[fz.offsets[slot]:fz.offsets[slot+1]]
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
	ix.statsInto(&st, &singles, &total)
	if st.Buckets > 0 {
		st.MeanBucketLen = float64(total) / float64(st.Buckets)
		st.SingletonShare = float64(singles) / float64(st.Buckets)
	}
	return st
}

// statsInto folds this index's bucket occupancy into st with the raw
// singleton/total counters, so a Sharded index can aggregate shards
// exactly instead of re-deriving counts from per-shard ratios.
func (ix *Index) statsInto(st *Stats, singles, total *int) {
	bucketLen := func(n int) {
		st.Buckets++
		*total += n
		if n > st.MaxBucketLen {
			st.MaxBucketLen = n
		}
		if n == 1 {
			*singles++
		}
	}
	if fz := ix.frozen; fz != nil {
		for s := 0; s+1 < len(fz.offsets); s++ {
			bucketLen(int(fz.offsets[s+1] - fz.offsets[s]))
		}
	} else {
		for _, band := range ix.buckets {
			for _, items := range band {
				bucketLen(len(items))
			}
		}
	}
}

package lsh

// Frozen index layout. Freeze compacts the map-based band buckets into
// flat CSR arrays — a concatenation of every bucket's item IDs plus an
// offsets array — so the per-iteration Candidates lookups walk
// contiguous memory instead of chasing map buckets. Two access paths
// are built:
//
//   - slots[item·bands+band] resolves an *inserted* item directly to
//     its bucket (no hashing at query time): the hot path of the
//     clustering iteration.
//   - an open-addressed key→bucket table per band serves key lookups:
//     a sharded query's probes of the other shards, and
//     CandidatesOfSet/CandidatesOfSignature queries for items outside
//     the index.
//
// Bucket IDs are global across bands; each band's buckets occupy a
// contiguous ID range, and every bucket's item order is preserved from
// the build phase, so frozen and unfrozen queries enumerate candidates
// in the identical order.
type frozenIndex struct {
	offsets []int32 // len totalBuckets+1; bucket s holds items[offsets[s]:offsets[s+1]]
	items   []int32 // all buckets' item IDs (global), concatenated
	slots   []int32 // item·bands+band → bucket ID; -1 when not inserted
	// keys[s] is the band key bucket s was filed under (the band is
	// implied by the bucket-ID range). It inverts slots back to keys, so
	// a sharded query can resolve an item's band keys through its owning
	// shard and probe the other shards' key tables without retaining the
	// per-item key arena.
	keys   []uint64
	tables []keyTable
	// bandStart[b] is the first bucket ID of band b (len bands+1, so
	// band b owns slots [bandStart[b], bandStart[b+1])) — the range the
	// foreign-emptiness bitmap build walks to recover each slot's band.
	bandStart []int32
}

// keyTable is a linear-probing open-addressed map from a band key to a
// global bucket ID. Band keys are already avalanche-mixed 64-bit
// hashes, so the raw key masks directly into the table. Load factor is
// kept ≤ 0.5, guaranteeing probe termination. Key and slot are stored
// interleaved so a probe touches one cache line, not one per array —
// the probe-heavy cross-shard fan-out paths are bound by exactly this
// memory traffic.
type keyTable struct {
	entries []keyEntry
	mask    uint64
}

// keyEntry is one table cell; slot −1 means empty.
type keyEntry struct {
	key  uint64
	slot int32
}

func newKeyTable(numKeys int) keyTable {
	size := 2
	for size < 2*numKeys {
		size *= 2
	}
	t := keyTable{
		entries: make([]keyEntry, size),
		mask:    uint64(size - 1),
	}
	for i := range t.entries {
		t.entries[i].slot = -1
	}
	return t
}

func (t *keyTable) put(key uint64, slot int32) {
	i := key & t.mask
	for t.entries[i].slot >= 0 {
		i = (i + 1) & t.mask
	}
	t.entries[i] = keyEntry{key: key, slot: slot}
}

// get returns the bucket ID filed under key, or -1.
func (t *keyTable) get(key uint64) int32 {
	i := key & t.mask
	for {
		e := t.entries[i]
		if e.slot < 0 || e.key == key {
			return e.slot
		}
		i = (i + 1) & t.mask
	}
}

// Frozen reports whether the index has been compacted.
func (ix *Index) Frozen() bool { return ix.frozen != nil }

// Freeze compacts the map-based buckets into the flat CSR layout and
// releases the build-phase storage. After Freeze the index is
// immutable: Insert returns an error, queries are allocation-free and
// return exactly what they returned before freezing (same candidates,
// same enumeration order). Freeze is idempotent.
//
// Bucket IDs are assigned band by band in each key's first-insertion
// order (keyOrder), not map iteration order, so the frozen arrays are
// a deterministic function of the insertion sequence — and, when items
// were inserted in ascending ID order, byte-identical to what
// BuildFrozen produces from the same band keys.
//
// Batch clustering calls this once after bootstrap (via the
// core.Freezer capability); the streaming clusterer, which inserts for
// the lifetime of the stream, never does.
func (ix *Index) Freeze() {
	if ix.frozen != nil {
		return
	}
	bands := ix.params.Bands
	totalBuckets, totalItems := 0, 0
	for _, band := range ix.buckets {
		totalBuckets += len(band)
		for _, items := range band {
			totalItems += len(items)
		}
	}
	fz := &frozenIndex{
		offsets:   make([]int32, 1, totalBuckets+1),
		items:     make([]int32, 0, totalItems),
		keys:      make([]uint64, 0, totalBuckets),
		tables:    make([]keyTable, bands),
		bandStart: make([]int32, bands+1),
	}
	bucketID := int32(0)
	// Iterate band indices, not ix.buckets: with nothing inserted the
	// lazy build storage was never materialised (buckets nil) and every
	// band still needs a valid empty key table for post-freeze queries.
	for b := 0; b < bands; b++ {
		fz.bandStart[b] = bucketID
		var band map[uint64][]int32
		var order []uint64
		if ix.buckets != nil {
			band, order = ix.buckets[b], ix.keyOrder[b]
		}
		tbl := newKeyTable(len(band))
		for _, key := range order {
			fz.items = append(fz.items, band[key]...)
			fz.offsets = append(fz.offsets, int32(len(fz.items)))
			fz.keys = append(fz.keys, key)
			tbl.put(key, bucketID)
			bucketID++
		}
		fz.tables[b] = tbl
	}
	fz.bandStart[bands] = bucketID
	fz.slots = make([]int32, len(ix.inserted)*bands)
	for item, ok := range ix.inserted {
		base := item * bands
		if !ok {
			for b := 0; b < bands; b++ {
				fz.slots[base+b] = -1
			}
			continue
		}
		for b := 0; b < bands; b++ {
			fz.slots[base+b] = fz.tables[b].get(ix.keys[base+b])
		}
	}
	ix.frozen = fz
	ix.buckets = nil // release the build-phase maps
	ix.keyOrder = nil
	ix.keys = nil
}

package lsh

// Frozen index layout. BuildFrozen and Freeze lay the band buckets out
// as flat CSR arrays — a concatenation of every bucket's item IDs plus
// an offsets array — so the per-iteration Candidates lookups walk
// contiguous memory instead of probing a key table per band. Two
// access paths are built:
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
// contiguous ID range, and every bucket lists its items in ascending
// ID order, as the build phase's runs do, so frozen and unfrozen
// queries enumerate candidates in the identical order.
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

// Freeze builds the flat CSR layout from the build phase's stored
// per-item keys and releases the build-phase storage. After Freeze the
// index is immutable: Insert returns an error, queries are
// allocation-free and return exactly what they returned before
// freezing (same candidates, same enumeration order). Freeze is
// idempotent.
//
// The layout comes from BuildFrozen's own two passes (freezeKeys),
// which skip IDs never inserted, so it is a function of which items
// hold which keys, not of the insertion order: with items 0…n−1
// inserted it is byte-identical to what BuildFrozen produces from the
// same band keys. Per-item storage is trimmed to the highest inserted
// ID.
//
// Batch clustering calls this once after the serial bootstrap oracle's
// inserts (via the core.Freezer capability); the streaming clusterer,
// which inserts for the lifetime of the stream, never does.
func (ix *Index) Freeze() {
	if ix.frozen != nil {
		return
	}
	n := len(ix.inserted)
	for n > 0 && !ix.inserted[n-1] {
		n--
	}
	keys, inserted := ix.keys[:n*ix.params.Bands], ix.inserted[:n]
	ix.runs, ix.arena = nil, nil // the passes read only the stored keys
	ix.freezeKeys(keys, inserted, 1)
}

package lsh

// Frozen index layout. BuildFrozen and Freeze lay the band buckets out
// as flat CSR arrays — a concatenation of every bucket's item IDs plus
// an offsets array — so the per-iteration Candidates lookups walk
// contiguous memory instead of probing a key table per band.
// slots[item·bands+band] resolves an inserted item directly to its
// bucket, so a query hashes nothing. The layout keeps no band keys:
// every frozen query starts from an inserted item, and key-addressed
// lookups (QueryInsert) belong to the build phase.
//
// Bucket IDs are global across bands; each band's buckets occupy a
// contiguous ID range, and every bucket lists its items in ascending
// ID order, as the build phase's runs do, so frozen and unfrozen
// queries enumerate candidates in the identical order.
type frozenIndex struct {
	offsets []int32 // len totalBuckets+1; bucket s holds items[offsets[s]:offsets[s+1]]
	items   []int32 // all buckets' item IDs, concatenated
	slots   []int32 // item·bands+band → bucket ID; -1 when not inserted
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

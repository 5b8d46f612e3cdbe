package lsh

// Frozen index layout. BuildFrozen lays the band buckets out as flat
// CSR arrays — a concatenation of every bucket's item IDs plus an
// offsets array — so the per-iteration Candidates lookups walk
// contiguous memory instead of probing a key table per band.
// slots[item·bands+band] resolves an inserted item directly to its
// bucket, so a query hashes nothing. The layout keeps no band keys:
// every frozen query starts from an inserted item, and key-addressed
// lookups (QueryInsert) belong to the build phase.
//
// Bucket IDs are global across bands; each band's buckets occupy a
// contiguous ID range, and every bucket lists its items in ascending
// ID order, as the build phase's runs do, so a frozen bucket holds
// exactly what the build phase would file under its key, in the same
// order.
type frozenIndex struct {
	offsets []int32 // len totalBuckets+1; bucket s holds items[offsets[s]:offsets[s+1]]
	items   []int32 // all buckets' item IDs, concatenated
	slots   []int32 // item·bands+band → bucket ID; -1 when not inserted
}

// Frozen reports whether the index holds the frozen layout (built by
// BuildFrozen or loaded by Open).
func (ix *Index) Frozen() bool { return ix.frozen != nil }

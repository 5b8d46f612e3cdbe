package lsh

// The index layout. BuildFrozen lays the band buckets out as flat CSR
// arrays — a concatenation of every stored bucket's item IDs plus an
// offsets array — so the per-iteration Candidates lookups walk
// contiguous memory instead of probing a key table per band.
// slots[item·bands+band] resolves an item directly to its bucket, so a
// query hashes nothing. The layout keeps no band keys: every query
// starts from an indexed item, and key-addressed lookups belong to the
// stream's BandTable.
//
// Only buckets that two or more items share are stored. A bucket of
// one item tells a query nothing beyond the item itself, which every
// query reports anyway, and on a selective banding such buckets are
// nearly all of them; an item alone under its key in a band has slot
// −1 there.
//
// Bucket IDs are global across bands; each band's stored buckets
// occupy a contiguous ID range, in the order their keys first occur
// over ascending items, and every bucket lists its items in ascending
// ID order, so a stored bucket holds exactly what a BandTable files
// under its key when the items are filed as their own values in
// ascending order.
// A file saved before singleton buckets were dropped stores them too;
// it loads and answers every query the same way.
type frozenIndex struct {
	offsets []int32 // len storedBuckets+1; bucket s holds items[offsets[s]:offsets[s+1]]
	items   []int32 // every stored bucket's item IDs, concatenated
	slots   []int32 // item·bands+band → stored bucket ID; -1 when the item is alone there
}

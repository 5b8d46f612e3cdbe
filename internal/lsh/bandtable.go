package lsh

import (
	"fmt"
	"math"
	"slices"
)

// BandTable is the key-addressed banding index the streaming clusterer
// files into: per band (keys salted with the band number, so no two
// bands share a bucket), a table from band key to the bucket of
// distinct int32 values filed under it, in the order each was first
// filed. The stream files clusters, so a bucket is the paper's "cluster
// reference in the MinHash index" (Algorithm 2): since a stream item's
// cluster never changes and items arrive in ascending ID order, its
// clusters come in the order a walk of its members' IDs would first
// reach them.
//
// A caller probes a signature's buckets (Probe), decides, then files
// one value under the probed keys (File). Per band, a linear-probing
// table of 16-byte cells, at most three quarters full, doubling. A
// bucket of one value keeps it inline in its cell; only a longer one
// has a run in the shared arena (on the stream-ingest benchmark
// 2,799,119 of 2,819,492 buckets hold one cluster). Nothing holds a
// pointer, so the collector never scans the tables.
type BandTable struct {
	params Params
	tables []bandCells
	// arena holds the runs of the buckets of two or more values, each
	// with room for its length rounded up to a power of two.
	arena []int32
	// maxRun is the longest run, which bounds how far one File can
	// extend the arena.
	maxRun int32
	// keys and at are the last Probe's band keys and the cell each probe
	// ended at, which File fills; probed says they are current.
	keys   []uint64
	at     []uint64
	probed bool
	// warm sums the home cells Probe loads ahead of its probes, so
	// that the compiler keeps the loads.
	warm uint64
	// one holds an inline bucket's value while Probe reports it.
	one [1]int32
}

// bandCell is a band key and its bucket of n values, n == 0 marking an
// empty cell: the value itself in ref when n == 1, else the run
// arena[ref : ref+n].
type bandCell struct {
	key    uint64
	ref, n int32
}

type bandCells struct {
	cells []bandCell
	mask  uint64
	used  int
}

// NewBandTable returns an empty band table for the given banding
// parameters.
func NewBandTable(p Params) (*BandTable, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	t := &BandTable{params: p, tables: make([]bandCells, p.Bands), keys: make([]uint64, p.Bands), at: make([]uint64, p.Bands)}
	for b := range t.tables {
		t.tables[b] = bandCells{cells: make([]bandCell, 16), mask: 15}
	}
	return t, nil
}

// Probe hands fn (when non-nil) the non-empty bucket filed under each
// band key of a precomputed signature, in ascending band order, and
// keeps the cell each probe ended at for the File that follows. A
// bucket slice aliases table storage and is valid only during the
// call; fn must not modify it or touch the table. The signature, and
// the arena's room for File's worst case within int32 offsets, are
// checked before any band is read: an error leaves the table unchanged
// and nothing to File, and the File after a successful Probe cannot
// fail.
func (t *BandTable) Probe(sig []uint64, fn func(bucket []int32)) error {
	t.probed = false
	if len(sig) != t.params.SignatureLen() {
		return fmt.Errorf("lsh: signature length %d, want %d", len(sig), t.params.SignatureLen())
	}
	// Each band may move a full run to the arena's end with twice its
	// room, or start a run of two.
	if int64(len(t.arena))+int64(len(t.tables))*2*max(int64(t.maxRun), 1) > math.MaxInt32 {
		return fmt.Errorf("lsh: band table arena holds %d entries, too many to file within int32 offsets", len(t.arena))
	}
	for b := range t.keys {
		t.keys[b] = bandKeyOf(t.params, sig, b)
	}
	// Every band's first probe lands on a random cell of a table far
	// larger than the caches; loading all the home cells before reading
	// any lets those misses overlap.
	warm := uint64(0)
	for b, key := range t.keys {
		warm += t.tables[b].cells[key&t.tables[b].mask].key
	}
	t.warm = warm
	for b, key := range t.keys {
		tb := &t.tables[b]
		t.at[b] = tb.find(key)
		switch c := &tb.cells[t.at[b]]; {
		case fn == nil || c.n == 0:
		case c.n == 1:
			t.one[0] = c.ref
			fn(t.one[:])
		default:
			fn(t.arena[c.ref : c.ref+c.n])
		}
	}
	t.probed = true
	return nil
}

// File adds v to each bucket the last Probe found, unless the bucket
// holds it already. Each Probe allows one File; a File without one is a
// caller bug and panics.
func (t *BandTable) File(v int32) {
	if !t.probed {
		panic("lsh: BandTable.File without a Probe")
	}
	t.probed = false
	for b := range t.tables {
		tb := &t.tables[b]
		switch c := &tb.cells[t.at[b]]; {
		case c.n == 0:
			c = tb.claim(t.at[b], t.keys[b])
			c.ref, c.n = v, 1
		case c.n == 1 && c.ref != v:
			t.arena = append(t.arena, c.ref, v)
			c.ref, c.n = int32(len(t.arena)-2), 2
			t.maxRun = max(t.maxRun, 2)
		case c.n > 1 && !slices.Contains(t.arena[c.ref:c.ref+c.n], v):
			// A full run (n a power of two) moves to the arena's end with
			// twice the room, so a bucket of n values is copied fewer than
			// 2n times in all.
			if n := c.n; n&(n-1) == 0 {
				end := len(t.arena)
				t.arena = slices.Grow(t.arena, 2*int(n))[:end+2*int(n)]
				copy(t.arena[end:], t.arena[c.ref:c.ref+n])
				c.ref = int32(end)
			}
			t.arena[c.ref+c.n] = v
			c.n++
			t.maxRun = max(t.maxRun, c.n)
		}
	}
}

// find returns the position of the cell filed under key, or of the
// empty cell where a probe for key ends.
func (t *bandCells) find(key uint64) uint64 {
	i := key & t.mask
	for c := &t.cells[i]; c.n != 0 && c.key != key; c = &t.cells[i] {
		i = (i + 1) & t.mask
	}
	return i
}

// claim files key in the empty cell at i, where find(key) ended, and
// returns the claimed cell. When one more key would fill the table past
// three quarters, the table doubles first and key goes where a probe of
// the new table ends. The caller sets the bucket.
func (t *bandCells) claim(i, key uint64) *bandCell {
	if 4*(t.used+1) > 3*len(t.cells) {
		old := t.cells
		t.cells = make([]bandCell, 2*len(old))
		t.mask = uint64(len(t.cells) - 1)
		for _, c := range old {
			if c.n > 0 {
				t.cells[t.find(c.key)] = c
			}
		}
		i = t.find(key)
	}
	t.used++
	t.cells[i].key = key
	return &t.cells[i]
}

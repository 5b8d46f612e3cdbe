package lsh

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Index construction. The bootstrap knows every item's band keys up
// front (SignAll), so BuildFrozen constructs the CSR layout
// (frozen.go) straight from the flat key arena in two counting passes,
// each parallel across bands:
//
//  1. Per band, resolve every item's key to a local bucket slot with
//     an open-addressed key table (no sorting, no radix passes),
//     recording bucket sizes in first-occurrence key order, then
//     number the buckets of two or more items, in the same order.
//  2. Per band, turn the stored buckets' sizes into CSR offsets and
//     scatter their items in ascending ID order; an item alone under
//     its key gets slot −1.
//
// Bands are independent: each owns a contiguous bucket-ID range and a
// contiguous region of the items array, sized in pass 1, which is why
// construction parallelises with no cross-band synchronisation beyond
// one barrier between the passes. Stored bucket IDs follow each key's
// first occurrence in ascending item order, so the frozen arrays depend
// only on which items hold which keys, never on the worker count.

// buildTable is the pass-1 scratch: a linear-probing key→local-bucket
// table that doubles as it fills (load factor ≤ 0.5), so scratch
// memory tracks the observed distinct-key count instead of the n-keys
// worst case — at tens of millions of items with clustered data the
// difference is gigabytes. Growth rehashes are amortised O(distinct
// keys); each worker grows one table on its first band and reuses it
// (reset, cost proportional to the grown size) for the rest, so the
// growth chain is paid once per worker, not once per band.
type buildTable struct {
	keys  []uint64
	slots []int32
	mask  uint64
	used  int
}

func newBuildTable(hint int) *buildTable {
	size := 64
	for size < 2*hint {
		size *= 2
	}
	t := &buildTable{}
	t.init(size)
	return t
}

func (t *buildTable) init(size int) {
	t.keys = make([]uint64, size)
	t.slots = make([]int32, size)
	t.mask = uint64(size - 1)
	for i := range t.slots {
		t.slots[i] = -1
	}
}

// reset empties the table for the next band without shrinking it.
func (t *buildTable) reset() {
	for i := range t.slots {
		t.slots[i] = -1
	}
	t.used = 0
}

// lookupOrAdd returns the local bucket ID filed under key, adding it
// as next if absent (added reports which).
func (t *buildTable) lookupOrAdd(key uint64, next int32) (slot int32, added bool) {
	i := key & t.mask
	for {
		s := t.slots[i]
		if s < 0 {
			break
		}
		if t.keys[i] == key {
			return s, false
		}
		i = (i + 1) & t.mask
	}
	if 2*(t.used+1) > len(t.slots) {
		t.grow()
		i = key & t.mask
		for t.slots[i] >= 0 {
			i = (i + 1) & t.mask
		}
	}
	t.keys[i] = key
	t.slots[i] = next
	t.used++
	return next, true
}

func (t *buildTable) grow() {
	oldKeys, oldSlots := t.keys, t.slots
	t.init(2 * len(oldSlots))
	for i, s := range oldSlots {
		if s < 0 {
			continue
		}
		j := oldKeys[i] & t.mask
		for t.slots[j] >= 0 {
			j = (j + 1) & t.mask
		}
		t.keys[j] = oldKeys[i]
		t.slots[j] = s
	}
}

// errFrozenOverflow rejects a BuildFrozen whose n·Bands bucket entries
// would overflow the frozen layout's int32 offsets. A fixed value, so
// the rejection allocates nothing.
var errFrozenOverflow = errors.New("lsh: BuildFrozen: n·Bands bucket entries exceed the frozen layout's int32 offsets")

// BuildFrozen builds the index of items [0, n) directly from their
// presigned band keys — the arena SignAll returns, keys[item·Bands+band]
// — sharding the per-band work across workers goroutines. Together
// with Open it is the only way to get an Index.
func BuildFrozen(p Params, keys []uint64, n, workers int) (*Index, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("lsh: BuildFrozen with negative n %d", n)
	}
	// The frozen offsets, items and slots are int32-addressed.
	if int64(n)*int64(p.Bands) > math.MaxInt32 {
		return nil, errFrozenOverflow
	}
	if len(keys) != n*p.Bands {
		return nil, fmt.Errorf("lsh: %d band keys for %d items × %d bands", len(keys), n, p.Bands)
	}
	start := time.Now()
	bands := p.Bands
	if workers > bands {
		workers = bands
	}
	fz := frozenIndex{slots: make([]int32, n*bands)}
	// counts[b] holds band b's bucket sizes in first-occurrence key
	// order, then maps each local bucket to its global ID (−1 for a
	// bucket of one). stored[b] and entries[b] count band b's stored
	// buckets and their items.
	counts := make([][]int32, bands)
	stored := make([]int32, bands)
	entries := make([]int32, bands)

	// Pass 1: per-band bucket-slot resolution. Bands write disjoint
	// strided entries of slots (local IDs for now) and their own counts;
	// each worker lazily grows one table from an n/Bands cardinality
	// estimate and reuses it across its bands.
	parallelBands(bands, workers, func(bandSeq func() (int, bool)) {
		var tbl *buildTable
		for {
			b, ok := bandSeq()
			if !ok {
				return
			}
			if tbl == nil {
				tbl = newBuildTable(n / bands)
			} else {
				tbl.reset()
			}
			var c []int32
			for item := 0; item < n; item++ {
				s, added := tbl.lookupOrAdd(keys[item*bands+b], int32(len(c)))
				if added {
					c = append(c, 0)
				}
				c[s]++
				fz.slots[item*bands+b] = s
			}
			for _, size := range c {
				if size > 1 {
					stored[b]++
					entries[b] += size
				}
			}
			counts[b] = c
		}
	})

	// Barrier: assign each band its global bucket-ID base and the start
	// of its items region.
	base := make([]int32, bands)
	region := make([]int32, bands)
	total, totalEntries := 0, 0
	for b := range counts {
		base[b], region[b] = int32(total), int32(totalEntries)
		total += int(stored[b])
		totalEntries += int(entries[b])
	}
	fz.offsets = make([]int32, total+1)
	fz.items = make([]int32, totalEntries)
	fz.offsets[total] = int32(totalEntries)

	// Pass 2: per-band CSR fill. Each band writes its own offsets
	// entries, its own items region and its own strided slots entries
	// (now global bucket IDs or −1), so bands remain write-disjoint. A
	// stored bucket's offset starts at its end and counts down as a
	// descending item sweep fills it, so it ends at the bucket's start
	// with the items ascending.
	parallelBands(bands, workers, func(bandSeq func() (int, bool)) {
		for {
			b, ok := bandSeq()
			if !ok {
				return
			}
			c := counts[b]
			id, end := base[b], region[b]
			for j, size := range c {
				if size < 2 {
					c[j] = -1
					continue
				}
				end += size
				fz.offsets[id] = end
				c[j] = id
				id++
			}
			for item := n - 1; item >= 0; item-- {
				idx := item*bands + b
				g := c[fz.slots[idx]]
				fz.slots[idx] = g
				if g >= 0 {
					fz.offsets[g]--
					fz.items[fz.offsets[g]] = int32(item)
				}
			}
		}
	})

	return &Index{params: p, n: n, frozen: fz, buildTime: time.Since(start)}, nil
}

// parallelBands runs fn on workers goroutines; each invocation pulls
// band indices from its private strided sequence (worker g handles
// bands g, g+workers, …) until exhaustion, so a worker can reuse
// scratch across the bands it owns. Striding, rather than handing each
// worker a contiguous range of bands (par.Ranges), kept the peak RSS of
// a 100k-item, 20-band K-Modes bootstrap on two workers about 1.5 MiB
// lower (10 paired runs on a 2-CPU host), with the same layout and set-up
// time.
func parallelBands(bands, workers int, fn func(bandSeq func() (int, bool))) {
	if workers < 2 {
		next := 0
		fn(func() (int, bool) {
			if next >= bands {
				return 0, false
			}
			b := next
			next++
			return b, true
		})
		return
	}
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			next := g
			fn(func() (int, bool) {
				if next >= bands {
					return 0, false
				}
				b := next
				next += workers
				return b, true
			})
		}(g)
	}
	wg.Wait()
}

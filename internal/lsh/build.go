package lsh

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

// Frozen index construction. The batch full-scan bootstrap knows every
// item's band keys up front (SignAll), so filing items one at a time
// into a build-phase table only to compact it afterwards is pure
// overhead. BuildFrozen constructs the frozen CSR layout straight from
// the flat key arena in two counting passes, each parallel across
// bands:
//
//  1. Per band, resolve every item's key to a local bucket slot with
//     an open-addressed key table (no sorting, no radix passes),
//     recording bucket sizes in first-occurrence key order.
//  2. Per band, turn the sizes into CSR offsets and scatter items into
//     their buckets in ascending ID order.
//
// Bands are independent: each owns a contiguous bucket-ID range and a
// contiguous region of the items array (every inserted item appears
// exactly once per band, so with m items band b's occupy [b·m,
// (b+1)·m)), which is why construction parallelises with no
// cross-band synchronisation beyond one barrier between the passes.
//
// Freeze runs the same two passes (freezeKeys) over the build phase's
// stored per-item keys, skipping IDs never inserted. Bucket IDs follow
// each key's first occurrence in ascending item order, so the frozen
// arrays depend only on which items hold which keys: inserting items
// 0…n−1 in any order and calling Freeze yields, byte for byte, what
// BuildFrozen yields from the same keys — enforced by equivalence
// tests — and every frozen-path consumer (Candidates, CandidatesBatch,
// Reverse) is oblivious to which construction ran.

// bandBuild is one band's state between the two passes: per local
// bucket, in first-occurrence key order, its item count, then reused as
// the scatter cursor.
type bandBuild struct {
	counts []int32
}

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

// BuildFrozen builds the frozen index directly from presigned band
// keys — the arena SignAll returns, keys[item·Bands+band] for items
// [0, n) — sharding the per-band work across workers goroutines. The
// index must be freshly created (no items inserted, not frozen); after
// BuildFrozen it is frozen with all n items inserted.
func (ix *Index) BuildFrozen(keys []uint64, n, workers int) error {
	if ix.frozen != nil {
		return fmt.Errorf("lsh: index is frozen")
	}
	if ix.numInserted > 0 {
		return fmt.Errorf("lsh: BuildFrozen on an index with %d items inserted", ix.numInserted)
	}
	if n < 0 {
		return fmt.Errorf("lsh: BuildFrozen with negative n %d", n)
	}
	// The frozen offsets, items and slots are int32-addressed, like the
	// build phase's arena (QueryInsert).
	if int64(n)*int64(ix.params.Bands) > math.MaxInt32 {
		return errFrozenOverflow
	}
	if len(keys) != n*ix.params.Bands {
		return fmt.Errorf("lsh: %d band keys for %d items × %d bands", len(keys), n, ix.params.Bands)
	}
	inserted := make([]bool, n)
	for i := range inserted {
		inserted[i] = true
	}
	ix.numInserted = n
	ix.freezeKeys(keys, inserted, workers)
	return nil
}

// freezeKeys builds the frozen layout from band keys — keys[item·Bands
// +band] for items [0, len(inserted)), those with inserted[item] false
// skipped — and makes it the index's only storage. It is the one
// constructor of every frozen layout: BuildFrozen passes a presigned
// arena with every item inserted, Freeze the build phase's stored keys.
// ix.numInserted must already count the inserted items.
func (ix *Index) freezeKeys(keys []uint64, inserted []bool, workers int) {
	start := time.Now()
	bands := ix.params.Bands
	n, m := len(inserted), ix.numInserted
	if workers > bands {
		workers = bands
	}
	if workers < 1 {
		workers = 1
	}

	fz := &frozenIndex{slots: make([]int32, n*bands)}
	builds := make([]bandBuild, bands)

	// Pass 1: per-band bucket-slot resolution. Bands write disjoint
	// strided entries of slots (local IDs for now, −1 for an item never
	// inserted) and disjoint builds elements; each worker lazily grows
	// one table from the same m/Bands cardinality estimate the build
	// phase sizes its tables with and reuses it across its bands.
	parallelBands(bands, workers, func(bandSeq func() (int, bool)) {
		var tbl *buildTable
		for {
			b, ok := bandSeq()
			if !ok {
				return
			}
			if tbl == nil {
				tbl = newBuildTable(m / bands)
			} else {
				tbl.reset()
			}
			var counts []int32
			for item := 0; item < n; item++ {
				if !inserted[item] {
					fz.slots[item*bands+b] = -1
					continue
				}
				key := keys[item*bands+b]
				s, added := tbl.lookupOrAdd(key, int32(len(counts)))
				if added {
					counts = append(counts, 0)
				}
				counts[s]++
				fz.slots[item*bands+b] = s
			}
			builds[b] = bandBuild{counts: counts}
		}
	})

	// Barrier: assign each band its global bucket-ID base.
	base := make([]int32, bands)
	total := 0
	for b := range builds {
		base[b] = int32(total)
		total += len(builds[b].counts)
	}
	fz.offsets = make([]int32, total+1)
	fz.items = make([]int32, m*bands)
	fz.offsets[total] = int32(m * bands)

	// Pass 2: per-band CSR fill. Each band writes its own offsets
	// entries, its own items region [b·m, (b+1)·m) and its own strided
	// slots entries (now global bucket IDs), so bands remain
	// write-disjoint.
	parallelBands(bands, workers, func(bandSeq func() (int, bool)) {
		for {
			b, ok := bandSeq()
			if !ok {
				return
			}
			bb := &builds[b]
			off := int32(b * m)
			for j, c := range bb.counts {
				fz.offsets[int(base[b])+j] = off
				bb.counts[j] = off // becomes the scatter cursor
				off += c
			}
			gb := base[b]
			for item := 0; item < n; item++ {
				idx := item*bands + b
				s := fz.slots[idx]
				if s < 0 {
					continue
				}
				fz.items[bb.counts[s]] = int32(item)
				bb.counts[s]++
				fz.slots[idx] = gb + s
			}
		}
	})

	ix.inserted = inserted
	ix.frozen = fz
	ix.runs = nil
	ix.arena = nil
	ix.keys = nil
	ix.buildTime = time.Since(start)
}

// parallelBands runs fn on workers goroutines; each invocation pulls
// band indices from its private strided sequence (worker g handles
// bands g, g+workers, …) until exhaustion, so a worker can reuse
// scratch across the bands it owns.
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

package lsh

// Cluster summaries: the paper's Algorithm 2 keeps "the cluster
// reference in the MinHash index". Buckets store item IDs, and a
// shortlist query maps every member through the caller's assignment and
// deduplicates, yet a long bucket's members fall into few clusters (on
// the SimHash K-Means benchmark an item's buckets hold about 1,350
// entries in about 20 distinct clusters). So every frozen bucket of at
// least SummaryMinLen items also keeps its members' distinct clusters
// in first-appearance order, under a view of the assignment the caller
// supplies (SummarizeClusters). A block sweep hands each whole long
// bucket's summary handle to its consumer (CandidatesBatch), which
// reads the summary instead of the members. Folding a summary through a
// shortlist's deduplication yields exactly what folding the bucket's
// members would: the clusters the bucket contributes, new ones in the
// order the members first reach them.
//
// A summary goes stale when a member's cluster changes. The caller
// reports the items whose cluster it wrote (Resummarize), and every
// long bucket holding any of them is recomputed once from the view. A
// recompute reads exactly the entries the mover's own shortlist query
// read, so upkeep never costs more than the queries that found the
// moves.
//
// Summaries live on the heap beside the frozen layout and are never
// persisted: they describe an assignment, not the index. Short buckets
// keep no summary and are walked member by member. (The stream's
// BandTable files clusters, not items, so its buckets are summaries
// already.)

import "math/bits"

// SummaryMinLen is the shortest bucket that keeps a cluster summary:
// 16 int32 item IDs fill one 64-byte cache line. A walk of a shorter
// bucket reads no more lines than its summary would, and most buckets
// of a selective banding are short: summarising every bucket of the
// 100k-item K-Modes benchmark's index added memory and build time and
// saved nothing.
const SummaryMinLen = 16

// clusterSummaries is an index's summary store. table maps a long
// bucket's slot to its summary ID, and slots maps the ID back. Summary
// id's region, arena[start[id] : start[id+1]], has room for one cluster
// per bucket member, which bounds its distinct clusters, so the store
// is sized by the summarised entries and a recompute never moves a
// summary.
type clusterSummaries struct {
	table summaryTable
	slots []int32
	start []int
	count []int32
	arena []int32
	// stamps/epoch deduplicate a recompute: stamps[c] == epoch once
	// cluster c is in the summary being written.
	stamps []uint32
	epoch  uint32
	// stale flags the summaries a Resummarize has queued, listed in
	// queue, so each is recomputed once however many movers it holds.
	stale []bool
	queue []int32
}

// summaryTable maps a long bucket's slot to its summary ID: linear
// probing over cells at most half full, keyed by slot+1 so the zero
// cell is empty, indexed by Fibonacci hashing. The long buckets are few
// (4,697 of the K-Modes benchmark's 45,037 stored buckets), so the
// table stays
// cache-resident where per-bucket arrays would not.
type summaryTable struct {
	cells []summaryCell
	shift uint
}

type summaryCell struct{ key, id int32 }

// newSummaryTable files slots[j] under summary ID j.
func newSummaryTable(slots []int32) summaryTable {
	if len(slots) == 0 {
		return summaryTable{}
	}
	size := 2
	for size < 2*len(slots) {
		size *= 2
	}
	t := summaryTable{cells: make([]summaryCell, size), shift: uint(32 - bits.TrailingZeros(uint(size)))}
	mask := size - 1
	for j, slot := range slots {
		i := t.home(slot)
		for t.cells[i].key != 0 {
			i = (i + 1) & mask
		}
		t.cells[i] = summaryCell{key: slot + 1, id: int32(j)}
	}
	return t
}

func (t *summaryTable) home(slot int32) int {
	return int((uint32(slot) * 0x9e3779b1) >> t.shift)
}

// get returns the summary ID of bucket slot, or -1 when the bucket
// keeps none.
//
//lshvet:noescape
func (t *summaryTable) get(slot int32) int32 {
	if len(t.cells) == 0 {
		return -1
	}
	mask := len(t.cells) - 1
	for i := t.home(slot); ; i = (i + 1) & mask {
		c := t.cells[i]
		if c.key == slot+1 {
			return c.id
		}
		if c.key == 0 {
			return -1
		}
	}
}

// summaryOf returns the summary handle of frozen bucket slot, which
// holds n items: -1 for a short bucket or one without a summary.
//
//lshvet:noescape
func (ix *Index) summaryOf(slot int32, n int) int32 {
	if n < SummaryMinLen || ix.sums == nil {
		return -1
	}
	return ix.sums.table.get(slot)
}

// longBuckets appends the slots of every bucket of at least
// SummaryMinLen items to dst.
func longBuckets(offsets []int32, dst []int32) []int32 {
	for s := 0; s+1 < len(offsets); s++ {
		if offsets[s+1]-offsets[s] >= SummaryMinLen {
			dst = append(dst, int32(s))
		}
	}
	return dst
}

// SummarizeClusters (re)builds the cluster summary of every frozen
// bucket of at least SummaryMinLen items from view, which maps item IDs
// to clusters (entries < 0 are unassigned and skipped). From then on
// every write to view must be reported through Resummarize before the
// next block sweep reads a summary. A no-op on an unfrozen index; it
// must not run concurrently with queries.
func (ix *Index) SummarizeClusters(view []int32) {
	ix.sums = nil
	fz := ix.frozen
	if fz == nil {
		return
	}
	long := longBuckets(fz.offsets, nil)
	cs := &clusterSummaries{
		table: newSummaryTable(long),
		slots: long,
		start: make([]int, len(long)+1),
		count: make([]int32, len(long)),
		stale: make([]bool, len(long)),
	}
	for id, slot := range long {
		cs.start[id+1] = cs.start[id] + int(fz.offsets[slot+1]-fz.offsets[slot])
	}
	cs.arena = make([]int32, cs.start[len(long)])
	for id := range long {
		cs.compute(int32(id), ix.summaryBucket(cs, int32(id)), view)
	}
	ix.sums = cs
}

// summaryBucket returns the members of summary id's bucket.
//
//lshvet:noescape
func (ix *Index) summaryBucket(cs *clusterSummaries, id int32) []int32 {
	fz := ix.frozen
	slot := cs.slots[id]
	return fz.items[fz.offsets[slot]:fz.offsets[slot+1]]
}

// Resummarize recomputes from view, once each, the summary of every
// long bucket holding any of items, after writes to those items'
// clusters in view, and returns how many summaries it recomputed. A
// no-op without summaries; it must not run concurrently with queries.
//
//lshvet:noescape
func (ix *Index) Resummarize(items []int32, view []int32) int {
	cs := ix.sums
	if cs == nil || len(cs.slots) == 0 {
		return 0
	}
	bands := ix.params.Bands
	queue := cs.queue[:0]
	for _, item := range items {
		if !ix.isInserted(item) {
			continue
		}
		for _, slot := range ix.frozen.slots[int(item)*bands:][:bands] {
			// −1: item alone in the band. The table's key for it would
			// be 0, its empty-cell marker, so it must not be looked up.
			if slot < 0 {
				continue
			}
			if id := cs.table.get(slot); id >= 0 && !cs.stale[id] {
				cs.stale[id] = true
				queue = append(queue, id)
			}
		}
	}
	for _, id := range queue {
		cs.stale[id] = false
		cs.compute(id, ix.summaryBucket(cs, id), view)
	}
	cs.queue = queue
	return len(queue)
}

// Summary returns the clusters summary h holds, in first-appearance
// order: the handle CandidatesBatch passed with a long bucket. The
// slice aliases the store and changes with the next Resummarize of
// that bucket.
//
//lshvet:noescape
func (ix *Index) Summary(h int32) []int32 { return ix.sums.list(h) }

//lshvet:noescape
func (cs *clusterSummaries) list(id int32) []int32 {
	lo := cs.start[id]
	return cs.arena[lo : lo+int(cs.count[id])]
}

// compute rewrites summary id from bucket's members under view.
//
//lshvet:noescape
func (cs *clusterSummaries) compute(id int32, bucket, view []int32) {
	if cs.epoch++; cs.epoch == 0 {
		clear(cs.stamps)
		cs.epoch = 1
	}
	lo, hi := cs.start[id], cs.start[id+1]
	out := cs.arena[lo:hi:hi][:0]
	for _, it := range bucket {
		c := view[it]
		if c < 0 {
			continue
		}
		if int(c) >= len(cs.stamps) {
			cs.growStamps(int(c))
		}
		if cs.stamps[c] != cs.epoch {
			cs.stamps[c] = cs.epoch
			out = append(out, c)
		}
	}
	cs.count[id] = int32(len(out))
}

// growStamps makes room for cluster c's stamp. Kept out of line, so
// the allocation stays out of compute's escape-checked body.
//
//go:noinline
func (cs *clusterSummaries) growStamps(c int) {
	cs.stamps = append(cs.stamps, make([]uint32, c+1-len(cs.stamps))...)
}

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
// bucket's summary handle to its consumer (Query.CandidatesBatch), which
// reads the summary instead of the members. Folding a summary through a
// shortlist's deduplication yields exactly what folding the bucket's
// members would: the clusters the bucket contributes, new ones in the
// order the members first reach them.
//
// A summary goes stale when a member's cluster changes. The caller
// reports every such write (Resummarize), and each of the item's long
// buckets in its owner shard is recomputed from the view. That reads
// exactly the entries the mover's own shortlist query read, so upkeep
// never costs more than the query that found the move.
//
// Summaries live on the heap beside the frozen layout and are never
// persisted: they describe an assignment, not the index. Short buckets,
// the build phase's buckets and the partial runs of a reordered
// cross-shard merge keep no summary and are walked member by member.

import "math/bits"

// SummaryMinLen is the shortest bucket that keeps a cluster summary:
// 16 int32 item IDs fill one 64-byte cache line. A walk of a shorter
// bucket reads no more lines than its summary would, and most buckets
// of a selective banding are singletons: summarising every bucket of
// the 100k-item K-Modes benchmark's 1.78M added memory and build time
// and saved nothing.
const SummaryMinLen = 16

// clusterSummaries is a Sharded index's summary store. Summary IDs are
// global across shards; each shard's summaryTable maps its long
// buckets' slots to them. Summary id's region, arena[start[id] :
// start[id+1]], has room for one cluster per bucket member, which
// bounds its distinct clusters, so the store is sized by the summarised
// entries and a recompute never moves a summary.
type clusterSummaries struct {
	start []int
	count []int32
	arena []int32
	// stamps/epoch deduplicate a recompute: stamps[c] == epoch once
	// cluster c is in the summary being written.
	stamps []uint32
	epoch  uint32
}

// summaryTable is one shard's map from a long bucket's slot to its
// summary ID: linear probing over cells at most half full, keyed by
// slot+1 so the zero cell is empty, indexed by Fibonacci hashing. The
// long buckets are few (4,697 of the K-Modes benchmark's 1.78M), so
// the table stays cache-resident where per-bucket arrays would not.
type summaryTable struct {
	cells []summaryCell
	shift uint
}

type summaryCell struct{ key, id int32 }

// newSummaryTable files slots[j] under summary ID first+j.
func newSummaryTable(slots []int32, first int32) summaryTable {
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
		t.cells[i] = summaryCell{key: slot + 1, id: first + int32(j)}
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
	if n < SummaryMinLen {
		return -1
	}
	return ix.sums.get(slot)
}

// longBuckets appends the slots of every bucket of at least
// SummaryMinLen items to dst. Every frozen bucket holds an item, so w
// consecutive buckets that hold fewer than w+SummaryMinLen−1 items
// include no long one, and one comparison skips the window: on a
// selective banding nearly every window. (A crafted file's empty
// bucket can hide a long one; that bucket is then walked, never
// misread.)
func longBuckets(offsets []int32, dst []int32) []int32 {
	const w = 64
	n := len(offsets) - 1
	for s := 0; s < n; {
		if s+w <= n && offsets[s+w]-offsets[s] < w+SummaryMinLen-1 {
			s += w
			continue
		}
		for end := min(s+w, n); s < end; s++ {
			if offsets[s+1]-offsets[s] >= SummaryMinLen {
				dst = append(dst, int32(s))
			}
		}
	}
	return dst
}

// SummarizeClusters (re)builds the cluster summary of every frozen
// bucket of at least SummaryMinLen items from view, which maps the IDs
// buckets hold to clusters (internal IDs on a reordered index; entries
// < 0 are unassigned and skipped). From then on every write to view
// must be reported through Resummarize before the next block sweep
// reads a summary. A no-op unless every shard is frozen; it must not
// run concurrently with queries.
func (sh *Sharded) SummarizeClusters(view []int32) {
	sh.sums = nil
	for _, ix := range sh.shards {
		ix.sums = summaryTable{}
	}
	if !sh.Frozen() {
		return
	}
	cs := &clusterSummaries{start: []int{0}}
	long := make([][]int32, len(sh.shards))
	for s, ix := range sh.shards {
		fz := ix.frozen
		long[s] = longBuckets(fz.offsets, nil)
		ix.sums = newSummaryTable(long[s], int32(len(cs.start)-1))
		for _, slot := range long[s] {
			cs.start = append(cs.start, cs.start[len(cs.start)-1]+int(fz.offsets[slot+1]-fz.offsets[slot]))
		}
	}
	cs.count = make([]int32, len(cs.start)-1)
	cs.arena = make([]int32, cs.start[len(cs.start)-1])
	id := int32(0)
	for s, ix := range sh.shards {
		fz := ix.frozen
		for _, slot := range long[s] {
			cs.compute(id, fz.items[fz.offsets[slot]:fz.offsets[slot+1]], view)
			id++
		}
	}
	sh.sums = cs
}

// Resummarize recomputes from view the summary of each long bucket the
// original item occupies in its owner shard, after a write to the
// item's cluster in view. A no-op without summaries; it must not run
// concurrently with queries.
//
//lshvet:noescape
func (sh *Sharded) Resummarize(item int32, view []int32) {
	cs := sh.sums
	if cs == nil {
		return
	}
	if perm := sh.perm; perm != nil {
		if item < 0 || int(item) >= len(perm) {
			return
		}
		item = perm[item]
	}
	s, local, ok := sh.part.locate(item)
	if !ok {
		return
	}
	ix := sh.shards[s]
	if len(ix.sums.cells) == 0 || !ix.isInserted(local) {
		return
	}
	fz := ix.frozen
	bands := sh.params.Bands
	for _, slot := range fz.slots[int(local)*bands:][:bands] {
		if id := ix.sums.get(slot); id >= 0 {
			cs.compute(id, fz.items[fz.offsets[slot]:fz.offsets[slot+1]], view)
		}
	}
}

// Summary returns the clusters summary h holds, in first-appearance
// order: the handle a block sweep passed with a whole long bucket. The
// slice aliases the store and changes with the next Resummarize of
// that bucket.
//
//lshvet:noescape
func (q *Query) Summary(h int32) []int32 { return q.sh.sums.list(h) }

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

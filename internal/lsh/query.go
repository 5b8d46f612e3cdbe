package lsh

import (
	"errors"
	"slices"
	"time"
)

// Query is the per-caller planner over a Sharded index. It plans each
// candidate sweep as shard-local sub-queries — the owning shard
// resolves the query item's bucket, the other shards are probed for
// the matching bucket unless the foreign-emptiness bitmap rules every
// match out (foreign.go) — and merges the shard-local shortlists back
// into the exact candidate stream the unsharded index would emit.
// Shard buckets hold ascending global IDs from disjoint contiguous
// ranges, so per band the concatenation in ascending shard order IS
// the ascending-ID merge (on a reordered index, a merge by original ID;
// see reorder.go). A consumer therefore observes exactly the sequence
// the single-index Candidates/CandidatesBatch calls would deliver — the
// property the full-run shard-invariance tests pin, since the driver's
// tie-breaking depends on enumeration order.
//
// With more than one shard, every shard must be frozen (BuildFrozen,
// Freeze or OpenSharded) before the first query: the fan-out reads the
// frozen slots and the foreign-emptiness bitmap, and a query on
// unfrozen shards panics. With a single shard every method delegates
// straight to the underlying Index, on either layout.
//
// A Query owns private scratch (block buffers, merge heads): a single
// Query must not be used concurrently, but distinct Queries over one
// Sharded index may be — the driver creates one per pass worker.
type Query struct {
	sh *Sharded
	// owners/locals/slotBuf are the per-position scratch of the batched
	// block sweep.
	owners  []int32
	locals  []int32
	slotBuf []int32
	// order is the frozen block sweep's position schedule: valid block
	// positions, sorted by internal ID on a reordered index so the
	// sweep walks the permuted arena sequentially
	// (candidatesBatchFrozen).
	order []int32
	// heads is the cross-shard merge cursor scratch.
	heads []mergeHead
	// pendingNanos/pendingCalls batch per-item merge-time samples
	// locally so the per-item query path pays the shared atomic once per
	// flush, not per query.
	pendingNanos int64
	pendingCalls int
	// pendingProbe/pendingDirect batch the fan-out path counters
	// (cross-shard bucket resolutions by key probe vs answered by the
	// foreign-emptiness bitmap) under the same flush cadence.
	pendingProbe  int64
	pendingDirect int64
	// pendingLocal/pendingForeign batch the shard-locality candidate
	// counters (owner-shard vs foreign-shard shortlist candidates, the
	// shard_local_frac report) under the same flush cadence.
	pendingLocal   int64
	pendingForeign int64
}

// mergeHead is one shard's bucket in a cross-shard merge: its
// cluster-summary handle (-1 when it keeps none) and the merge cursor.
type mergeHead struct {
	bucket []int32
	sum    int32
	next   int
}

// NewQuery returns a planner with private scratch.
func (sh *Sharded) NewQuery() *Query {
	return &Query{sh: sh}
}

// addMergeNanos accrues one per-item query's cross-shard sweep time,
// flushing to the shared atomic in batches of mergeFlushEvery. Up to
// mergeFlushEvery−1 samples may still be pending when MergeTime is
// read — a bounded undercount, irrelevant at reporting granularity,
// in exchange for keeping the shared cache line out of the per-query
// path. Block sweeps bypass this and flush directly, once per block.
func (q *Query) addMergeNanos(n int64) {
	q.pendingNanos += n
	if q.pendingCalls++; q.pendingCalls >= mergeFlushEvery {
		sh := q.sh
		sh.mergeNanos.Add(q.pendingNanos)
		if q.pendingProbe > 0 {
			sh.probeOps.Add(q.pendingProbe)
		}
		if q.pendingDirect > 0 {
			sh.directOps.Add(q.pendingDirect)
		}
		if q.pendingLocal > 0 {
			sh.localCands.Add(q.pendingLocal)
		}
		if q.pendingForeign > 0 {
			sh.foreignCands.Add(q.pendingForeign)
		}
		q.pendingNanos, q.pendingCalls = 0, 0
		q.pendingProbe, q.pendingDirect = 0, 0
		q.pendingLocal, q.pendingForeign = 0, 0
	}
}

const mergeFlushEvery = 64

// Candidates invokes fn for every item sharing at least one band
// bucket with the previously inserted global item, with Index.
// Candidates' duplication semantics and enumeration order. On a
// reordered index the emitted candidates are internal IDs in
// ascending-original order (see reorder.go). With more than one shard
// it panics unless every shard is frozen.
//
// Each band resolves the owner's bucket through its freeze-time slot
// and reaches the other shards by key probe only when the slot's
// foreign-emptiness bit is clear (foreign.go).
//
//lshvet:noescape
func (q *Query) Candidates(item int32, fn func(other int32)) {
	sh := q.sh
	if perm := sh.perm; perm != nil {
		if item < 0 || int(item) >= len(perm) {
			return
		}
		item = perm[item]
	}
	if sh.single != nil {
		sh.single.Candidates(item, fn)
		return
	}
	sh.mustBeFrozen()
	start := time.Now()
	s, local, ok := sh.part.locate(item)
	if !ok || !sh.shards[s].isInserted(local) {
		return
	}
	sh.touchShard(s)
	bands := sh.params.Bands
	own := sh.shards[s].frozen
	base := int(local) * bands
	probed := int64(0)
	for b := 0; b < bands; b++ {
		slot := own.slots[base+b]
		ownerBucket := own.items[own.offsets[slot]:own.offsets[slot+1]]
		q.pendingLocal += int64(len(ownerBucket))
		if sh.foreignEmptyAt(s, slot) {
			for _, g := range ownerBucket {
				fn(g)
			}
			continue
		}
		probed++
		q.pendingForeign += q.gatherHeads(s, slot, b, ownerBucket)
		q.drainHeads(fn)
	}
	cross := int64(len(sh.shards) - 1)
	q.pendingProbe += probed * cross
	q.pendingDirect += (int64(bands) - probed) * cross
	q.addMergeNanos(time.Since(start).Nanoseconds())
}

// errUnfrozenQuery is the panic value of a multi-shard query on
// unfrozen shards. Panicking with a package-level value keeps the
// annotated query paths free of the escape diagnostic (a string
// converted to an interface "escapes") that allocheck fails on.
var errUnfrozenQuery = errors.New("lsh: multi-shard query on unfrozen shards (call BuildFrozen or Freeze first)")

// mustBeFrozen panics unless the multi-shard fan-out's precondition
// holds: every shard frozen, so the foreign-emptiness bitmap exists.
func (sh *Sharded) mustBeFrozen() {
	if sh.foreignEmpty == nil {
		panic(errUnfrozenQuery)
	}
}

// gatherHeads loads q.heads with band b's buckets matching owner shard
// s's bucket slot, in ascending shard order: the owner's through its
// slot, every other shard's by key probe (empty results skipped), each
// with its cluster-summary handle. It returns how many foreign items
// were gathered.
//
//lshvet:noescape
func (q *Query) gatherHeads(s int, slot int32, b int, ownerBucket []int32) int64 {
	owner := q.sh.shards[s]
	key := owner.frozen.keys[slot]
	q.heads = q.heads[:0]
	var foreign int64
	for t, ix := range q.sh.shards {
		if t == s {
			q.heads = append(q.heads, mergeHead{bucket: ownerBucket, sum: owner.summaryOf(slot, len(ownerBucket))})
			continue
		}
		if bucket, other := ix.lookupBucket(b, key); len(bucket) > 0 {
			q.heads = append(q.heads, mergeHead{bucket: bucket, sum: ix.summaryOf(other, len(bucket))})
			foreign += int64(len(bucket))
		}
	}
	return foreign
}

// drainHeads emits the gathered q.heads in ascending original ID order
// and empties them: by inv on a reordered index (emitByInv), by
// concatenation otherwise — range shards hold disjoint ascending ID
// ranges and the heads were gathered in shard order, so concatenation
// is the ascending merge.
func (q *Query) drainHeads(fn func(other int32)) {
	if q.sh.inv != nil {
		q.emitByInv(fn)
		return
	}
	for _, h := range q.heads {
		for _, g := range h.bucket {
			fn(g)
		}
	}
	q.heads = q.heads[:0]
}

// drainHeadRuns is drainHeads for block sweeps: whole buckets with
// their summary handles, or on a reordered index maximal single-shard
// runs (emitRunsByInv), handed to fn with the block position.
func (q *Query) drainHeadRuns(pos int, fn func(pos int, bucket []int32, sum int32)) {
	if q.sh.inv != nil {
		q.emitRunsByInv(pos, fn)
		return
	}
	for _, h := range q.heads {
		fn(pos, h.bucket, h.sum)
	}
	q.heads = q.heads[:0]
}

// CandidatesBatch invokes fn with each position's buckets in exactly
// the per-position sequence Candidates would deliver, band-major
// across the block so the sweep stays inside one band's contiguous
// region of each shard at a time (see Index.CandidatesBatch for why
// that order amortises cache misses). Each (item, band, shard) bucket
// arrives whole, shard-ascending within the band (or, reordered, as
// runs of the ascending-original merge). sum is the delivered slice's
// cluster-summary handle (Summary): set only when the slice is a whole
// bucket that keeps a summary, -1 otherwise. Bucket slices alias index
// storage and must not be modified; they stay valid until the next
// call on the same Query, so a caller may record them during the sweep
// and read them afterwards. With more than one shard it panics unless
// every shard is frozen.
func (q *Query) CandidatesBatch(items []int32, fn func(pos int, bucket []int32, sum int32)) {
	sh := q.sh
	switch {
	case sh.single != nil && sh.perm != nil:
		q.singleBatchReordered(items, fn)
	case sh.single != nil:
		sh.single.CandidatesBatch(items, fn)
	default:
		sh.mustBeFrozen()
		q.candidatesBatchFrozen(items, fn)
	}
}

// blockScratch sizes the per-position scratch of a block sweep.
func (q *Query) blockScratch(n int) {
	if cap(q.owners) < n {
		q.owners = make([]int32, n)
		q.locals = make([]int32, n)
		q.slotBuf = make([]int32, n)
		q.order = make([]int32, 0, n)
	}
}

// singleBatchReordered is the block sweep of a single reordered shard:
// the block is scheduled by ascending internal ID (see
// candidatesBatchFrozen), translated and delegated — the one shard's
// buckets are already in ascending-original order — with the
// callback's position remapped back through the schedule.
func (q *Query) singleBatchReordered(items []int32, fn func(pos int, bucket []int32, sum int32)) {
	perm := q.sh.perm
	q.blockScratch(len(items))
	order := q.scheduleBlock(items, perm)
	tmp := q.locals[:len(order)]
	for j, pos := range order {
		tmp[j] = perm[items[pos]]
	}
	q.sh.single.CandidatesBatch(tmp, func(j int, bucket []int32, sum int32) {
		fn(int(order[j]), bucket, sum)
	})
}

// scheduleBlock returns the block positions whose items are inside the
// permutation, sorted by internal ID (q.order's storage).
func (q *Query) scheduleBlock(items, perm []int32) []int32 {
	order := q.order[:0]
	for pos, it := range items {
		if it >= 0 && int(it) < len(perm) {
			order = append(order, int32(pos))
		}
	}
	slices.SortFunc(order, func(a, b int32) int {
		return int(perm[items[a]]) - int(perm[items[b]])
	})
	q.order = order
	return order
}

// candidatesBatchFrozen is the multi-shard block sweep (S>1, every
// shard frozen, so the foreign-emptiness bitmap exists). Items are
// original IDs. A reordered index translates them and schedules the
// positions by ascending internal ID (q.order): the core cuts blocks
// in original-ID order, which the permutation scatters across the
// arena, and the schedule makes slot-row and bucket reads walk the
// permuted arena forward — the sequential access an unreordered block
// gets for free. Per band, each position emits its owner bucket alone
// when the slot's foreign-emptiness bit is set (after reordering, the
// overwhelming case: one bit read instead of S−1 probes), and
// otherwise every shard's matching bucket merged in ascending original
// order. Each position's candidate stream is therefore exactly the
// per-item Candidates sequence; only the cross-position interleaving,
// which block gatherers never observe, differs.
func (q *Query) candidatesBatchFrozen(items []int32, fn func(pos int, bucket []int32, sum int32)) {
	sh := q.sh
	start := time.Now()
	n := len(items)
	q.blockScratch(n)
	owners, locals, slotBuf := q.owners[:n], q.locals[:n], q.slotBuf[:n]
	var order []int32
	if perm := sh.perm; perm != nil {
		order = q.scheduleBlock(items, perm)
		for _, pos := range order {
			s, local, _ := sh.part.locate(perm[items[pos]])
			owners[pos], locals[pos] = int32(s), local
		}
	} else {
		order = q.order[:0]
		for pos, item := range items {
			if s, local, ok := sh.part.locate(item); ok && sh.shards[s].isInserted(local) {
				owners[pos], locals[pos] = int32(s), local
				order = append(order, int32(pos))
			}
		}
		q.order = order
	}
	sh.touchRuns(order, owners)
	bands := sh.params.Bands
	var localC, foreignC, probed int64
	for b := 0; b < bands; b++ {
		// The schedule groups positions by owning shard, so the slots
		// pointer hoists per run.
		for i := 0; i < len(order); {
			o := owners[order[i]]
			slots := sh.shards[o].frozen.slots
			for ; i < len(order) && owners[order[i]] == o; i++ {
				pos := order[i]
				slotBuf[pos] = slots[int(locals[pos])*bands+b]
			}
		}
		for _, pos32 := range order {
			pos := int(pos32)
			o := int(owners[pos])
			slot := slotBuf[pos]
			own := sh.shards[o].frozen
			ownerBucket := own.items[own.offsets[slot]:own.offsets[slot+1]]
			localC += int64(len(ownerBucket))
			if sh.foreignEmptyAt(o, slot) {
				fn(pos, ownerBucket, sh.shards[o].summaryOf(slot, len(ownerBucket)))
				continue
			}
			probed++
			foreignC += q.gatherHeads(o, slot, b, ownerBucket)
			q.drainHeadRuns(pos, fn)
		}
	}
	cross := int64(len(sh.shards) - 1)
	sh.probeOps.Add(probed * cross)
	sh.directOps.Add((int64(len(order))*int64(bands) - probed) * cross)
	sh.localCands.Add(localC)
	sh.foreignCands.Add(foreignC)
	sh.mergeNanos.Add(time.Since(start).Nanoseconds())
}

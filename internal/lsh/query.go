package lsh

import (
	"slices"
	"time"
)

// Query is the per-caller planner over a Sharded index. It plans each
// candidate sweep as shard-local sub-queries — the owning shard
// resolves the query item's bucket, the other shards are probed for
// the matching bucket unless the foreign-emptiness bitmap rules every
// match out (foreign.go) — and merges the shard-local shortlists back
// into the exact candidate stream the unsharded index would emit:
//
//   - Range partition: per band, buckets are concatenated in ascending
//     shard order. Shard buckets hold ascending global IDs from
//     disjoint contiguous ranges, so the concatenation IS the
//     ascending-ID merge — order-preserving at zero comparison cost.
//
//   - Stride partition: per band, an S-way ascending merge interleaves
//     the shard buckets back into global-ID order.
//
// Either way a consumer observes exactly the sequence the single-index
// Candidates/CandidatesBatch/CandidatesOfSignature calls would
// deliver — the property the full-run shard-invariance tests pin,
// since the driver's tie-breaking depends on enumeration order.
//
// A Query owns private scratch (block key buffers, merge heads): a
// single Query must not be used concurrently, but distinct Queries
// over one Sharded index may be — the driver creates one per pass
// worker. With a single shard every method delegates straight to the
// underlying Index.
type Query struct {
	sh *Sharded
	// owners/locals/keyBuf/slotBuf are the per-position scratch of the
	// batched block sweep.
	owners  []int32
	locals  []int32
	keyBuf  []uint64
	slotBuf []int32
	// order is the frozen block sweep's position schedule: valid block
	// positions, sorted by internal ID on a reordered index so the
	// sweep walks the permuted arena sequentially
	// (candidatesBatchFrozen).
	order []int32
	// sigKeys holds the band keys of an out-of-index query signature.
	sigKeys []uint64
	// heads is the stride-merge cursor scratch.
	heads []mergeHead
	// pendingNanos/pendingCalls batch per-item merge-time samples
	// locally so the hottest per-item paths (seeded interleave,
	// streaming) pay the shared atomic once per flush, not per query.
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

type mergeHead struct {
	bucket []int32
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
// ascending-original order (see reorder.go).
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
	start := time.Now()
	s, local, ok := sh.part.locate(item)
	if !ok || !sh.shards[s].isInserted(local) {
		return
	}
	sh.touchShard(s)
	bands := sh.params.Bands
	cross := int64(len(sh.shards) - 1)
	if sh.foreignEmpty != nil {
		// Frozen range fan-out (foreign.go): each band resolves the
		// owner's bucket through its freeze-time slot and reaches the
		// other shards by key probe only when the slot's
		// foreign-emptiness bit is clear.
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
		q.pendingProbe += probed * cross
		q.pendingDirect += (int64(bands) - probed) * cross
		q.addMergeNanos(time.Since(start).Nanoseconds())
		return
	}
	own := sh.shards[s]
	for b := 0; b < bands; b++ {
		q.fanOutBand(b, own.itemBandKey(local, b), fn)
	}
	q.pendingProbe += int64(bands) * cross
	q.addMergeNanos(time.Since(start).Nanoseconds())
}

// gatherHeads loads q.heads with band b's buckets matching owner shard
// s's bucket slot, in ascending shard order: the owner's through its
// slot, every other shard's by key probe (empty results skipped). It
// returns how many foreign items were gathered.
//
//lshvet:noescape
func (q *Query) gatherHeads(s int, slot int32, b int, ownerBucket []int32) int64 {
	key := q.sh.shards[s].frozen.keys[slot]
	q.heads = q.heads[:0]
	var foreign int64
	for t, ix := range q.sh.shards {
		if t == s {
			q.heads = append(q.heads, mergeHead{bucket: ownerBucket})
			continue
		}
		if bucket := ix.lookupBucket(b, key); len(bucket) > 0 {
			q.heads = append(q.heads, mergeHead{bucket: bucket})
			foreign += int64(len(bucket))
		}
	}
	return foreign
}

// drainHeads emits the gathered q.heads in ascending original ID order
// and empties them: by inv on a reordered index (mergeEmitByInv), by
// concatenation otherwise — range shards hold disjoint ascending ID
// ranges and the heads were gathered in shard order, so concatenation
// is the ascending merge.
func (q *Query) drainHeads(fn func(other int32)) {
	if q.sh.inv != nil {
		q.mergeEmitByInv(fn)
		return
	}
	for _, h := range q.heads {
		for _, g := range h.bucket {
			fn(g)
		}
	}
	q.heads = q.heads[:0]
}

// drainHeadRuns is drainHeads for block sweeps: whole buckets, or on a
// reordered index maximal single-shard runs (mergeRunsByInv), handed
// to fn with the block position.
func (q *Query) drainHeadRuns(pos int, fn func(pos int, bucket []int32)) {
	if q.sh.inv != nil {
		q.mergeRunsByInv(pos, fn)
		return
	}
	for _, h := range q.heads {
		fn(pos, h.bucket)
	}
	q.heads = q.heads[:0]
}

// fanOutBand emits one band's colliding items across all shards in
// ascending global-ID order: concatenation for range shards, an S-way
// merge for stride shards.
//
//lshvet:noescape
func (q *Query) fanOutBand(b int, key uint64, fn func(other int32)) {
	sh := q.sh
	if !sh.part.stride {
		for _, ix := range sh.shards {
			for _, g := range ix.lookupBucket(b, key) {
				fn(g)
			}
		}
		return
	}
	q.heads = q.heads[:0]
	for _, ix := range sh.shards {
		if bucket := ix.lookupBucket(b, key); len(bucket) > 0 {
			q.heads = append(q.heads, mergeHead{bucket: bucket})
		}
	}
	q.mergeEmit(fn)
}

// mergeEmit drains q.heads in ascending global-ID order. Every bucket
// is strictly ascending (items insert in ascending global order within
// a shard) and shards hold disjoint IDs, so a repeated min-head scan —
// S is small — reproduces the unsharded bucket exactly.
//
//lshvet:noescape
func (q *Query) mergeEmit(fn func(other int32)) {
	for len(q.heads) > 0 {
		minAt := 0
		for h := 1; h < len(q.heads); h++ {
			if q.heads[h].bucket[q.heads[h].next] < q.heads[minAt].bucket[q.heads[minAt].next] {
				minAt = h
			}
		}
		head := &q.heads[minAt]
		fn(head.bucket[head.next])
		head.next++
		if head.next == len(head.bucket) {
			last := len(q.heads) - 1
			q.heads[minAt] = q.heads[last]
			q.heads = q.heads[:last]
		}
	}
}

// CandidatesBatch invokes fn with each position's buckets in exactly
// the per-position sequence Candidates would deliver, band-major
// across the block so the sweep stays inside one band's contiguous
// region of each shard at a time (see Index.CandidatesBatch for why
// that order amortises cache misses). On range partitions each
// (item, band, shard) bucket arrives whole, shard-ascending within the
// band (or, reordered, as runs of the ascending-original merge); on
// stride partitions, whose shard buckets interleave in ID space, each
// (item, band) emission is the S-way ascending merge delivered as
// maximal single-shard runs. Bucket slices alias index storage and
// must not be modified; they stay valid until the next call on the
// same Query, so a caller may record them during the sweep and read
// them afterwards.
func (q *Query) CandidatesBatch(items []int32, fn func(pos int, bucket []int32)) {
	sh := q.sh
	switch {
	case sh.single != nil && sh.perm != nil:
		q.singleBatchReordered(items, fn)
	case sh.single != nil:
		sh.single.CandidatesBatch(items, fn)
	case sh.foreignEmpty != nil:
		q.candidatesBatchFrozen(items, fn)
	default:
		q.candidatesBatchKeys(items, fn)
	}
}

// blockScratch sizes the per-position scratch of a block sweep.
func (q *Query) blockScratch(n int) {
	if cap(q.owners) < n {
		q.owners = make([]int32, n)
		q.locals = make([]int32, n)
		q.keyBuf = make([]uint64, n)
		q.slotBuf = make([]int32, n)
		q.order = make([]int32, 0, n)
	}
}

// singleBatchReordered is the block sweep of a single reordered shard:
// the block is scheduled by ascending internal ID (see
// candidatesBatchFrozen), translated and delegated — the one shard's
// buckets are already in ascending-original order — with the
// callback's position remapped back through the schedule.
func (q *Query) singleBatchReordered(items []int32, fn func(pos int, bucket []int32)) {
	perm := q.sh.perm
	q.blockScratch(len(items))
	order := q.scheduleBlock(items, perm)
	tmp := q.locals[:len(order)]
	for j, pos := range order {
		tmp[j] = perm[items[pos]]
	}
	q.sh.single.CandidatesBatch(tmp, func(j int, bucket []int32) {
		fn(int(order[j]), bucket)
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

// candidatesBatchFrozen is the frozen range block sweep (S>1, every
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
func (q *Query) candidatesBatchFrozen(items []int32, fn func(pos int, bucket []int32)) {
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
				fn(pos, ownerBucket)
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

// candidatesBatchKeys is the key-addressed block sweep, for shards
// that are not all frozen (map-built range shards, stride streams):
// band-major like the frozen sweep, each position's band keys resolved
// through its owning shard and every shard looked up by key. A range
// position's shard buckets arrive whole in shard order (concatenation
// is the merge, as in fanOutBand); a stride position's (item, band)
// emission is the S-way ascending merge of the per-shard buckets
// delivered as maximal single-shard runs (mergeRuns) — the same
// candidate sequence the per-item Candidates path produces, without
// its per-candidate closure dispatch. Equivalence tests pin the
// sequences identical.
func (q *Query) candidatesBatchKeys(items []int32, fn func(pos int, bucket []int32)) {
	sh := q.sh
	start := time.Now()
	n := len(items)
	q.blockScratch(n)
	owners, locals, keyBuf := q.owners[:n], q.locals[:n], q.keyBuf[:n]
	valid := 0
	for pos, item := range items {
		s, local, ok := sh.part.locate(item)
		if ok && sh.shards[s].isInserted(local) {
			owners[pos], locals[pos] = int32(s), local
			valid++
		} else {
			owners[pos] = -1
		}
	}
	bands := sh.params.Bands
	for b := 0; b < bands; b++ {
		for pos := range items {
			if owners[pos] >= 0 {
				keyBuf[pos] = sh.shards[owners[pos]].itemBandKey(locals[pos], b)
			}
		}
		for pos := 0; pos < n; pos++ {
			if owners[pos] < 0 {
				continue
			}
			if !sh.part.stride {
				for _, ix := range sh.shards {
					if bucket := ix.lookupBucket(b, keyBuf[pos]); len(bucket) > 0 {
						fn(pos, bucket)
					}
				}
				continue
			}
			q.heads = q.heads[:0]
			for _, ix := range sh.shards {
				if bucket := ix.lookupBucket(b, keyBuf[pos]); len(bucket) > 0 {
					q.heads = append(q.heads, mergeHead{bucket: bucket})
				}
			}
			q.mergeRuns(pos, fn)
		}
	}
	sh.probeOps.Add(int64(valid) * int64(bands) * int64(len(sh.shards)-1))
	sh.mergeNanos.Add(time.Since(start).Nanoseconds())
}

// mergeRuns drains q.heads in ascending global-ID order, emitting
// maximal single-shard runs as bucket sub-slices: the head with the
// smallest front ID advances until the next-smallest other head would
// overtake it, and the stretch is handed to fn in one call. Buckets are
// strictly ascending with disjoint IDs across shards, so the
// concatenation of emitted runs is exactly the mergeEmit sequence.
func (q *Query) mergeRuns(pos int, fn func(pos int, bucket []int32)) {
	for len(q.heads) > 0 {
		if len(q.heads) == 1 {
			h := &q.heads[0]
			fn(pos, h.bucket[h.next:])
			q.heads = q.heads[:0]
			return
		}
		minAt := 0
		minV := q.heads[0].bucket[q.heads[0].next]
		limit := int32((1 << 31) - 1)
		for h := 1; h < len(q.heads); h++ {
			v := q.heads[h].bucket[q.heads[h].next]
			if v < minV {
				limit = minV
				minV, minAt = v, h
			} else if v < limit {
				limit = v
			}
		}
		head := &q.heads[minAt]
		runStart := head.next
		for head.next < len(head.bucket) && head.bucket[head.next] < limit {
			head.next++
		}
		fn(pos, head.bucket[runStart:head.next])
		if head.next == len(head.bucket) {
			last := len(q.heads) - 1
			q.heads[minAt] = q.heads[last]
			q.heads = q.heads[:last]
		}
	}
}

// CandidatesOfKeys reports the items colliding with precomputed band
// keys (one per band), with Candidates' duplication semantics and
// enumeration order — the query half of the sharded seeded bootstrap,
// probing every shard's growing (or frozen) tables. On a reordered
// index the emitted IDs are internal, in ascending-original order,
// like every other candidate path.
func (q *Query) CandidatesOfKeys(keys []uint64, fn func(other int32)) {
	sh := q.sh
	if sh.single != nil {
		sh.single.CandidatesOfKeys(keys, fn)
		return
	}
	if len(keys) != sh.params.Bands {
		panic("lsh: CandidatesOfKeys key count mismatch")
	}
	start := time.Now()
	if sh.inv != nil {
		for b, key := range keys {
			q.heads = q.heads[:0]
			for _, ix := range sh.shards {
				if bucket := ix.lookupBucket(b, key); len(bucket) > 0 {
					q.heads = append(q.heads, mergeHead{bucket: bucket})
				}
			}
			if len(q.heads) == 1 {
				for _, g := range q.heads[0].bucket {
					fn(g)
				}
				q.heads = q.heads[:0]
			} else {
				q.mergeEmitByInv(fn)
			}
		}
	} else {
		for b, key := range keys {
			q.fanOutBand(b, key, fn)
		}
	}
	q.pendingProbe += int64(len(keys)) * int64(len(sh.shards)-1)
	q.addMergeNanos(time.Since(start).Nanoseconds())
}

// CandidatesOfSignature reports the items colliding with a precomputed
// signature of length SignatureLen — the streaming query path, where
// the arriving item is signed once and the signature serves both this
// query and the subsequent InsertSignature.
func (q *Query) CandidatesOfSignature(sig []uint64, fn func(other int32)) {
	sh := q.sh
	if sh.single != nil {
		sh.single.CandidatesOfSignature(sig, fn)
		return
	}
	if len(sig) != sh.params.SignatureLen() {
		panic("lsh: CandidatesOfSignature signature length mismatch")
	}
	if cap(q.sigKeys) < sh.params.Bands {
		q.sigKeys = make([]uint64, sh.params.Bands)
	}
	keys := q.sigKeys[:sh.params.Bands]
	for b := range keys {
		keys[b] = bandKeyOf(sh.params, sig, b)
	}
	q.CandidatesOfKeys(keys, fn)
}

package lsh

import (
	"context"
	"time"
)

// This file is the planner half of the fault-tolerant fan-out: when a
// backend layer is attached (Sharded.AttachBackends), every Query
// sweep routes through resilientCall instead of touching shard memory
// directly. The flow is gather-then-emit: each shard's buckets are
// parked in per-shard hit lists first, and only after the fan-out
// settles are they replayed to the caller in the oracle's exact
// enumeration order (band-major; ascending shard concatenation for
// range partitions, a live S-way merge for stride). Gathering buys
// three properties at once: a failed shard's partial emissions never
// leak into the shortlist, hedged attempts never race on caller
// state, and the caller's fn is only ever invoked directly — it never
// escapes into a backend-call closure.
//
// Ownership rule: every slice a backend-call closure captures must be
// privately allocated for that sweep. A lost hedge race or an
// abandoned over-deadline attempt leaves a goroutine that may still
// read the closure's captures after resilientCall returns (backends
// are not required to honour cancellation promptly), so reusable
// Query scratch must never cross into a closure — copy it first.

// bucketHit parks one emitted bucket until replay. The bucket slice
// aliases backend-owned (frozen) storage; nothing is copied.
type bucketHit struct {
	pos, band int32
	bucket    []int32
}

// degradedState records how one item's sweep degraded: partial means
// at least one shard's buckets are missing from the shortlist;
// ownerDown means the item's own shard was unreachable, so the
// shortlist misses even the item's home buckets and the driver should
// fall back to exact evaluation.
type degradedState struct {
	partial   bool
	ownerDown bool
}

// LastDegraded reports the degradation outcome of the most recent
// per-item sweep (Candidates, CandidatesOfKeys, CandidatesOfSignature)
// through the backend layer. Always false on the direct path.
func (q *Query) LastDegraded() (partial, ownerDown bool) {
	if q.sh.res == nil {
		return false, false
	}
	return q.lastDeg.partial, q.lastDeg.ownerDown
}

// BlockDegraded reports position pos's degradation outcome of the most
// recent CandidatesBatch through the backend layer. Always false on
// the direct path.
func (q *Query) BlockDegraded(pos int) (partial, ownerDown bool) {
	if q.sh.res == nil || pos >= len(q.blockDeg) {
		return false, false
	}
	d := q.blockDeg[pos]
	return d.partial, d.ownerDown
}

// ensureBlockDeg sizes and clears the per-position degradation scratch.
func (q *Query) ensureBlockDeg(n int) []degradedState {
	if cap(q.blockDeg) < n {
		q.blockDeg = make([]degradedState, n)
	}
	deg := q.blockDeg[:n]
	for i := range deg {
		deg[i] = degradedState{}
	}
	q.blockDeg = deg
	return deg
}

// ownerKeys resolves shard-local items' band keys through the owner
// shard's backend. The result is allocated per call: hedged attempts
// may run concurrently and each needs a private buffer. locals must be
// private to this call per the ownership rule above.
func ownerKeys(res *resilience, s int, locals []int32, bands int) ([]uint64, error) {
	return resilientCall(res, s, func(ctx context.Context, b ShardBackend) ([]uint64, error) {
		out := make([]uint64, len(locals)*bands)
		if err := b.ItemKeys(ctx, locals, out); err != nil {
			return nil, err
		}
		return out, nil
	})
}

// backendCandidates is Candidates through the backend layer: owner key
// resolution, per-shard gather, order-preserving replay.
func (q *Query) backendCandidates(item int32, fn func(other int32)) {
	sh := q.sh
	q.lastDeg = degradedState{}
	s, local, ok := sh.part.locate(item)
	if !ok || !sh.shards[s].isInserted(local) {
		return
	}
	start := time.Now()
	bands := sh.params.Bands
	keys, err := ownerKeys(sh.res, s, []int32{local}, bands)
	if err != nil {
		q.lastDeg = degradedState{partial: true, ownerDown: true}
		return
	}
	q.gatherShards(keys, s)
	q.emitGathered(fn)
	q.pendingProbe += int64(bands) * int64(len(sh.shards)-1)
	q.addMergeNanos(time.Since(start).Nanoseconds())
}

// backendCandidatesOfKeys is CandidatesOfKeys (and, via key
// computation, CandidatesOfSignature) through the backend layer. There
// is no owner shard: the keys describe an out-of-index query item, so
// failures degrade to partial but never to ownerDown.
func (q *Query) backendCandidatesOfKeys(keys []uint64, fn func(other int32)) {
	sh := q.sh
	if len(keys) != sh.params.Bands {
		panic("lsh: CandidatesOfKeys key count mismatch")
	}
	q.lastDeg = degradedState{}
	start := time.Now()
	// keys is caller-owned (often Query.sigKeys scratch); the gather
	// closures need a private copy per the ownership rule.
	q.gatherShards(append([]uint64(nil), keys...), -1)
	q.emitGathered(fn)
	q.pendingProbe += int64(len(keys)) * int64(len(sh.shards)-1)
	q.addMergeNanos(time.Since(start).Nanoseconds())
}

// gatherShards fans one item's band keys out to every shard backend,
// parking each shard's surviving buckets in q.perShard (nil for a
// failed shard, which degrades the sweep to partial — and to ownerDown
// when the failed shard is the item's owner).
func (q *Query) gatherShards(keys []uint64, owner int) {
	sh := q.sh
	res := sh.res
	nShards := len(sh.shards)
	if cap(q.perShard) < nShards {
		q.perShard = make([][]bucketHit, nShards)
	}
	q.perShard = q.perShard[:nShards]
	for t := 0; t < nShards; t++ {
		if res.ctx.Err() != nil {
			q.perShard[t] = nil
			q.lastDeg.partial = true
			continue
		}
		hits, err := resilientCall(res, t, func(ctx context.Context, b ShardBackend) ([]bucketHit, error) {
			var out []bucketHit
			if err := b.Candidates(ctx, keys, func(band int, bucket []int32) {
				out = append(out, bucketHit{band: int32(band), bucket: bucket})
			}); err != nil {
				return nil, err
			}
			return out, nil
		})
		if err != nil {
			q.perShard[t] = nil
			q.lastDeg.partial = true
			if t == owner {
				q.lastDeg.ownerDown = true
			}
			continue
		}
		q.perShard[t] = hits
	}
}

// emitGathered replays the parked per-shard buckets in the oracle's
// enumeration order. Each shard's hit list is band-ascending (the
// backend contract), so one cursor per shard suffices: per band,
// range partitions concatenate in ascending shard order (which IS the
// ascending-ID merge) and stride partitions feed the surviving buckets
// through the S-way mergeEmit.
func (q *Query) emitGathered(fn func(other int32)) {
	sh := q.sh
	bands := sh.params.Bands
	nShards := len(q.perShard)
	if cap(q.cursors) < nShards {
		q.cursors = make([]int, nShards)
	}
	cur := q.cursors[:nShards]
	for i := range cur {
		cur[i] = 0
	}
	if !sh.part.stride {
		for b := int32(0); b < int32(bands); b++ {
			for t := 0; t < nShards; t++ {
				if hits := q.perShard[t]; cur[t] < len(hits) && hits[cur[t]].band == b {
					for _, g := range hits[cur[t]].bucket {
						fn(g)
					}
					cur[t]++
				}
			}
		}
		return
	}
	for b := int32(0); b < int32(bands); b++ {
		q.heads = q.heads[:0]
		for t := 0; t < nShards; t++ {
			if hits := q.perShard[t]; cur[t] < len(hits) && hits[cur[t]].band == b {
				q.heads = append(q.heads, mergeHead{bucket: hits[cur[t]].bucket})
				cur[t]++
			}
		}
		q.mergeEmit(fn)
	}
}

// backendCandidatesBatch is the range-partition CandidatesBatch through
// the backend layer: owner-grouped key resolution, position compaction
// (positions whose owner is unreachable drop out and are flagged
// ownerDown), per-shard block gather, order-preserving replay.
func (q *Query) backendCandidatesBatch(items []int32, fn func(pos int, bucket []int32)) {
	sh := q.sh
	res := sh.res
	n := len(items)
	deg := q.ensureBlockDeg(n)
	start := time.Now()
	q.blockScratch(n)
	owners, locals := q.owners[:n], q.locals[:n]
	for pos, item := range items {
		s, local, ok := sh.part.locate(item)
		if ok && sh.shards[s].isInserted(local) {
			owners[pos], locals[pos] = int32(s), local
		} else {
			owners[pos] = -1
		}
	}
	bands := sh.params.Bands
	nShards := len(sh.shards)

	// Owner-grouped key resolution: one ItemKeys call per shard that
	// owns any block position, scattered back into position order. A
	// failed owner takes all its positions out of the sweep (ownerDown:
	// the driver evaluates them exactly).
	if cap(q.blockKeys) < n*bands {
		q.blockKeys = make([]uint64, n*bands)
	}
	allKeys := q.blockKeys[:n*bands]
	for s := 0; s < nShards; s++ {
		gl, gp := q.groupLocals[:0], q.groupPos[:0]
		for pos := 0; pos < n; pos++ {
			if owners[pos] == int32(s) {
				gl = append(gl, locals[pos])
				gp = append(gp, int32(pos))
			}
		}
		q.groupLocals, q.groupPos = gl, gp
		if len(gl) == 0 {
			continue
		}
		// gl is regrouped for the next shard while an abandoned attempt
		// may still read it: hand the backend a private copy.
		keys, err := ownerKeys(res, s, append([]int32(nil), gl...), bands)
		if err != nil {
			for _, p := range gp {
				deg[p] = degradedState{partial: true, ownerDown: true}
				owners[p] = -1
			}
			continue
		}
		for i, p := range gp {
			copy(allKeys[int(p)*bands:(int(p)+1)*bands], keys[i*bands:(i+1)*bands])
		}
	}

	// Compact the surviving positions into a dense key block.
	pm := q.posMap[:0]
	for pos := 0; pos < n; pos++ {
		if owners[pos] >= 0 {
			pm = append(pm, int32(pos))
		}
	}
	q.posMap = pm
	m := len(pm)
	if m == 0 {
		sh.mergeNanos.Add(time.Since(start).Nanoseconds())
		return
	}
	// ck crosses into the CandidatesBlock closures, so it is allocated
	// per sweep (not Query scratch) per the ownership rule.
	ck := make([]uint64, m*bands)
	for ci, p := range pm {
		copy(ck[ci*bands:(ci+1)*bands], allKeys[int(p)*bands:(int(p)+1)*bands])
	}

	// Per-shard block gather.
	if cap(q.perShard) < nShards {
		q.perShard = make([][]bucketHit, nShards)
	}
	q.perShard = q.perShard[:nShards]
	for t := 0; t < nShards; t++ {
		if res.ctx.Err() != nil {
			q.perShard[t] = nil
			for _, p := range pm {
				deg[p].partial = true
			}
			continue
		}
		hits, err := resilientCall(res, t, func(ctx context.Context, b ShardBackend) ([]bucketHit, error) {
			var out []bucketHit
			if err := b.CandidatesBlock(ctx, m, ck, func(pos, band int, bucket []int32) {
				out = append(out, bucketHit{pos: int32(pos), band: int32(band), bucket: bucket})
			}); err != nil {
				return nil, err
			}
			return out, nil
		})
		if err != nil {
			q.perShard[t] = nil
			for _, p := range pm {
				deg[p].partial = true
				if owners[p] == int32(t) {
					deg[p].ownerDown = true
				}
			}
			continue
		}
		q.perShard[t] = hits
	}

	// Replay band-major, ascending shard, ascending position — exactly
	// the direct block sweep's order. Each shard's hits are
	// (band, pos)-ascending per the backend contract, so cursors walk
	// each list once.
	if cap(q.cursors) < nShards {
		q.cursors = make([]int, nShards)
	}
	cur := q.cursors[:nShards]
	for i := range cur {
		cur[i] = 0
	}
	for b := int32(0); b < int32(bands); b++ {
		for t := 0; t < nShards; t++ {
			hits := q.perShard[t]
			c := cur[t]
			for c < len(hits) && hits[c].band == b {
				fn(int(pm[hits[c].pos]), hits[c].bucket)
				c++
			}
			cur[t] = c
		}
	}
	sh.probeOps.Add(int64(m) * int64(bands) * int64(nShards-1))
	sh.mergeNanos.Add(time.Since(start).Nanoseconds())
}

// addSourceBackend is ShardedReverse.AddSource through the backend
// layer: the owner resolves the source's band keys, then every shard
// (owner included — its key probe resolves to the same slot its direct
// path would mark) maps them to bucket slots via ReverseSpans. Any
// failure latches the view's Degraded flag until the next Emit cycle:
// the expansion may have missed buckets, so the driver must not trust
// the active set it seeds.
func (r *ShardedReverse) addSourceBackend(global int32) {
	sh := r.sh
	res := sh.res
	if r.emitted {
		r.degraded, r.emitted = false, false
	}
	s, local, ok := sh.part.locate(global)
	if !ok || !sh.shards[s].isInserted(local) {
		return
	}
	bands := sh.params.Bands
	keys, err := ownerKeys(res, s, []int32{local}, bands)
	if err != nil {
		r.degraded = true
		return
	}
	for t := 0; t < len(r.revs); t++ {
		if res.ctx.Err() != nil {
			r.degraded = true
			return
		}
		spans, err := resilientCall(res, t, func(ctx context.Context, b ShardBackend) ([]int32, error) {
			out := make([]int32, bands)
			if err := b.ReverseSpans(ctx, keys, out); err != nil {
				return nil, err
			}
			return out, nil
		})
		if err != nil {
			r.degraded = true
			continue
		}
		for _, slot := range spans {
			if slot >= 0 {
				r.revs[t].markSlot(slot)
			}
		}
	}
}

// Degraded reports whether any reverse expansion since the previous
// Emit failed to cover some shard — meaning the marks (and the active
// set seeded from them) may be incomplete, and the driver should fall
// back to a full pass rather than trust the filter.
func (r *ShardedReverse) Degraded() bool { return r.degraded }

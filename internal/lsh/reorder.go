package lsh

// Locality-preserving item reordering. Range-sharded batch builds can
// permute items before shard construction so that items sharing band
// buckets become contiguous: the permutation lays every collision-
// connected component — the transitive closure of "shares a bucket in
// some band", size-capped so junk buckets don't weld the dataset into
// one component (deriveReorder) — out as one contiguous internal-ID
// run, the SignAll arena is permuted once, and the range partitioner
// then cuts shards over the *permuted* order. A query's candidates are
// its co-colliders, i.e. its own component, so collisions concentrate
// in the owning shard — almost every foreign-emptiness bit is set and a
// fan-out degenerates to a single owner-bucket scan — and the
// per-candidate assignment reads of a shortlist sweep stay
// cache-resident instead of striding the whole assignment array.
//
// Two ID spaces coexist from then on (see internal/README.md, "ID
// spaces"):
//
//   - original IDs — the caller's item numbering. Everything outside
//     the index (assignments, datasets, runstats, CLI output) stays in
//     this space.
//   - internal IDs — the permuted numbering the shards, buckets,
//     foreign-emptiness bitmaps and reverse marks are built over.
//
// perm[original] = internal and inv[internal] = original map between
// them at the index boundary: queries translate the item argument on
// the way in, candidate enumeration *emits internal IDs* (callers that
// index per-item state by candidate ID must use an internal-space view;
// core's driver mirrors its assignment array), and the reverse view
// translates emitted items back to original IDs. Every ordering
// contract is kept in *original* space: each bucket's items are stored
// in ascending original ID (reorderBucketItems), and cross-shard merges
// compare inv — so enumeration order, and therefore every order-
// dependent tie-break downstream, is bit-identical to the unreordered
// oracle (Options.DisableReorder in core).
//
// Reordering applies only to BuildFrozen; indexes filled item by item
// (the serial bootstrap oracle's Insert-then-Freeze, the stream) never
// reorder, and SetReorder is off by default so the frozen-layout
// identity tests keep pinning the direct build.

import (
	"time"

	"lshcluster/internal/par"
)

// SetReorder requests locality-preserving reordering for a subsequent
// BuildFrozen. It must be called before BuildFrozen; it has no effect
// on an index built by Insert and Freeze.
func (sh *Sharded) SetReorder(on bool) { sh.reorder = on }

// ReorderMap returns the active permutation pair — perm[original] =
// internal, inv[internal] = original — or (nil, nil) when the index is
// not reordered. The slices are owned by the index; callers must not
// modify them. A non-nil perm tells callers that candidate enumeration
// emits internal IDs.
func (sh *Sharded) ReorderMap() (perm, inv []int32) { return sh.perm, sh.inv }

// ReorderTime returns the wall time BuildFrozen spent deriving and
// applying the reorder permutation (zero when not reordered).
func (sh *Sharded) ReorderTime() time.Duration { return sh.reorderDur }

// FanOutLocality reports how many shortlist candidates the fan-out
// served from the query item's owning shard versus foreign shards —
// the shard_local_frac numerator/denominator runstats reports. Zero
// with a single shard (no fan-out exists). Per-item paths flush in
// small batches like MergeTime.
func (sh *Sharded) FanOutLocality() (local, foreign int64) {
	return sh.localCands.Load(), sh.foreignCands.Load()
}

// maxUnionBucket caps the bucket size that still glues its members
// into one locality component. Oversized buckets are junk keys — a
// degenerate band hashing thousands of unrelated items together — and
// a bucket that large spans every shard under any layout, so feeding
// it to the union would only weld the whole dataset into one giant
// component and destroy the locality the permutation exists to create.
// Band 0 is exempt: reorderBucketItems skips band 0 on the strength of
// every band-0 bucket living inside a single component (see
// deriveReorder), which capping would break.
const maxUnionBucket = 128

// deriveReorder computes the locality permutation from the flat band-
// key arena. Items that share any band bucket are collision-connected;
// the permutation lays each connected component out contiguously —
// union-find over every band's buckets (size-capped, see
// maxUnionBucket), components ordered by their smallest original
// member, items ascending by original ID within each component. A
// shortlist's candidates are the query item's co-colliders, i.e. its
// component (junk buckets aside), so after the range partitioner cuts
// shards over this order almost every candidate lives in the owning
// shard. Because band 0 is never capped, a band-0 bucket lies entirely
// inside one component, and the ascending-original layout within the
// component means internal order equals original order on any subset —
// the property reorderBucketItems exploits to skip band 0.
func deriveReorder(keys []uint64, n, bands int) (perm, inv []int32) {
	return deriveReorderCapped(keys, n, bands, maxUnionBucket)
}

func deriveReorderCapped(keys []uint64, n, bands, bucketCap int) (perm, inv []int32) {
	// Union-find with path halving; unions point the larger root at the
	// smaller, so the root is the component's smallest original ID and
	// the result is independent of union order.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	tbl := newBuildTable(n / bands)
	firsts := make([]int32, 0, n/4+1)
	sizes := make([]int32, 0, n/4+1)
	for b := 0; b < bands; b++ {
		if b > 0 {
			tbl.reset()
		}
		firsts, sizes = firsts[:0], sizes[:0]
		for item := 0; item < n; item++ {
			id, added := tbl.lookupOrAdd(keys[item*bands+b], int32(len(firsts)))
			if added {
				firsts = append(firsts, int32(item))
				sizes = append(sizes, 1)
				continue
			}
			if b > 0 && int(sizes[id]) >= bucketCap {
				continue
			}
			sizes[id]++
			ra, rb := find(firsts[id]), find(int32(item))
			if ra < rb {
				parent[rb] = ra
			} else if rb < ra {
				parent[ra] = rb
			}
		}
	}
	// Components in ascending-smallest-member order, ascending original
	// within each: because the root IS the smallest member, numbering
	// groups by first root sighting over an ascending item scan gives
	// exactly that order.
	groupIdx := make([]int32, n)
	for i := range groupIdx {
		groupIdx[i] = -1
	}
	groupOf := make([]int32, n)
	counts := make([]int32, 0, n/4+1)
	for item := 0; item < n; item++ {
		r := find(int32(item))
		g := groupIdx[r]
		if g < 0 {
			g = int32(len(counts))
			groupIdx[r] = g
			counts = append(counts, 0)
		}
		counts[g]++
		groupOf[item] = g
	}
	cursor := make([]int32, len(counts))
	next := int32(0)
	for g, c := range counts {
		cursor[g] = next
		next += c
	}
	perm = make([]int32, n)
	inv = make([]int32, n)
	for item := 0; item < n; item++ {
		j := cursor[groupOf[item]]
		cursor[groupOf[item]] = j + 1
		perm[item] = j
		inv[j] = int32(item)
	}
	return perm, inv
}

// permuteArena gathers the band-key arena into internal order:
// out[j·bands : (j+1)·bands] = keys[inv[j]·bands : …].
func permuteArena(keys []uint64, inv []int32, bands, workers int) []uint64 {
	out := make([]uint64, len(keys))
	par.Ranges(len(inv), workers, func(lo, hi int) {
		for j := lo; j < hi; j++ {
			src := int(inv[j]) * bands
			copy(out[j*bands:(j+1)*bands], keys[src:src+bands])
		}
	})
	return out
}

// reorderBucketItems rewrites every frozen bucket's items span from
// ascending internal ID (the build scatter order) to ascending
// *original* ID, restoring the unreordered index's per-bucket
// enumeration order. It is a counting re-scatter, not a sort: each
// shard's internal IDs are listed in ascending-original order (one
// linear pass over perm), then each band's buckets are refilled from
// that list through the existing slots array. Band 0 is skipped — a
// band-0 bucket is one group's contiguous internal run clipped to the
// shard, where internal order already equals original order.
func (sh *Sharded) reorderBucketItems(workers int) {
	n := len(sh.perm)
	nShards := len(sh.shards)
	orders := make([][]int32, nShards)
	for s := 0; s < nShards; s++ {
		lo, hi := sh.part.cuts[s], sh.part.cuts[s+1]
		orders[s] = make([]int32, 0, hi-lo)
	}
	if nShards == 1 {
		order := orders[0]
		for orig := 0; orig < n; orig++ {
			order = append(order, sh.perm[orig])
		}
		orders[0] = order
	} else {
		p := &sh.part
		for orig := 0; orig < n; orig++ {
			j := sh.perm[orig]
			t := int(((int64(j)+1)*int64(p.s) - 1) / int64(p.n))
			orders[t] = append(orders[t], j)
		}
	}
	bands := sh.params.Bands
	shardConc := workers
	if shardConc > nShards {
		shardConc = nShards
	}
	bandWorkers := workers / shardConc
	if bandWorkers < 1 {
		bandWorkers = 1
	}
	par.Ranges(nShards, shardConc, func(sLo, sHi int) {
		for s := sLo; s < sHi; s++ {
			fz := sh.shards[s].frozen
			cutLo := sh.part.cuts[s]
			order := orders[s]
			// Bands 1… refill in parallel; each worker owns a cursor
			// buffer sized for the widest band it sees.
			parallelBands(bands-1, bandWorkers, func(bandSeq func() (int, bool)) {
				var cursor []int32
				for {
					bs, ok := bandSeq()
					if !ok {
						return
					}
					b := bs + 1
					first, last := fz.bandStart[b], fz.bandStart[b+1]
					width := int(last - first)
					if cap(cursor) < width {
						cursor = make([]int32, width)
					}
					cur := cursor[:width]
					copy(cur, fz.offsets[first:last])
					for _, j := range order {
						slot := fz.slots[int(j-cutLo)*bands+b]
						c := cur[slot-first]
						fz.items[c] = j
						cur[slot-first] = c + 1
					}
				}
			})
		}
	})
}

// emitByInv drains q.heads in ascending *original* ID order:
// buckets hold internal IDs sorted by inv (reorderBucketItems), shards
// hold disjoint items, so a repeated min-head scan on inv reproduces
// the unreordered bucket order exactly.
func (q *Query) emitByInv(fn func(other int32)) {
	inv := q.sh.inv
	for len(q.heads) > 0 {
		minAt := 0
		minV := inv[q.heads[0].bucket[q.heads[0].next]]
		for h := 1; h < len(q.heads); h++ {
			if v := inv[q.heads[h].bucket[q.heads[h].next]]; v < minV {
				minAt, minV = h, v
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

// emitRunsByInv drains q.heads in ascending original order, emitting
// maximal single-shard runs as bucket sub-slices: the head with the
// smallest front inv advances until the next-smallest other head would
// overtake it, and that stretch is handed to fn in one call. With
// reordered shards most buckets collapse to one head before this is
// reached, and the rest are a few long runs — so the batch sweep keeps
// its whole-slice emission granularity. A run that is its head's whole
// bucket carries the head's summary handle; a partial run carries -1.
func (q *Query) emitRunsByInv(pos int, fn func(pos int, bucket []int32, sum int32)) {
	inv := q.sh.inv
	for len(q.heads) > 0 {
		if len(q.heads) == 1 {
			h := &q.heads[0]
			fn(pos, h.bucket[h.next:], h.runSum(h.next, len(h.bucket)))
			q.heads = q.heads[:0]
			return
		}
		minAt := 0
		minV := inv[q.heads[0].bucket[q.heads[0].next]]
		limit := int32((1 << 31) - 1)
		for h := 1; h < len(q.heads); h++ {
			v := inv[q.heads[h].bucket[q.heads[h].next]]
			if v < minV {
				limit = minV
				minV, minAt = v, h
			} else if v < limit {
				limit = v
			}
		}
		head := &q.heads[minAt]
		runStart := head.next
		for head.next < len(head.bucket) && inv[head.bucket[head.next]] < limit {
			head.next++
		}
		fn(pos, head.bucket[runStart:head.next], head.runSum(runStart, head.next))
		if head.next == len(head.bucket) {
			last := len(q.heads) - 1
			q.heads[minAt] = q.heads[last]
			q.heads = q.heads[:last]
		}
	}
}

// runSum is the summary handle of the run bucket[lo:hi]: the head's
// when the run is the whole bucket, -1 otherwise.
func (h *mergeHead) runSum(lo, hi int) int32 {
	if lo == 0 && hi == len(h.bucket) {
		return h.sum
	}
	return -1
}

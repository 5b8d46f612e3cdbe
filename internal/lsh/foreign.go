package lsh

import "sync"

// Cross-shard fan-out. A sharded query resolves the query item's bucket
// in its owning shard directly (freeze-time slots); a foreign shard is
// reached by probing its per-band key table with the owner bucket's
// key — one open-addressed probe per (item, band, foreign shard).
//
// Most of those probes would miss. After locality reordering (see
// reorder.go) collision components are contiguous, so almost every
// bucket lives in one shard only. The foreign-emptiness bitmap records
// that once: bit u of shard s's bitmap is set when no other shard's
// band table holds the key of s's bucket slot u. Every frozen range
// fan-out — per-item or block, reordered or not, and the reverse
// view's source marking — emits the owner's bucket through its slot,
// tests the slot's bit, and probes the other shards only when the bit
// is clear. A set bit is exactly "every probe would miss", so the
// candidate stream is the probe path's by construction.
//
// The bitmap costs one bit per bucket and is built, with no budget,
// whenever every shard of an S>1 index is frozen (BuildFrozen,
// Freeze); OpenSharded loads it from the shard files. Its presence is
// the multi-shard query precondition Query checks.

// buildForeignEmpty computes the foreign-emptiness bitmap, one
// goroutine per owner shard. It is a no-op unless the index is a
// frozen partition of S>1 shards, and idempotent; it must not run
// concurrently with queries.
func (sh *Sharded) buildForeignEmpty() {
	if sh.foreignEmpty != nil || sh.single != nil || !sh.Frozen() {
		return
	}
	empty := make([][]uint64, len(sh.shards))
	var wg sync.WaitGroup
	for s := range sh.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			own := sh.shards[s].frozen
			words := make([]uint64, (len(own.offsets)-1+63)/64)
			for b := 0; b < sh.params.Bands; b++ {
				for slot := own.bandStart[b]; slot < own.bandStart[b+1]; slot++ {
					if !sh.sharedKey(s, b, own.keys[slot]) {
						words[slot>>6] |= 1 << (slot & 63)
					}
				}
			}
			empty[s] = words
		}(s)
	}
	wg.Wait()
	sh.foreignEmpty = empty
}

// sharedKey reports whether any shard other than s holds a band-b
// bucket filed under key.
func (sh *Sharded) sharedKey(s, b int, key uint64) bool {
	for t, ix := range sh.shards {
		if t != s && ix.frozen.tables[b].get(key) >= 0 {
			return true
		}
	}
	return false
}

// foreignEmptyAt reports whether owner shard s's bucket slot has no
// matching bucket in any other shard. The bitmap must exist.
//
//lshvet:noescape
func (sh *Sharded) foreignEmptyAt(s int, slot int32) bool {
	return sh.foreignEmpty[s][slot>>6]&(1<<(slot&63)) != 0
}

// ForeignSlotBytes returns the memory the foreign-emptiness bitmap
// occupies, 0 when the index has none (single shard or unfrozen
// shards).
//
//lshvet:noescape
func (sh *Sharded) ForeignSlotBytes() int64 {
	var n int64
	for _, words := range sh.foreignEmpty {
		n += 8 * int64(len(words))
	}
	return n
}

// FanOutOps returns how the fan-out resolved its cross-shard bucket
// lookups, counted per (item, band, foreign shard): probes is the
// key-table probes issued, direct the resolutions the
// foreign-emptiness bitmap answered without one. Per-item query paths
// flush their counts in small batches (see Query.addMergeNanos), so a
// handful of recent samples may be pending.
//
//lshvet:noescape
func (sh *Sharded) FanOutOps() (probes, direct int64) {
	return sh.probeOps.Load(), sh.directOps.Load()
}

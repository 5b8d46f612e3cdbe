package lsh

import (
	"sync"
	"sync/atomic"

	"lshcluster/internal/lsh/persist"
)

// Memory-budgeted shard residency. A memory-mapped index costs ~0
// resident memory until its pages are touched; the residency manager
// keeps the *touched* footprint near a byte budget by demoting whole
// shards (madvise MADV_DONTNEED drops their pages) and promoting them
// back on use (MADV_WILLNEED prefetches before the queries fault the
// pages anyway). A demoted shard is never absent — its mapping stays
// valid and accesses simply fault pages back in, so correctness is
// untouched and only latency changes: slow, never missing. The budget
// is therefore best-effort: cross-shard fan-out into a demoted shard
// refaults pages the next demotion drops again, keeping steady-state
// residency near the budget rather than exactly under it.
//
// Queries touch their item's *owning* shard (the source of most
// candidates, overwhelmingly so on reordered builds); the touch is one
// atomic load on the hot path when the shard is already resident, and
// takes a mutex only to promote/evict, which happens at shard-rotation
// granularity, not per item.
type residency struct {
	files []*persist.File
	bytes []int64
	// resident[s] is the hot-path fast check; all slower state below mu.
	resident []atomic.Bool
	lastUse  []atomic.Int64
	clock    atomic.Int64

	mu            sync.Mutex
	budget        int64
	residentBytes int64
	residentCount atomic.Int32
	promotions    atomic.Int64
	demotions     atomic.Int64
}

// newResidency admits shards in index order until the budget is
// exhausted and demotes the rest. At least one shard stays resident —
// a budget smaller than any single shard degrades to round-robin
// thrashing, not a failure.
func newResidency(files []*persist.File, budget int64) *residency {
	r := &residency{
		files:    files,
		bytes:    make([]int64, len(files)),
		resident: make([]atomic.Bool, len(files)),
		lastUse:  make([]atomic.Int64, len(files)),
		budget:   budget,
	}
	for s, f := range files {
		r.bytes[s] = f.Size()
		if s == 0 || r.residentBytes+r.bytes[s] <= budget {
			r.resident[s].Store(true)
			r.residentBytes += r.bytes[s]
			r.residentCount.Add(1)
		} else {
			f.Demote()
			r.demotions.Add(1)
		}
	}
	return r
}

// touch records use of shard s, promoting it (and evicting the
// least-recently-used resident shards) when it is demoted.
func (r *residency) touch(s int) {
	r.lastUse[s].Store(r.clock.Add(1))
	if r.resident[s].Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.resident[s].Load() { // promoted while waiting for the lock
		return
	}
	r.files[s].Promote()
	r.resident[s].Store(true)
	r.residentBytes += r.bytes[s]
	r.residentCount.Add(1)
	r.promotions.Add(1)
	for r.residentBytes > r.budget {
		victim := -1
		var oldest int64
		for t := range r.resident {
			if t == s || !r.resident[t].Load() {
				continue
			}
			if u := r.lastUse[t].Load(); victim < 0 || u < oldest {
				victim, oldest = t, u
			}
		}
		if victim < 0 {
			break // s alone exceeds the budget; keep it resident
		}
		r.resident[victim].Store(false)
		r.files[victim].Demote()
		r.residentBytes -= r.bytes[victim]
		r.residentCount.Add(-1)
		r.demotions.Add(1)
	}
}

// ResidencyStats reports the residency manager's current accounting:
// shards resident now and cumulative promotions/demotions. ok is false
// when no manager is active (fresh, heap-loaded or unbudgeted
// indexes).
func (sh *Sharded) ResidencyStats() (resident int, promotions, demotions int64, ok bool) {
	r := sh.resi
	if r == nil {
		return 0, 0, 0, false
	}
	return int(r.residentCount.Load()), r.promotions.Load(), r.demotions.Load(), true
}

// touchShard feeds the residency manager on the query path; free (one
// nil check) when no budget is active.
func (sh *Sharded) touchShard(s int) {
	if r := sh.resi; r != nil {
		r.touch(s)
	}
}

// touchRuns touches the owner shard of each run of consecutive block
// positions in order (owners indexed by position). Block schedules
// ascend in (internal) item ID, so this is ~one touch per shard.
func (sh *Sharded) touchRuns(order, owners []int32) {
	r := sh.resi
	if r == nil {
		return
	}
	last := int32(-1)
	for _, pos := range order {
		if o := owners[pos]; o != last {
			r.touch(int(o))
			last = o
		}
	}
}

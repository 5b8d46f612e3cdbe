package kmodes

import (
	"runtime"
	"slices"
	"sync/atomic"

	"lshcluster/internal/par"
)

// This file implements core.IncrementalSpace for the K-Modes space:
// Huang's frequency-based mode update (paper §III-A1) driven by the
// per-cluster FreqTable, so that after bootstrap each iteration costs
// O(moves·m) for the moves plus an O(n) membership scan for objective
// bookkeeping, instead of the O(n·m) full RecomputeCentroids + O(n·m)
// full Cost the batch path pays. A move costs one hash probe per
// attribute in each of its two clusters' count tables, plus a rescan of
// a table only when the count of its mode value drops to the table's
// runner-up bound.
//
// The engine runs on runtime.GOMAXPROCS(0) goroutines. BeginIncremental
// builds the tables with each goroutine owning a contiguous range of
// clusters, and splits its cost scan by item range. ApplyMove only logs
// the move; FinishPass folds the pass's log with each goroutine owning a
// contiguous range of clusters and one of items: it walks the whole log
// in order, applies the halves of the moves that touch its clusters,
// and updates the cached costs of its items, in log order, so an item
// moved twice ends with the cost of its last move.
//
// Exactness contract: the published modes and the incremental cost are
// bit-identical to RecomputeCentroids/Cost on the same assignment —
// FreqTable maintains the same argmax (highest count, ties to the
// smallest value ID), all objective arithmetic is integral, and the
// empty-cluster policy is replayed with the same rand draws in the same
// cluster order as the batch path. None of this depends on how the
// clusters and items are split, so every result is bit-identical at
// every GOMAXPROCS, and the run under GOMAXPROCS=1 is the reference.
// The equivalence tests in internal/core assert this across tie-break
// modes, update modes and worker counts.

// incremental is the engine state attached to a Space.
type incremental struct {
	freq      *FreqTable
	log       []move  // the moves ApplyMove logged since the last publish
	dirty     []bool  // clusters whose membership changed this pass
	dirtyList []int32 // the same clusters, in first-touched order
	changed   []bool  // clusters whose visible mode changed at FinishPass
	// changedList records the clusters whose visible mode changed at
	// the most recent publish (BeginIncremental or FinishPass),
	// retained until the next publish for ChangedClusters.
	changedList []int32
	trackCost   bool
	itemCost    []int32 // cached Mismatches(row(i), mode(assign[i]))
	total       int64   // Σ itemCost, maintained exactly in integers
}

// move is one logged ApplyMove.
type move struct {
	item, from, to int32
}

// BeginIncremental builds the frequency tables from a complete
// assignment and publishes the induced modes — the incremental
// equivalent of the first RecomputeCentroids(assign) call, including the
// empty-cluster policy (with identical rand draws). trackCost=false
// skips objective bookkeeping; IncrementalCost then falls back to a
// full Cost scan. Moves logged since the last publish are dropped: a
// cancelled run returns between its ApplyMoves and FinishPass, and the
// next run on the space must not fold them.
func (s *Space) BeginIncremental(assign []int32, trackCost bool) {
	n := s.NumItems()
	if len(assign) != n {
		panic("kmodes: assignment length mismatch")
	}
	inc := s.inc
	if inc == nil {
		inc = &incremental{}
		s.inc = inc
	}
	workers := runtime.GOMAXPROCS(0)
	inc.freq = NewFreqTable(s.k, s.m)
	inc.log = inc.log[:0]
	inc.dirty = make([]bool, s.k)
	inc.changed = make([]bool, s.k)
	inc.dirtyList = inc.dirtyList[:0]
	inc.trackCost = trackCost
	for c := 0; c < s.k; c++ {
		// Current modes become the placeholders an empty cluster keeps.
		inc.freq.SetMode(c, s.mode(c))
	}
	inc.freq.addAll(s.ds, assign, workers)
	if s.policy == ReseedRandomItem {
		for c := 0; c < s.k; c++ {
			if inc.freq.Size(c) == 0 {
				inc.freq.SetMode(c, s.ds.Row(s.rng.Intn(n)))
			}
		}
	}
	copy(s.modes, inc.freq.modes)
	// Every mode was just (re)published from scratch; report them all
	// changed so a consumer never treats pre-Begin state as current.
	inc.changedList = inc.changedList[:0]
	for c := 0; c < s.k; c++ {
		inc.changedList = append(inc.changedList, int32(c))
	}
	if trackCost {
		if cap(inc.itemCost) < n {
			inc.itemCost = make([]int32, n)
		}
		inc.itemCost = inc.itemCost[:n]
		inc.total = sumRanges(n, workers, func(lo, hi int) (sum int64) {
			for i := lo; i < hi; i++ {
				d := int32(s.mismatches(s.ds.Row(i), s.mode(int(assign[i]))))
				inc.itemCost[i] = d
				sum += int64(d)
			}
			return sum
		})
	}
}

// ApplyMove logs one item's move between clusters and marks both dirty;
// FinishPass folds the log. The visible modes are untouched until
// FinishPass, so moves applied during a pass cannot perturb later
// assignment decisions in that pass.
func (s *Space) ApplyMove(item int, from, to int32) {
	inc := s.inc
	inc.log = append(inc.log, move{int32(item), from, to})
	s.markDirty(from)
	s.markDirty(to)
}

func (s *Space) markDirty(c int32) {
	if !s.inc.dirty[c] {
		s.inc.dirty[c] = true
		s.inc.dirtyList = append(s.inc.dirtyList, c)
	}
}

// fold applies the logged moves to the frequency tables and the cost
// cache, then empties the log. Goroutine g of workers owns clusters
// [lo, hi) and items [lo·n/k, hi·n/k): it walks the whole log in order,
// removing each row from a cluster it owns and adding each row to one,
// and updating the cost of each item it owns against the pass-frozen
// mode of its new cluster (if that mode changes at FinishPass, the
// member refresh updates it again). Each goroutine sums its cost
// changes in integers.
func (s *Space) fold(workers int) {
	inc := s.inc
	n, k := int64(s.NumItems()), int64(s.k)
	inc.total += sumRanges(s.k, workers, func(lo, hi int) (sum int64) {
		first, last := int32(int64(lo)*n/k), int32(int64(hi)*n/k)
		for _, mv := range inc.log {
			row := s.ds.Row(int(mv.item))
			if mv.from != mv.to {
				if int(mv.from) >= lo && int(mv.from) < hi {
					inc.freq.Remove(int(mv.from), row)
				}
				if int(mv.to) >= lo && int(mv.to) < hi {
					inc.freq.Add(int(mv.to), row)
				}
			}
			if inc.trackCost && mv.item >= first && mv.item < last {
				d := int32(s.mismatches(row, s.mode(int(mv.to))))
				sum += int64(d - inc.itemCost[mv.item])
				inc.itemCost[mv.item] = d
			}
		}
		return sum
	})
	inc.log = inc.log[:0]
}

// sumRanges runs fn on the shards of par.Ranges(n, workers) and
// returns the sum of what they return.
func sumRanges(n, workers int, fn func(lo, hi int) int64) int64 {
	var total atomic.Int64
	par.Ranges(n, workers, func(lo, hi int) { total.Add(fn(lo, hi)) })
	return total.Load()
}

// FinishPass folds the pass's logged moves, then publishes the modes of
// every cluster whose membership changed since the last pass — the
// incremental equivalent of RecomputeCentroids(assign).
func (s *Space) FinishPass(assign []int32) {
	inc := s.inc
	workers := runtime.GOMAXPROCS(0)
	s.fold(workers)
	inc.changedList = inc.changedList[:0]
	if s.policy == ReseedRandomItem {
		// The batch path redraws a random item for every empty cluster
		// on every recompute, dirty or not; replay that draw-for-draw.
		for c := 0; c < s.k; c++ {
			if inc.freq.Size(c) == 0 {
				row := s.ds.Row(s.rng.Intn(s.NumItems()))
				inc.freq.SetMode(c, row)
				copy(s.mode(c), row)
				inc.changedList = append(inc.changedList, int32(c))
			}
		}
	}
	changedAny := false
	for _, c := range inc.dirtyList {
		if inc.freq.Size(int(c)) == 0 {
			if s.policy == KeepMode {
				// A cluster emptied mid-pass keeps the mode of the
				// previous pass (what the batch path does), not the
				// per-attribute leftovers of the removal sequence;
				// resync the table's placeholder to the visible mode.
				inc.freq.SetMode(int(c), s.mode(int(c)))
			}
			continue
		}
		if !slices.Equal(inc.freq.Mode(int(c)), s.mode(int(c))) {
			copy(s.mode(int(c)), inc.freq.Mode(int(c)))
			inc.changed[c] = true
			changedAny = true
			inc.changedList = append(inc.changedList, c)
		}
	}
	if inc.trackCost && changedAny {
		// One light O(n) scan, split by item range; the O(m) distance
		// refresh touches only members of clusters whose mode actually
		// changed.
		inc.total += sumRanges(len(assign), workers, func(lo, hi int) (sum int64) {
			for i := lo; i < hi; i++ {
				if c := assign[i]; inc.changed[c] {
					d := int32(s.mismatches(s.ds.Row(i), s.mode(int(c))))
					sum += int64(d - inc.itemCost[i])
					inc.itemCost[i] = d
				}
			}
			return sum
		})
	}
	for _, c := range inc.dirtyList {
		inc.dirty[c] = false
		inc.changed[c] = false
	}
	inc.dirtyList = inc.dirtyList[:0]
}

// ChangedClusters returns the clusters whose visible mode changed
// during the most recent publish (BeginIncremental or FinishPass):
// every reseeded empty cluster — each redraw counts as a change, even
// when the same row is redrawn — plus every dirty cluster whose
// recomputed mode actually differs from the published one. Valid until
// the next publish; the slice is reused. This is the
// core.ChangeReporter capability the driver's active-set filter
// consumes: items whose shortlist cannot reach any of these clusters
// (and did not lose or gain a colliding neighbour) provably keep their
// assignment and are skipped.
func (s *Space) ChangedClusters() []int32 {
	if s.inc == nil {
		return nil
	}
	return s.inc.changedList
}

// IncrementalCost returns the K-Modes objective under assign. With cost
// tracking enabled this is O(1): the total is maintained exactly in
// integer arithmetic, so it is bit-identical to Cost(assign).
func (s *Space) IncrementalCost(assign []int32) float64 {
	if s.inc == nil || !s.inc.trackCost {
		return s.Cost(assign)
	}
	return float64(s.inc.total)
}

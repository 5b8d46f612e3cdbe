package kmodes

import (
	"slices"
)

// This file implements core.IncrementalSpace for the K-Modes space:
// Huang's frequency-based mode update (paper §III-A1) driven by the
// per-cluster FreqTable, so that after bootstrap each iteration costs
// O(moves·m) for the moves plus an O(n) membership scan for objective
// bookkeeping, instead of the O(n·m) full RecomputeCentroids + O(n·m)
// full Cost the batch path pays. A move costs one hash probe per
// attribute in each of its two clusters' count tables, plus a rescan of
// a table only when the count of its mode value drops.
//
// Exactness contract: the published modes and the incremental cost are
// bit-identical to RecomputeCentroids/Cost on the same assignment —
// FreqTable maintains the same argmax (highest count, ties to the
// smallest value ID), all objective arithmetic is integral, and the
// empty-cluster policy is replayed with the same rand draws in the same
// cluster order as the batch path. The equivalence tests in
// internal/core assert this across tie-break modes, update modes and
// worker counts.

// incremental is the engine state attached to a Space.
type incremental struct {
	freq      *FreqTable
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

// BeginIncremental builds the frequency tables from a complete
// assignment and publishes the induced modes — the incremental
// equivalent of the first RecomputeCentroids(assign) call, including the
// empty-cluster policy (with identical rand draws). trackCost=false
// skips objective bookkeeping; IncrementalCost then falls back to a
// full Cost scan.
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
	inc.freq = NewFreqTable(s.k, s.m)
	inc.dirty = make([]bool, s.k)
	inc.changed = make([]bool, s.k)
	inc.dirtyList = inc.dirtyList[:0]
	inc.trackCost = trackCost
	for c := 0; c < s.k; c++ {
		// Current modes become the placeholders an empty cluster keeps.
		inc.freq.SetMode(c, s.mode(c))
	}
	inc.freq.addAll(s.ds, assign)
	if s.policy == ReseedRandomItem {
		for c := 0; c < s.k; c++ {
			if inc.freq.Size(c) == 0 {
				inc.freq.SetMode(c, s.ds.Row(s.rng.Intn(n)))
			}
		}
	}
	for c := 0; c < s.k; c++ {
		copy(s.mode(c), inc.freq.Mode(c))
	}
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
		inc.total = 0
		for i, c := range assign {
			d := int32(s.mismatches(s.ds.Row(i), s.mode(int(c))))
			inc.itemCost[i] = d
			inc.total += int64(d)
		}
	}
}

// ApplyMove transfers one item between cluster frequency tables. The
// visible modes are untouched until FinishPass, so moves applied during
// a pass cannot perturb later assignment decisions in that pass.
func (s *Space) ApplyMove(item int, from, to int32) {
	inc := s.inc
	row := s.ds.Row(item)
	inc.freq.Move(int(from), int(to), row)
	s.markDirty(from)
	s.markDirty(to)
	if inc.trackCost {
		// Cost against the pass-frozen mode of the new cluster; if that
		// mode changes at FinishPass the member rescan refreshes it.
		d := int32(s.mismatches(row, s.mode(int(to))))
		inc.total += int64(d - inc.itemCost[item])
		inc.itemCost[item] = d
	}
}

func (s *Space) markDirty(c int32) {
	if !s.inc.dirty[c] {
		s.inc.dirty[c] = true
		s.inc.dirtyList = append(s.inc.dirtyList, c)
	}
}

// FinishPass publishes the modes of every cluster whose membership
// changed since the last pass — the incremental equivalent of
// RecomputeCentroids(assign).
func (s *Space) FinishPass(assign []int32) {
	inc := s.inc
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
		// One light O(n) scan; the O(m) distance refresh touches only
		// members of clusters whose mode actually changed.
		for i, c := range assign {
			if inc.changed[c] {
				d := int32(s.mismatches(s.ds.Row(i), s.mode(int(c))))
				inc.total += int64(d - inc.itemCost[i])
				inc.itemCost[i] = d
			}
		}
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

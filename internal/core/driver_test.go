package core

import "testing"

// rankedSpace is a minimal Space whose best cluster for every item is
// k-1 (distance decreases with the cluster index).
type rankedSpace struct{ n, k int }

func (s *rankedSpace) NumItems() int    { return s.n }
func (s *rankedSpace) NumClusters() int { return s.k }
func (s *rankedSpace) Dissimilarity(item, cluster int) float64 {
	return float64(s.k - cluster)
}
func (s *rankedSpace) BoundedDissimilarity(item, cluster int, bound float64) float64 {
	return s.Dissimilarity(item, cluster)
}
func (s *rankedSpace) RecomputeCentroids(assign []int32) {}
func (s *rankedSpace) Cost(assign []int32) float64       { return 0 }

// TestBestOfWeighsCurrentAgainstShortlist pins bestOf's contract under
// both tie-breaks: the item's current cluster competes with the
// shortlist, so an empty shortlist keeps the item where it is after one
// comparison, and a closer candidate wins over the current cluster.
func TestBestOfWeighsCurrentAgainstShortlist(t *testing.T) {
	space := &rankedSpace{n: 4, k: 5}
	for _, tb := range []TieBreak{TieBreakPreferCurrent, TieBreakLowestIndex} {
		d := &driver{space: space, opts: Options{TieBreak: tb}, n: space.n, k: space.k}
		var comps int64
		if got := d.bestOf(2, 4, nil, &comps); got != 4 || comps != 1 {
			t.Fatalf("tiebreak %d: bestOf(cur=4, no candidates) = %d after %d comparisons, want 4 after 1",
				tb, got, comps)
		}
		if got := d.bestOf(2, 0, []int32{1, 3}, nil); got != 3 {
			t.Fatalf("tiebreak %d: bestOf(cur=0, {1,3}) = %d, want 3", tb, got)
		}
	}
}

// wakeReverse is a ReverseView whose expansion of each source is a
// fixed item list.
type wakeReverse struct {
	wakes   map[int32][]int32
	sources []int32
}

func (r *wakeReverse) AddSource(item int32) { r.sources = append(r.sources, item) }

func (r *wakeReverse) Emit(fn func(item int32) bool) {
	for _, s := range r.sources {
		for _, it := range r.wakes[s] {
			if !fn(it) {
				break
			}
		}
	}
	r.sources = r.sources[:0]
}

// allBlockQuerier shortlists every cluster for every item.
type allBlockQuerier struct{ all []int32 }

func (q allBlockQuerier) Candidates(item int32, assign []int32) []int32 { return q.all }

func (q allBlockQuerier) CandidatesBlock(items []int32, assign []int32, emit func(pos int, shortlist []int32)) {
	for pos := range items {
		emit(pos, q.all)
	}
}

// TestSweepCutsAtSkippedWake pins the filtered immediate pass's one
// block cut on a pass small enough to be a single, partial block:
// items 2 and 5 are active, item 2's move wakes item 7, which the
// gather skipped on its way to the end of the pass (past the block's
// last item, 5). Item 7 must still be decided, after 5, exactly as
// the per-item reference decides it.
func TestSweepCutsAtSkippedWake(t *testing.T) {
	space := &rankedSpace{n: 10, k: 2} // cluster 1 is every item's best
	for _, perItem := range []bool{false, true} {
		d := &driver{
			space: space, opts: Options{Update: UpdateImmediate}, perItem: perItem,
			n: space.n, k: space.k,
			assign: []int32{1, 1, 0, 1, 1, 1, 1, 0, 1, 1},
			rev:    &wakeReverse{wakes: map[int32][]int32{2: {1, 2, 7}}},
			act: activeState{
				enabled: true,
				cur:     make([]bool, space.n),
				moved:   make([]bool, space.n),
			},
		}
		d.act.cur[2], d.act.cur[5] = true, true
		var w passWorker
		d.sweep(&w, allBlockQuerier{[]int32{0, 1}}, d.assign, nil, 0, space.n, true)
		if w.ps.evaluated != 3 || w.ps.moves != 2 || d.assign[7] != 1 {
			t.Fatalf("perItem=%v: evaluated %d items and moved %d (item 7 in cluster %d), want 3, 2 and cluster 1",
				perItem, w.ps.evaluated, w.ps.moves, d.assign[7])
		}
	}
}

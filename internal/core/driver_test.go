package core

import "testing"

// rankedSpace is a minimal Space whose best cluster for every item is
// k-1 (distance decreases with the cluster index), making "silently
// returns cluster 0" distinguishable from a correct exact fallback.
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

// TestBestOfEmptyShortlistFallsBackToExact pins the defensive contract
// of bestOf: with no current cluster and an empty candidate list it
// must run an exact scan instead of electing cluster 0 (under
// prefer-current ties) or returning the -1 sentinel (under
// lowest-index ties). No current bootstrap mode reaches this state —
// the seeded bootstrap checks for an empty shortlist first — so the
// test drives the driver directly.
func TestBestOfEmptyShortlistFallsBackToExact(t *testing.T) {
	space := &rankedSpace{n: 4, k: 5}
	for _, tb := range []TieBreak{TieBreakPreferCurrent, TieBreakLowestIndex} {
		d := &driver{space: space, opts: Options{TieBreak: tb}, n: space.n, k: space.k}
		var comps int64
		got := d.bestOf(2, -1, nil, &comps)
		if got != int32(space.k-1) {
			t.Fatalf("tiebreak %d: bestOf(cur=-1, no candidates) = %d, want exact best %d",
				tb, got, space.k-1)
		}
		if comps == 0 {
			t.Fatalf("tiebreak %d: fallback did not evaluate any distances", tb)
		}
		// The non-empty and cur-supplied paths are unchanged by the
		// fallback: a real candidate list still wins over the scan.
		if got := d.bestOf(2, -1, []int32{1, 3}, nil); got != 3 {
			t.Fatalf("tiebreak %d: bestOf over {1,3} = %d, want 3", tb, got)
		}
		if got := d.bestOf(2, 4, nil, nil); got != 4 {
			t.Fatalf("tiebreak %d: bestOf(cur=4, no candidates) = %d, want 4", tb, got)
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

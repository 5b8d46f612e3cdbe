package core

// Active-set assignment filtering (cluster-closure style, after Wang et
// al., "Fast Approximate K-Means via Cluster Closures"): once the
// incremental engine reports which clusters' centroids changed at the
// end of a pass, the next pass only needs to evaluate the items those
// changes can reach. An item's decision depends on exactly two inputs —
// the centroids of its current cluster and shortlist clusters, and the
// shortlist itself (the clusters of the items colliding with it in the
// LSH index). Both inputs are unchanged, and the item therefore
// provably keeps its assignment, unless
//
//   - a colliding item moved (the shortlist's membership, and its
//     dedup enumeration order, may differ), or
//   - a colliding item belongs to a cluster whose centroid changed
//     (a shortlist distance may differ; the item collides with itself,
//     so a change to its *own* cluster is this same condition).
//
// Between passes the driver therefore seeds a reverse-collision view
// (lsh.Reverse via the ReverseQuerier capability) with the pass's moved
// items plus the members of every changed cluster, and the emitted
// colliding items become the next pass's active set; everything else is
// skipped. Skipping never changes results: the active pass is
// bit-identical to the full pass, enforced by equivalence tests against
// the Options.Oracles.DisableActiveFilter oracle.
//
// Under UpdateImmediate the shortlist view is live, so a move made
// mid-pass additionally activates the mover's colliding items within
// the same pass (later items then observe the move exactly as the full
// pass would). Under UpdateDeferred the view is the pass-start
// snapshot and the between-pass activation alone suffices.

const (
	// queryBlockLen is the number of items gathered per batched
	// shortlist query (BlockQuerier): large enough to amortise the
	// band-major sweep of the frozen index, small enough that the
	// block's recorded bucket slices stay cache-resident.
	queryBlockLen = 64

	// ctxPollEvery bounds cancellation latency inside an assignment
	// pass: every pass worker polls Options.Context after this many
	// items.
	ctxPollEvery = 1024

	// activeAllPct caps the filter's bookkeeping: when the prospective
	// active set exceeds this percentage of n, the pass runs full
	// instead — at that density the reverse expansion would cost about
	// as much as the evaluations it saves.
	activeAllPct = 75
)

// BlockQuerier is an optional Querier capability: queriers that can
// gather the colliding buckets of a whole block of items in one
// batched index sweep (amortising cache misses across the block; see
// lsh.Index.CandidatesBatch) implement it. Every assignment pass
// gathers its shortlists through it (driver.sweep). The sweep never
// reads the assignment; each shortlist is resolved against it just
// before its emit, so under immediate updates a move decided inside a
// block is seen by the block's later positions, and under deferred
// updates the snapshot view makes moves invisible anyway. Queriers
// without the capability are adapted one Candidates call per item.
type BlockQuerier interface {
	Querier
	// CandidatesBlock calls emit once per pos in ascending order with
	// Candidates(items[pos], assign), resolved against assign as it
	// stands when that emit call starts. A write to assign is visible
	// to the block's later positions once it is reported through the
	// accelerator's ClusterSummarizer hook (when the accelerator has
	// one): an emit that moves an item writes assign, then reports the
	// write, before it returns. Each shortlist has exactly the contents
	// and enumeration order the per-item Candidates call would produce
	// at that moment and is valid only inside its emit invocation.
	CandidatesBlock(items []int32, assign []int32, emit func(pos int, shortlist []int32))
}

// ClusterSummarizer is an optional Accelerator capability: accelerators
// whose frozen index keeps cluster summaries of its long buckets (the
// paper's cluster reference in the index; see lsh.SummaryMinLen)
// implement it, and their block queriers read a summary where they
// would otherwise map every member of the bucket through the
// assignment. A summary describes the assignment view it was computed
// from, so the driver reports every write to that view: it summarises
// the view once after the bootstrap (or a snapshot resume), reports
// each immediate-update move in settle, before the next emit, and
// folds a deferred pass's move log after the pass, in one call.
type ClusterSummarizer interface {
	// SummarizeClusters (re)builds every summary from view.
	SummarizeClusters(view []int32)
	// Resummarize refreshes, once each, the summaries of the buckets
	// holding any of items after view's entries for items changed.
	Resummarize(items []int32, view []int32)
}

// ReverseView is a reverse-collision view over an accelerator's index
// (lsh.Reverse satisfies it): mark source items, then enumerate every
// indexed item colliding with any source, each underlying bucket
// scanned once. Emit resets the view for reuse; fn returning false
// stops the enumeration early (the reset still happens).
type ReverseView interface {
	AddSource(item int32)
	Emit(fn func(item int32) bool)
}

// ReverseQuerier is an optional Accelerator capability: accelerators
// whose index supports the reverse-collision view implement it. The
// driver calls NewReverse once, after the bootstrap; a nil result
// declines the capability (e.g. the index is not frozen).
type ReverseQuerier interface {
	NewReverse() ReverseView
}

// activeState is the driver's active-set bookkeeping.
type activeState struct {
	// enabled reports whether filtering is on for this run: an
	// accelerated run with the incremental engine, a ChangeReporter
	// space and a ReverseQuerier accelerator, minus the
	// DisableActiveFilter oracle switch.
	enabled bool
	// allPass forces the current pass to evaluate every item (the
	// first pass after bootstrap, and any pass whose prospective
	// active set crossed activeAllPct).
	allPass bool
	// cur flags the current pass's active items (valid when
	// !allPass). Immediate-mode moves set additional flags mid-pass.
	cur []bool
	// woke is the lowest item above the latest immediate-mode mover
	// whose flag that move's expansion raised (n when none): the sweep
	// cuts its block when the gather skipped it.
	woke int32
	// curList is the current pass's active items in ascending order —
	// the domain deferred passes iterate and partition.
	curList []int32
	// next accumulates the following pass's flags between passes.
	next []bool
	// moved flags the items that changed cluster during the current
	// pass. Parallel workers write disjoint entries concurrently.
	moved []bool
	// changed is k-sized scratch marking the clusters reported by
	// ChangedClusters.
	changed []bool
	// sources is scratch for the between-pass source item list.
	sources []int32
}

// initActive enables active-set filtering when every required
// capability is present. Called once per Run, after the index is frozen
// and the incremental engine is initialised; the first pass always runs
// full (bootstrap recomputed every centroid).
func (d *driver) initActive() {
	if d.opts.Oracles.DisableActiveFilter || d.opts.Accelerator == nil || d.inc == nil {
		return
	}
	chg, ok := d.space.(ChangeReporter)
	if !ok {
		return
	}
	rq, ok := d.opts.Accelerator.(ReverseQuerier)
	if !ok {
		return
	}
	rev := rq.NewReverse()
	if rev == nil {
		return
	}
	d.chg, d.rev = chg, rev
	d.act = activeState{
		enabled: true,
		allPass: true,
		cur:     make([]bool, d.n),
		next:    make([]bool, d.n),
		moved:   make([]bool, d.n),
		changed: make([]bool, d.k),
	}
}

// filtered reports whether the current pass may skip inactive items.
func (d *driver) filtered() bool { return d.act.enabled && !d.act.allPass }

// noteMove records that item i changed cluster during the current pass.
// In a filtered immediate-mode pass it also activates i's colliding
// items within the pass: their live-view shortlists now differ from
// last pass, so items later in the iteration order must re-evaluate
// (earlier ones are caught by the between-pass expansion of the moved
// set), and it leaves the lowest newly activated later item in woke.
// Deferred passes skip the expansion — their snapshot view cannot
// observe intra-pass moves — which also keeps this callable from
// parallel workers, where only the disjoint moved-flag writes happen.
func (d *driver) noteMove(i int) {
	a := &d.act
	if !a.enabled {
		return
	}
	a.moved[i] = true
	if d.opts.Update == UpdateImmediate && !a.allPass {
		a.woke = int32(d.n)
		d.rev.AddSource(int32(i))
		d.rev.Emit(func(other int32) bool {
			if !a.cur[other] {
				a.cur[other] = true
				if other > int32(i) && other < a.woke {
					a.woke = other
				}
			}
			return true
		})
	}
}

// prepareNextActive computes the next pass's active set. Called after
// FinishPass published the new centroids (so ChangedClusters is
// current) and only when the pass moved at least one item — a moveless
// pass ends the run.
//
// Sources are the items whose state change can invalidate a
// neighbour's decision: the items that moved this pass, plus the
// members — under the post-pass assignment — of every changed cluster.
// The reverse view expands the sources into the set of items colliding
// with any of them; those are exactly the items whose shortlist
// membership or shortlist distances may differ next pass (each source
// collides with itself, so sources are always active too). If either
// the source list or the expansion crosses activeAllPct·n the
// expansion is abandoned and the next pass simply runs full.
func (d *driver) prepareNextActive() {
	a := &d.act
	clear(a.next)
	clear(a.changed)
	for _, c := range d.chg.ChangedClusters() {
		a.changed[c] = true
	}
	limit := d.n * activeAllPct / 100
	full := false
	a.sources = a.sources[:0]
	for i, c := range d.assign {
		if a.moved[i] || a.changed[c] {
			a.sources = append(a.sources, int32(i))
			if len(a.sources) > limit {
				full = true
				break
			}
		}
	}
	clear(a.moved)
	if !full {
		count := 0
		for _, s := range a.sources {
			d.rev.AddSource(s)
		}
		d.rev.Emit(func(item int32) bool {
			if !a.next[item] {
				a.next[item] = true
				count++
			}
			return count <= limit
		})
		full = count > limit
	}
	if full {
		a.allPass = true
		return
	}
	a.allPass = false
	a.curList = a.curList[:0]
	for i, on := range a.next {
		if on {
			a.curList = append(a.curList, int32(i))
		}
	}
	// The freshly built flags become current; the old current array is
	// recycled as next pass's accumulator (cleared on entry above).
	a.cur, a.next = a.next, a.cur
}

package core

// IncrementalSpace is an optional Space capability: spaces that can fold
// individual item moves into their centroid state implement it so that
// the driver's per-iteration work after bootstrap is proportional to
// what actually changed — O(moves·m) plus a light O(n) membership scan —
// instead of the full O(n·m) RecomputeCentroids and O(n·m) Cost passes.
//
// The contract mirrors Huang's frequency-based mode update (paper
// §III-A1) generalised to any centroid space, and every method is
// required to be *exact*: after any sequence of
//
//	BeginIncremental(a0); {ApplyMove…; FinishPass(a)}*
//
// the visible centroids (and IncrementalCost) must be bit-identical to
// what RecomputeCentroids (and Cost) would produce on the same
// assignments. The driver relies on this equivalence; it is what lets
// accelerated runs keep the batch path as a correctness oracle (see
// Options.DisableIncremental and the equivalence tests).
//
// Call sequence, enforced by the driver:
//
//  1. BeginIncremental(assign, trackCost) — once, with the complete
//     bootstrap assignment. Replaces the first RecomputeCentroids call:
//     it must leave the centroids exactly as RecomputeCentroids(assign)
//     would (including any empty-cluster policy side effects).
//  2. ApplyMove(item, from, to) — once per item that moved during the
//     assignment pass, in ascending item order, after the assignment
//     slice was updated. Centroids visible through Dissimilarity must
//     NOT change until FinishPass (Lloyd semantics: centroids are
//     frozen during a pass). Never called concurrently.
//  3. FinishPass(assign) — once per pass, after all moves. Publishes
//     the new centroids; equivalent to RecomputeCentroids(assign).
//  4. IncrementalCost(assign) — after FinishPass, when the driver needs
//     the objective; equivalent to Cost(assign). Only meaningful when
//     BeginIncremental was called with trackCost=true (spaces may fall
//     back to a full Cost scan otherwise).
type IncrementalSpace interface {
	Space
	// BeginIncremental initialises incremental state from a complete
	// assignment (no entry may be negative) and publishes the resulting
	// centroids. trackCost=false lets the space skip per-item objective
	// bookkeeping when the driver will never ask for the cost
	// (Options.SkipCost).
	BeginIncremental(assign []int32, trackCost bool)
	// ApplyMove folds one item's move from cluster from to cluster to
	// into the incremental state without touching visible centroids.
	ApplyMove(item int, from, to int32)
	// FinishPass refreshes the centroids of every cluster affected
	// since the previous FinishPass (or BeginIncremental), exactly as
	// RecomputeCentroids(assign) would.
	FinishPass(assign []int32)
	// IncrementalCost returns the clustering objective under assign,
	// exactly as Cost(assign) would.
	IncrementalCost(assign []int32) float64
}

// ChangeReporter is an optional Space capability, expected alongside
// IncrementalSpace: spaces that know which clusters' visible centroids
// changed at the most recent publish (BeginIncremental or FinishPass)
// expose them so the driver can restrict the next assignment pass to
// the items those changes can reach (the active-set filter; see
// active.go). The report may be conservative — naming a cluster whose
// centroid is in fact unchanged only costs spurious re-evaluation —
// but must never omit a cluster whose centroid changed, or skipped
// items could silently hold stale assignments.
type ChangeReporter interface {
	// ChangedClusters returns the clusters whose visible centroid
	// (possibly conservatively) changed at the last publish. Valid
	// until the next publish; the slice may be reused.
	ChangedClusters() []int32
}

// Freezer is an optional Accelerator capability: accelerators whose
// index supports compaction into an immutable, cache-friendly layout
// (lsh.Index.Freeze) implement it. The driver invokes Freeze once, after
// bootstrap has inserted every item and before the iterative passes, so
// the recurring Candidates lookups run on the frozen representation.
// Freeze must be idempotent and must not change query results.
type Freezer interface {
	Freeze()
}

// moveRec is one recorded item move. Every pass logs its moves and
// folds them into the IncrementalSpace after the pass, in ascending
// item order (driver.pass), which keeps ApplyMove single-threaded
// without serialising parallel passes. A deferred pass also refreshes
// the accelerator's cluster summaries from the log
// (ClusterSummarizer), so the log is kept whenever either consumer
// exists.
type moveRec struct {
	item     int32
	from, to int32
}

// Package runstats holds per-iteration clustering statistics — the
// quantities the paper plots (time per iteration, average shortlist size,
// moves, total time, purity) — and renders them as CSV or markdown.
package runstats

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// Iteration records one assignment+update pass.
type Iteration struct {
	// Index is 1-based; the bootstrap pass is reported separately.
	Index int
	// Duration is the wall time of the pass (assignment + mode update).
	Duration time.Duration
	// Moves counts items that changed cluster during the pass
	// (paper figures "Moves").
	Moves int
	// Comparisons counts item-to-centroid dissimilarity evaluations.
	Comparisons int64
	// CandidatesTotal sums shortlist sizes over the evaluated items;
	// for the exact algorithm the shortlist is the full cluster set.
	CandidatesTotal int64
	// AvgShortlist is CandidatesTotal divided by ActiveItems — the
	// mean shortlist size per item actually queried (paper figures
	// "Avg. Clusters Returned"). Without active-set filtering every
	// item is queried and the divisor is n.
	AvgShortlist float64
	// ActiveItems counts the items the assignment pass evaluated. With
	// active-set filtering, items whose cluster neighbourhood provably
	// did not change are skipped, so late sparse passes evaluate far
	// fewer than n; without it this is always n.
	ActiveItems int
	// SkippedItems counts the items the active-set filter skipped
	// (n − ActiveItems).
	SkippedItems int
	// Cost is the clustering objective after the pass (K-Modes Eq. 4),
	// NaN when cost tracking is disabled.
	Cost float64
}

// Run aggregates a full clustering execution.
type Run struct {
	// Name identifies the configuration, e.g. "K-Modes" or
	// "MH-K-Modes 20b5r".
	Name string
	// Bootstrap is the time spent before iteration 1: the initial full
	// assignment plus, for accelerated runs, MinHashing the dataset and
	// building the index (the paper's "initial extra step").
	Bootstrap time.Duration
	// BootstrapSign, BootstrapBuild and BootstrapAssign split Bootstrap
	// into its pipeline phases: signing every item (computing MinHash /
	// SimHash band keys), constructing the frozen index, and the first
	// assignment. A warm start loads the index instead, so its signing
	// and build phases stay zero; an exact run builds no index, so only
	// its assignment phase is set. Their sum is at most Bootstrap; the
	// remainder is untimed setup (accelerator reset or index load,
	// incremental-engine initialisation).
	BootstrapSign   time.Duration
	BootstrapBuild  time.Duration
	BootstrapAssign time.Duration
	// IndexSaveTime and IndexLoadTime are the wall times spent
	// persisting the frozen index to disk after a cold bootstrap and
	// warm-loading it back at the start of a later run
	// (core.Options.IndexDir). Zero when persistence was off; a run has
	// at most one of them non-zero (cold runs save, warm runs load).
	IndexSaveTime time.Duration
	IndexLoadTime time.Duration
	// MmapBytes is the total size of the index's live memory mappings —
	// bytes served zero-copy from the page cache instead of the heap.
	// Zero on heap loads (core.Oracles.DisableMmap), fresh builds, and
	// platforms without mmap.
	MmapBytes int64
	// WarmStart reports whether the index was loaded from disk instead
	// of built (the run skipped signing, construction and the first full
	// scan).
	WarmStart bool
	// ResumedAt is the first iteration this run executed: 1 normally,
	// higher when the run resumed from a checkpoint
	// (core.Options.SnapshotEvery), whose restored iterations precede
	// the new ones in Iterations.
	ResumedAt int
	// Iterations holds one entry per pass, in order.
	Iterations []Iteration
	// Converged reports whether the run stopped because no item moved
	// (as opposed to hitting the iteration cap).
	Converged bool
	// Purity is the external quality score in [0,1], NaN when no ground
	// truth was available.
	Purity float64
}

// Total returns bootstrap plus all iteration durations.
func (r *Run) Total() time.Duration {
	t := r.Bootstrap
	for _, it := range r.Iterations {
		t += it.Duration
	}
	return t
}

// NumIterations returns the number of passes executed.
func (r *Run) NumIterations() int { return len(r.Iterations) }

// MeanIterationTime returns the average pass duration (0 for no passes).
func (r *Run) MeanIterationTime() time.Duration {
	if len(r.Iterations) == 0 {
		return 0
	}
	var t time.Duration
	for _, it := range r.Iterations {
		t += it.Duration
	}
	return t / time.Duration(len(r.Iterations))
}

// TotalMoves sums moves across all passes.
func (r *Run) TotalMoves() int {
	n := 0
	for _, it := range r.Iterations {
		n += it.Moves
	}
	return n
}

// Speedup returns how many times faster r completed than other
// (other.Total / r.Total).
func (r *Run) Speedup(other *Run) float64 {
	if r.Total() <= 0 {
		return 0
	}
	return float64(other.Total()) / float64(r.Total())
}

// column is one CSV column: its header name and how the bootstrap
// pseudo-row (iteration 0) and the per-iteration rows render it. Header
// and both row shapes derive from the one columns table below, so they
// cannot drift apart; statscheck verifies the table against the Run and
// Iteration structs field-for-field.
type column struct {
	name string
	boot func(r *Run) string
	iter func(r *Run, it Iteration) string
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// none renders the empty cell for columns a row shape does not carry.
func none(*Run, Iteration) string { return "" }

// columns is the single source of truth for the CSV layout. The
// pseudo-iteration 0 row carries the bootstrap duration, its per-phase
// split and the index persistence figures; iteration rows leave those
// columns empty.
var columns = []column{
	{"run",
		func(r *Run) string { return r.Name },
		func(r *Run, _ Iteration) string { return r.Name }},
	{"iteration",
		func(*Run) string { return "0" },
		func(_ *Run, it Iteration) string { return strconv.Itoa(it.Index) }},
	{"duration_ms",
		func(r *Run) string { return f(ms(r.Bootstrap)) },
		func(_ *Run, it Iteration) string { return f(ms(it.Duration)) }},
	{"moves", bootNone,
		func(_ *Run, it Iteration) string { return strconv.Itoa(it.Moves) }},
	{"comparisons", bootNone,
		func(_ *Run, it Iteration) string { return strconv.FormatInt(it.Comparisons, 10) }},
	{"avg_shortlist", bootNone,
		func(_ *Run, it Iteration) string { return f(it.AvgShortlist) }},
	{"cost", bootNone,
		func(_ *Run, it Iteration) string { return f(it.Cost) }},
	{"active_items", bootNone,
		func(_ *Run, it Iteration) string { return strconv.Itoa(it.ActiveItems) }},
	{"skipped_items", bootNone,
		func(_ *Run, it Iteration) string { return strconv.Itoa(it.SkippedItems) }},
	{"bootstrap_sign_ms",
		func(r *Run) string { return f(ms(r.BootstrapSign)) }, none},
	{"bootstrap_build_ms",
		func(r *Run) string { return f(ms(r.BootstrapBuild)) }, none},
	{"bootstrap_assign_ms",
		func(r *Run) string { return f(ms(r.BootstrapAssign)) }, none},
	{"index_save_ms",
		func(r *Run) string { return f(ms(r.IndexSaveTime)) }, none},
	{"index_load_ms",
		func(r *Run) string { return f(ms(r.IndexLoadTime)) }, none},
	{"mmap_bytes",
		func(r *Run) string { return strconv.FormatInt(r.MmapBytes, 10) }, none},
}

func bootNone(*Run) string { return "" }

// csvExempt names the exported Run/Iteration fields deliberately absent
// from the columns table, with the reason; statscheck requires every
// non-rendered field to appear here.
var csvExempt = map[string]string{
	"CandidatesTotal": "reported via its per-item mean, avg_shortlist",
	"Iterations":      "expanded into the per-iteration rows themselves",
	"Converged":       "summary-level; rendered by WriteSummaryMarkdown",
	"Purity":          "summary-level; rendered by WriteSummaryMarkdown",
	"WarmStart":       "boolean run mode, implied by index_load_ms > 0; the CLI reports it",
	"ResumedAt":       "run mode; restored iterations already appear as ordinary rows",
}

// Header returns the CSV column names, in order.
func Header() []string {
	names := make([]string, len(columns))
	for i, c := range columns {
		names[i] = c.name
	}
	return names
}

// bootstrapRow renders the pseudo-iteration 0 row for r.
func bootstrapRow(r *Run) []string {
	row := make([]string, len(columns))
	for i, c := range columns {
		row[i] = c.boot(r)
	}
	return row
}

// iterationRow renders one per-iteration row for r.
func iterationRow(r *Run, it Iteration) []string {
	row := make([]string, len(columns))
	for i, c := range columns {
		row[i] = c.iter(r, it)
	}
	return row
}

// WriteCSV emits runs in long format, one row per (run, iteration), with
// a pseudo-iteration 0 row carrying the bootstrap duration. Suitable for
// direct plotting.
func WriteCSV(w io.Writer, runs []*Run) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(Header()); err != nil {
		return fmt.Errorf("runstats: writing CSV header: %w", err)
	}
	for _, r := range runs {
		if err := cw.Write(bootstrapRow(r)); err != nil {
			return fmt.Errorf("runstats: writing CSV: %w", err)
		}
		for _, it := range r.Iterations {
			if err := cw.Write(iterationRow(r, it)); err != nil {
				return fmt.Errorf("runstats: writing CSV: %w", err)
			}
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("runstats: flushing CSV: %w", err)
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// WriteSummaryMarkdown renders a per-run summary table: iterations,
// bootstrap, mean iteration time, total, moves, purity.
func WriteSummaryMarkdown(w io.Writer, runs []*Run) error {
	if _, err := fmt.Fprintln(w, "| run | iters | converged | bootstrap | mean iter | total | moves | purity |"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|"); err != nil {
		return err
	}
	for _, r := range runs {
		_, err := fmt.Fprintf(w, "| %s | %d | %v | %s | %s | %s | %d | %.4f |\n",
			r.Name, r.NumIterations(), r.Converged,
			r.Bootstrap.Round(time.Millisecond),
			r.MeanIterationTime().Round(time.Millisecond),
			r.Total().Round(time.Millisecond),
			r.TotalMoves(), r.Purity)
		if err != nil {
			return err
		}
	}
	return nil
}

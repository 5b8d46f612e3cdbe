package experiments

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"lshcluster/internal/runstats"
)

// Figure runs the numbered paper figure (2–10) and prints its series.
func (s *Suite) Figure(n int) error {
	switch n {
	case 2:
		return s.Figure2()
	case 3:
		return s.Figure3()
	case 4:
		return s.Figure4()
	case 5:
		return s.Figure5()
	case 6:
		return s.Figure6()
	case 7:
		return s.Figure7()
	case 8:
		return s.Figure8()
	case 9:
		return s.Figure9()
	case 10:
		return s.Figure10()
	default:
		return fmt.Errorf("experiments: no figure %d in the paper's evaluation", n)
	}
}

// Tables runs the numbered paper table (1 or 2).
func (s *Suite) Table(n int) error {
	switch n {
	case 1:
		return s.Table1()
	case 2:
		return s.Table2()
	default:
		return fmt.Errorf("experiments: no table %d in the paper", n)
	}
}

// All regenerates both tables and every figure.
func (s *Suite) All() error {
	for _, t := range []int{1, 2} {
		if err := s.Table(t); err != nil {
			return err
		}
	}
	for f := 2; f <= 10; f++ {
		if err := s.Figure(f); err != nil {
			return err
		}
	}
	return nil
}

// ---- Figures 2–5: per-iteration series on the synthetic datasets ----

// Figure2 reproduces Figure 2 (a–e): dataset A (90 000 items, 100
// attributes, 20 000 clusters), variants 20b2r / 20b5r / 50b5r vs
// K-Modes.
func (s *Suite) Figure2() error {
	cmp, err := s.synthComparison(SynthA, variants2, s.cfg.MaxIterations)
	if err != nil {
		return err
	}
	w := s.cfg.Out
	header(w, "Figure 2 — %v", cmp.Spec)
	printSeries(w, "2a: time per iteration (ms)", cmp.Runs, colDuration)
	printSeries(w, "2b: average shortlist size (clusters returned)", cmp.Runs, colShortlist)
	printSeries(w, "2c: moves per iteration", cmp.Runs, colMoves)
	zoom := []*runstats.Run{cmp.Run(MH(20, 5).Name), cmp.Run(MH(50, 5).Name)}
	printSeries(w, "2d: closer look at 2a (MH variants only)", zoom, colDuration)
	printSeries(w, "2e: closer look at 2b (MH variants only)", zoom, colShortlist)
	printSummary(w, cmp)
	return s.dumpCSV("fig2", cmp)
}

// Figure3 reproduces Figure 3 (a–d): dataset B (40 000 clusters).
func (s *Suite) Figure3() error {
	cmp, err := s.synthComparison(SynthB, variants2, s.cfg.MaxIterations)
	if err != nil {
		return err
	}
	w := s.cfg.Out
	header(w, "Figure 3 — %v", cmp.Spec)
	printSeries(w, "3a: time per iteration (ms)", cmp.Runs, colDuration)
	var mhOnly []*runstats.Run
	for _, r := range cmp.Runs {
		if r.Name != Baseline.Name {
			mhOnly = append(mhOnly, r)
		}
	}
	printSeries(w, "3b: time per iteration excluding K-Modes (ms)", mhOnly, colDuration)
	printSeries(w, "3c: average shortlist size", cmp.Runs, colShortlist)
	printSeries(w, "3d: moves per iteration", cmp.Runs, colMoves)
	printSummary(w, cmp)
	return s.dumpCSV("fig3", cmp)
}

// Figure4 reproduces Figure 4 (a–c): dataset C (250 000 items).
func (s *Suite) Figure4() error {
	cmp, err := s.synthComparison(SynthC, variants4, s.cfg.MaxIterations)
	if err != nil {
		return err
	}
	w := s.cfg.Out
	header(w, "Figure 4 — %v", cmp.Spec)
	printSeries(w, "4a: average shortlist size", cmp.Runs, colShortlist)
	printSeries(w, "4b: moves per iteration", cmp.Runs, colMoves)
	printSeries(w, "4c: time per iteration (ms)", cmp.Runs, colDuration)
	printSummary(w, cmp)
	return s.dumpCSV("fig4", cmp)
}

// Figure5 reproduces Figure 5 (a–b): dataset D (200 attributes).
func (s *Suite) Figure5() error {
	cmp, err := s.synthComparison(SynthD, variants5, s.cfg.MaxIterations)
	if err != nil {
		return err
	}
	w := s.cfg.Out
	header(w, "Figure 5 — %v", cmp.Spec)
	printSeries(w, "5a: time per iteration (ms)", cmp.Runs, colDuration)
	printSeries(w, "5b: average shortlist size", cmp.Runs, colShortlist)
	printSummary(w, cmp)
	return s.dumpCSV("fig5", cmp)
}

// ---- Figure 6: scaling comparisons ----

// Figure6 reproduces Figure 6 (a–c): total clustering time as items,
// clusters and attributes grow, for MH-K-Modes 20b5r vs K-Modes.
func (s *Suite) Figure6() error {
	w := s.cfg.Out
	header(w, "Figure 6 — scaling of total clustering time")

	// 6a: items 90k → 250k (datasets A and C).
	a, err := s.synthComparison(SynthA, variants6, s.cfg.MaxIterations)
	if err != nil {
		return err
	}
	c, err := s.synthComparison(SynthC, variants6, s.cfg.MaxIterations)
	if err != nil {
		return err
	}
	printScaling(w, "6a: scaling items (total time, ms)", "items",
		[]string{itemsLabel(a), itemsLabel(c)}, []*Comparison{a, c})

	// 6b: clusters 20k → 40k at 250k items (datasets C and F).
	f, err := s.synthComparison(SynthF, variants6, s.cfg.MaxIterations)
	if err != nil {
		return err
	}
	printScaling(w, "6b: scaling clusters at 250k items (total time, ms)", "clusters",
		[]string{clustersLabel(c), clustersLabel(f)}, []*Comparison{c, f})

	// 6c: attributes 100 → 200 → 400 (datasets A, D, E).
	d, err := s.synthComparison(SynthD, variants5, s.cfg.MaxIterations)
	if err != nil {
		return err
	}
	e, err := s.synthComparison(SynthE, variants5, s.cfg.MaxIterations)
	if err != nil {
		return err
	}
	printScaling(w, "6c: scaling attributes (total time, ms)", "attrs",
		[]string{attrsLabel(a), attrsLabel(d), attrsLabel(e)}, []*Comparison{a, d, e})
	return s.dumpCSV("fig6", a, c, f, d, e)
}

func itemsLabel(c *Comparison) string    { return strconv.Itoa(c.Spec.Items) }
func clustersLabel(c *Comparison) string { return strconv.Itoa(c.Spec.Clusters) }
func attrsLabel(c *Comparison) string    { return strconv.Itoa(c.Spec.Attrs) }

// ---- Figures 7 and 8: totals and purity over the five datasets ----

// figure78sets lists the per-dataset variant sets of Figures 7 and 8.
func (s *Suite) figure78sets() ([]string, [][]Variant, []SynthSpec) {
	names := []string{
		"a: 90k items, 100 attrs, 20k clusters",
		"b: 90k items, 200 attrs, 20k clusters",
		"c: 90k items, 400 attrs, 20k clusters",
		"d: 90k items, 100 attrs, 40k clusters",
		"e: 250k items, 100 attrs, 20k clusters",
	}
	sets := [][]Variant{variants2, variants5, variants5, variants2, variants4}
	specs := []SynthSpec{SynthA, SynthD, SynthE, SynthB, SynthC}
	return names, sets, specs
}

// Figure7 reproduces Figure 7 (a–e): total time to cluster each
// synthetic dataset, including the MinHash indexing bootstrap ("initial
// extra step … captured by this analysis").
func (s *Suite) Figure7() error {
	w := s.cfg.Out
	header(w, "Figure 7 — total time to cluster each synthetic dataset")
	names, sets, specs := s.figure78sets()
	var all []*Comparison
	for i := range names {
		cmp, err := s.synthComparison(specs[i], sets[i], s.cfg.MaxIterations)
		if err != nil {
			return err
		}
		all = append(all, cmp)
		fmt.Fprintf(w, "\n7%s — %v\n", names[i], cmp.Spec)
		printTotals(w, cmp)
	}
	return s.dumpCSV("fig7", all...)
}

// Figure8 reproduces Figure 8 (a–e): cluster purity on each synthetic
// dataset.
func (s *Suite) Figure8() error {
	w := s.cfg.Out
	header(w, "Figure 8 — cluster purity on each synthetic dataset")
	names, sets, specs := s.figure78sets()
	var all []*Comparison
	for i := range names {
		cmp, err := s.synthComparison(specs[i], sets[i], s.cfg.MaxIterations)
		if err != nil {
			return err
		}
		all = append(all, cmp)
		fmt.Fprintf(w, "\n8%s — %v\n", names[i], cmp.Spec)
		printPurity(w, cmp)
	}
	return s.dumpCSV("fig8", all...)
}

// ---- Figures 9 and 10: the Yahoo!-style text workload ----

// Figure9 reproduces Figure 9 (a–e): the Yahoo!-style corpus with
// TF-IDF threshold 0.7, MH-K-Modes 1b1r vs K-Modes.
func (s *Suite) Figure9() error {
	cmp, err := s.yahooComparison(0.7, variants9, s.cfg.MaxIterations)
	if err != nil {
		return err
	}
	w := s.cfg.Out
	header(w, "Figure 9 — Yahoo!-style questions, TF-IDF threshold 0.7")
	printSeries(w, "9a: time per iteration (ms)", cmp.Runs, colDuration)
	printSeries(w, "9b: average shortlist size", cmp.Runs, colShortlist)
	printSeries(w, "9c: moves per iteration", cmp.Runs, colMoves)
	fmt.Fprintln(w, "\n9d: total time")
	printTotals(w, cmp)
	fmt.Fprintln(w, "\n9e: cluster purity")
	printPurity(w, cmp)
	return s.dumpCSV("fig9", cmp)
}

// Figure10 reproduces Figure 10 (a–d): the Yahoo!-style corpus with
// TF-IDF threshold 0.3 and the paper's cap of 10 iterations.
func (s *Suite) Figure10() error {
	const paperCap = 10 // "Due to time constraints we set the maximum iterations to 10"
	cmp, err := s.yahooComparison(0.3, variants10, paperCap)
	if err != nil {
		return err
	}
	w := s.cfg.Out
	header(w, "Figure 10 — Yahoo!-style questions, TF-IDF threshold 0.3 (max 10 iterations)")
	printSeries(w, "10a: time per iteration (ms)", cmp.Runs, colDuration)
	fmt.Fprintln(w, "\n10b: total time to converge")
	printTotals(w, cmp)
	printSeries(w, "10c: average shortlist size", cmp.Runs, colShortlist)
	printSeries(w, "10d: moves per iteration", cmp.Runs, colMoves)
	fmt.Fprintln(w, "\ncluster purity")
	printPurity(w, cmp)
	return s.dumpCSV("fig10", cmp)
}

// ---- rendering helpers ----

func header(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, "\n%s\n%s\n", fmt.Sprintf(format, args...),
		strings.Repeat("=", len(fmt.Sprintf(format, args...))))
}

func colDuration(it runstats.Iteration) string {
	return strconv.FormatFloat(float64(it.Duration)/float64(time.Millisecond), 'f', 2, 64)
}

func colShortlist(it runstats.Iteration) string {
	return strconv.FormatFloat(it.AvgShortlist, 'f', 3, 64)
}

func colMoves(it runstats.Iteration) string { return strconv.Itoa(it.Moves) }

// printSeries renders one paper subfigure: iterations down the rows, one
// column per run.
func printSeries(w io.Writer, title string, runs []*runstats.Run, col func(runstats.Iteration) string) {
	fmt.Fprintf(w, "\n%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprint(tw, "iter")
	maxIter := 0
	for _, r := range runs {
		fmt.Fprintf(tw, "\t%s", r.Name)
		if r.NumIterations() > maxIter {
			maxIter = r.NumIterations()
		}
	}
	fmt.Fprintln(tw)
	for i := 0; i < maxIter; i++ {
		fmt.Fprintf(tw, "%d", i+1)
		for _, r := range runs {
			if i < r.NumIterations() {
				fmt.Fprintf(tw, "\t%s", col(r.Iterations[i]))
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// printTotals renders a total-time bar-chart equivalent with speedups
// against the baseline, and a note on what the baseline compares: its
// passes are the paper's exact per-centroid loop, but its first
// assignment shares the accelerated runs' nearest-mode scan.
func printTotals(w io.Writer, cmp *Comparison) {
	base := cmp.BaselineRun()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "run\tbootstrap\titerations\ttotal\tspeedup vs K-Modes")
	for _, r := range cmp.Runs {
		speed := "-"
		if base != nil && r != base {
			speed = fmt.Sprintf("%.2fx", r.Speedup(base))
		}
		fmt.Fprintf(tw, "%s\t%v\t%d\t%v\t%s\n",
			r.Name, r.Bootstrap.Round(time.Millisecond), r.NumIterations(),
			r.Total().Round(time.Millisecond), speed)
	}
	tw.Flush()
	fmt.Fprintln(w, "note: every run's first assignment, the exact baseline's included, uses the nearest-mode scan (mode postings, or every mode when they are not selective); exact passes compare every centroid, as in the paper.")
}

// printPurity renders the purity bars of Figures 8 and 9e.
func printPurity(w io.Writer, cmp *Comparison) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "run\tpurity")
	for _, r := range cmp.Runs {
		fmt.Fprintf(tw, "%s\t%.4f\n", r.Name, r.Purity)
	}
	tw.Flush()
}

// printScaling renders one Figure 6 panel: total time per variant at
// each point of the scaled dimension.
func printScaling(w io.Writer, title, dim string, points []string, cmps []*Comparison) {
	fmt.Fprintf(w, "\n%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", dim)
	for _, r := range cmps[0].Runs {
		fmt.Fprintf(tw, "\t%s", r.Name)
	}
	fmt.Fprintln(tw)
	for i, c := range cmps {
		fmt.Fprintf(tw, "%s", points[i])
		for _, name := range runNames(cmps[0]) {
			r := c.Run(name)
			if r == nil {
				fmt.Fprint(tw, "\t-")
				continue
			}
			fmt.Fprintf(tw, "\t%.0f", float64(r.Total())/float64(time.Millisecond))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func runNames(c *Comparison) []string {
	names := make([]string, len(c.Runs))
	for i, r := range c.Runs {
		names[i] = r.Name
	}
	return names
}

// printSummary appends the convergence summary below a figure.
func printSummary(w io.Writer, cmp *Comparison) {
	fmt.Fprintln(w, "\nsummary")
	if err := runstats.WriteSummaryMarkdown(w, cmp.Runs); err != nil {
		fmt.Fprintf(w, "summary error: %v\n", err)
	}
}

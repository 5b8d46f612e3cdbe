// Command lshcluster clusters a categorical CSV dataset with K-Modes,
// either exact or accelerated with the paper's MinHash LSH framework
// (MH-K-Modes).
//
// The input CSV must have a header row of attribute names; a trailing
// _label column, when present, is treated as ground truth and reported as
// cluster purity. Assignments are written as CSV (item,cluster), and a
// per-iteration statistics summary is printed to stderr.
//
// -in-binary reads the columnar format -write-binary writes, memory-mapped
// where the platform supports it. -save-index and -load-index persist the
// frozen index and the first assignment; a warm start maps the saved
// index zero-copy where the platform supports it.
//
// Every flag configures the algorithm or its inputs and outputs; none
// selects a reference implementation. The reference twins of the fast
// paths (scalar kernels, batch centroid updates, full passes, heap
// index loads) are reachable only from tests, which check each against
// the default run (TestOraclesMatchDefault in internal/core). The
// bootstrap (signing, index construction, first assignment) runs on
// every CPU the Go runtime uses, whatever -workers says, which sizes
// only the passes; its reference is the same run under GOMAXPROCS=1.
//
// Examples:
//
//	lshcluster -in synth.csv -k 2000 -bands 20 -rows 5 -assign out.csv
//	lshcluster -in synth.csv -k 2000 -exact
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"lshcluster/internal/core"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/lsh/persist"
	"lshcluster/internal/metrics"
	"lshcluster/internal/runstats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lshcluster:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lshcluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input CSV file (default stdin)")
	inBinary := fs.String("in-binary", "", "input binary dataset file (written by -write-binary; memory-mapped, so rows never occupy the heap)")
	writeBinary := fs.String("write-binary", "", "convert the input dataset to the binary columnar format at this path and continue")
	k := fs.Int("k", 0, "number of clusters (required)")
	bands := fs.Int("bands", 20, "LSH bands (b)")
	rows := fs.Int("rows", 5, "LSH rows per band (r)")
	exact := fs.Bool("exact", false, "run exact K-Modes (no LSH acceleration)")
	seed := fs.Int64("seed", 1, "random seed")
	maxIter := fs.Int("maxiter", core.DefaultMaxIterations, "iteration cap")
	assignOut := fs.String("assign", "", "write item,cluster assignments to this CSV file")
	modelOut := fs.String("model", "", "write the trained modes (gob) to this file")
	statsCSV := fs.String("stats", "", "write per-iteration statistics CSV to this file")
	workers := fs.Int("workers", 1, "parallel assignment workers (forces deferred updates)")
	abandon := fs.Bool("early-abandon", false, "enable early-abandon distance evaluation")
	lowestTie := fs.Bool("lowest-index-ties", false, "break distance ties to the lowest cluster index (numpy-style)")
	saveIndex := fs.String("save-index", "", "persist the frozen LSH index (and first assignment) into this directory after a cold bootstrap; later runs warm-start from it")
	loadIndex := fs.String("load-index", "", "warm-start from the saved index in this directory (must exist; stale indexes are rejected, bit-identical results)")
	snapshotEvery := fs.Int("snapshot-every", 0, "checkpoint the run state into the index directory every N iterations and resume interrupted runs from it (0 = off; needs -save-index/-load-index)")
	initMethod := fs.String("init", "random", "initial centroid selection: random | huang | cao")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *k < 1 {
		return fmt.Errorf("-k is required and must be ≥ 1")
	}

	indexDir := ""
	switch {
	case *saveIndex != "" && *loadIndex != "" && *saveIndex != *loadIndex:
		return fmt.Errorf("-save-index and -load-index name different directories; use one (or the same)")
	case *saveIndex != "":
		indexDir = *saveIndex
	case *loadIndex != "":
		if !lsh.IndexSaved(*loadIndex) {
			return fmt.Errorf("-load-index: no saved index in %s (run with -save-index first)", *loadIndex)
		}
		indexDir = *loadIndex
	}

	var ds *dataset.Dataset
	var err error
	if *inBinary != "" {
		if *in != "" {
			return fmt.Errorf("-in and -in-binary are mutually exclusive")
		}
		var closeDS func() error
		ds, closeDS, err = dataset.OpenBinary(*inBinary, persist.MmapSupported)
		if err != nil {
			return err
		}
		defer closeDS()
	} else {
		var r io.Reader = os.Stdin
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		if ds, err = dataset.ReadCSV(r); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "lshcluster: loaded %s\n", ds)
	if *writeBinary != "" {
		if err := dataset.WriteBinary(ds, *writeBinary); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "lshcluster: wrote binary dataset to %s\n", *writeBinary)
	}

	var space *kmodes.Space
	switch *initMethod {
	case "random":
		space, err = kmodes.NewSpace(ds, kmodes.Config{K: *k, Seed: *seed})
	case "huang":
		var seeds []int32
		if seeds, err = kmodes.InitHuang(ds, *k, *seed); err == nil {
			space, err = kmodes.NewSpaceFromSeeds(ds, seeds, kmodes.Config{Seed: *seed})
		}
	case "cao":
		var seeds []int32
		if seeds, err = kmodes.InitCao(ds, *k); err == nil {
			space, err = kmodes.NewSpaceFromSeeds(ds, seeds, kmodes.Config{Seed: *seed})
		}
	default:
		return fmt.Errorf("unknown -init %q (want random, huang or cao)", *initMethod)
	}
	if err != nil {
		return err
	}
	opts := core.Options{
		MaxIterations: *maxIter,
		EarlyAbandon:  *abandon,
		Workers:       *workers,
		IndexDir:      indexDir,
		SnapshotEvery: *snapshotEvery,
		OnIteration: func(it runstats.Iteration) {
			fmt.Fprintf(stderr, "lshcluster: iter %d: %v, %d moves, avg shortlist %.2f\n",
				it.Index, it.Duration.Round(it.Duration/100+1), it.Moves, it.AvgShortlist)
		},
	}
	if *lowestTie {
		opts.TieBreak = core.TieBreakLowestIndex
	}
	if !*exact {
		accel, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: *bands, Rows: *rows}, uint64(*seed))
		if err != nil {
			return err
		}
		opts.Accelerator = accel
		if *workers > 1 {
			opts.Update = core.UpdateDeferred
		}
	}
	res, err := core.Run(space, opts)
	if err != nil {
		return err
	}
	run := res.Stats
	fmt.Fprintf(stderr, "lshcluster: bootstrap %v (sign %v, build %v, assign %v)\n",
		run.Bootstrap.Round(time.Millisecond),
		run.BootstrapSign.Round(time.Millisecond),
		run.BootstrapBuild.Round(time.Millisecond),
		run.BootstrapAssign.Round(time.Millisecond))
	if run.WarmStart {
		fmt.Fprintf(stderr, "lshcluster: warm start: index loaded from %s in %v (skipped signing, build and first scan)\n",
			indexDir, run.IndexLoadTime.Round(time.Millisecond))
	} else if indexDir != "" {
		fmt.Fprintf(stderr, "lshcluster: cold start: index built and saved to %s in %v\n",
			indexDir, run.IndexSaveTime.Round(time.Millisecond))
	}
	if run.MmapBytes > 0 {
		fmt.Fprintf(stderr, "lshcluster: index served zero-copy from a %d KiB memory mapping\n", run.MmapBytes/1024)
	}
	if run.ResumedAt > 1 {
		fmt.Fprintf(stderr, "lshcluster: resumed from checkpoint at iteration %d\n", run.ResumedAt)
	}
	if *exact {
		run.Name = "K-Modes"
	} else {
		run.Name = fmt.Sprintf("MH-K-Modes %db %dr", *bands, *rows)
	}
	if ds.Labeled() {
		p, err := metrics.Purity(res.Assign, ds.Labels())
		if err != nil {
			return err
		}
		run.Purity = p
	}
	if err := runstats.WriteSummaryMarkdown(stdout, []*runstats.Run{&run}); err != nil {
		return err
	}

	if *assignOut != "" {
		if err := writeAssignments(*assignOut, res.Assign); err != nil {
			return err
		}
	}
	if *modelOut != "" {
		f, err := os.Create(*modelOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := space.Model().Save(f); err != nil {
			return err
		}
	}
	if *statsCSV != "" {
		f, err := os.Create(*statsCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := runstats.WriteCSV(f, []*runstats.Run{&run}); err != nil {
			return err
		}
	}
	return nil
}

func writeAssignments(path string, assign []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write([]string{"item", "cluster"}); err != nil {
		return err
	}
	for i, c := range assign {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.Itoa(int(c))}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

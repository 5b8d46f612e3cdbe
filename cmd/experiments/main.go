// Command experiments regenerates the paper's evaluation: Tables I–II
// and Figures 2–10, printing the same rows and series the paper reports.
//
// Workloads are scaled-down replicas by default (-scale 0.05); pass
// -scale 1 for paper-sized runs (hours of CPU). Raw per-iteration series
// can additionally be dumped as CSV with -csv.
//
// Timings include the bootstrap, whose signing, index construction and
// first assignment run on every CPU the Go runtime uses, as do the
// K-Modes mode update's table build and each pass's fold of the moves;
// the passes run on one goroutine. Run under GOMAXPROCS=1 to reproduce
// the one-core setting of the paper's figures.
//
// Examples:
//
//	experiments -all
//	experiments -fig 2 -scale 0.1
//	experiments -table 1 -table 2
//	experiments -fig 7 -fig 8 -csv out/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"lshcluster/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

type intList []int

func (l *intList) String() string {
	parts := make([]string, len(*l))
	for i, v := range *l {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

func (l *intList) Set(s string) error {
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return err
		}
		*l = append(*l, v)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var figs, tables intList
	fs.Var(&figs, "fig", "figure to regenerate (2–10); repeatable or comma-separated")
	fs.Var(&tables, "table", "table to regenerate (1 or 2); repeatable")
	all := fs.Bool("all", false, "regenerate both tables and all figures")
	scale := fs.Float64("scale", 0.05, "workload scale relative to the paper (1 = paper size)")
	seed := fs.Int64("seed", 1, "random seed")
	maxIter := fs.Int("maxiter", 30, "iteration cap for synthetic figures")
	csvDir := fs.String("csv", "", "directory for raw per-iteration CSV dumps")
	quiet := fs.Bool("quiet", false, "suppress progress logging")
	if err := fs.Parse(args); err != nil {
		return err
	}
	suite := experiments.NewSuite(experiments.Config{
		Scale:         *scale,
		Seed:          *seed,
		MaxIterations: *maxIter,
		Out:           stdout,
		CSVDir:        *csvDir,
		Quiet:         *quiet,
	})
	if *all {
		return suite.All()
	}
	if len(figs) == 0 && len(tables) == 0 {
		return fmt.Errorf("nothing to do: pass -all, -fig or -table (see -h)")
	}
	for _, t := range tables {
		if err := suite.Table(t); err != nil {
			return err
		}
	}
	for _, f := range figs {
		if err := suite.Figure(f); err != nil {
			return err
		}
	}
	return nil
}

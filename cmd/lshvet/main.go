// Command lshvet is the repo's multichecker: it loads the requested
// packages and runs every analyzer in internal/analysis over them,
// printing findings one per line and exiting non-zero when any exist.
//
// Usage:
//
//	go run ./cmd/lshvet ./...
//	go run ./cmd/lshvet -dir /path/to/module ./internal/... ./cmd/...
//
// The suite (see internal/README.md for the full contracts):
//
//	oraclecheck   only tests set core.Oracles, each field in some test; no public oracles
//	kernelcheck   hot loops route through internal/kernel
//	ctxpollcheck  per-item driver loops poll Options.Context
//	statscheck    runstats structs and the CSV columns table agree
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"lshcluster/internal/analysis"
	"lshcluster/internal/analysis/ctxpollcheck"
	"lshcluster/internal/analysis/kernelcheck"
	"lshcluster/internal/analysis/oraclecheck"
	"lshcluster/internal/analysis/statscheck"
)

// Suite is every analyzer lshvet runs, in reporting-name order.
var Suite = []*analysis.Analyzer{
	ctxpollcheck.Analyzer,
	kernelcheck.Analyzer,
	oraclecheck.Analyzer,
	statscheck.Analyzer,
}

func main() {
	dir := flag.String("dir", ".", "module directory to analyse")
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: lshvet [-dir module] [packages]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range Suite {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(Main(*dir, patterns, os.Stdout, os.Stderr))
}

// Main loads dir's packages matching patterns, runs the suite, writes
// findings to stdout, and returns the process exit code: 0 clean, 1
// findings, 2 load or analysis failure.
func Main(dir string, patterns []string, stdout, stderr io.Writer) int {
	prog, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "lshvet: %v\n", err)
		return 2
	}
	diags, err := analysis.Run(prog, Suite)
	if err != nil {
		fmt.Fprintf(stderr, "lshvet: %v\n", err)
		return 2
	}
	for _, d := range diags {
		fmt.Fprintf(stdout, "%s\n", d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lshvet: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

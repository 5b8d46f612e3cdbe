// Command workledger checks a perfbench result line against the
// committed work ledger (ledger.json beside this file): the seed-1
// values, per workload, of the deterministic work counters a traced
// run prints. Timings move with the host; these counters move only
// when the program does different work, so any difference fails.
//
// A change that alters the work on purpose updates the workload's
// entry in ledger.json, like a golden file, and says why in its
// change notes.
//
// Usage:
//
//	bash perfbench/run.sh --workload kmodes-cold --seed 1 --seconds 1 --trace 1 | tail -n 1 |
//		go run ./scripts/workledger -ledger scripts/workledger/ledger.json -workload kmodes-cold
//
// The result line is the last non-empty line of standard input. Exit
// codes: 0 every counter equals the ledger, 1 a counter differs or is
// missing, 2 a usage, I/O or decoding failure.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// counters are the ledger's deterministic work counters.
var counters = []string{
	"core.comparisons",
	"core.evaluated_items",
	"core.moves",
	"core.iterations",
	"core.first_scan_comparisons",
	"lsh.query_positions",
	"lsh.buckets",
	"lsh.reverse_sources",
	"kmodes.moves_applied",
	"stream.comparisons",
	"persist.written_mib",
	"setup.persist.written_mib",
}

// ledger maps workload → counter → its committed seed-1 value.
type ledger map[string]map[string]float64

func main() {
	path := flag.String("ledger", "scripts/workledger/ledger.json", "committed ledger file")
	workload := flag.String("workload", "", "workload the result line belongs to")
	flag.Parse()
	os.Exit(run(*path, *workload, os.Stdin, os.Stdout, os.Stderr))
}

// run checks the result line on in against the ledger at path and
// returns the exit code.
func run(path, workload string, in io.Reader, stdout, stderr io.Writer) int {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "workledger:", err)
		return 2
	}
	var led ledger
	if err := json.Unmarshal(raw, &led); err != nil {
		fmt.Fprintf(stderr, "workledger: %s: %v\n", path, err)
		return 2
	}
	input, err := io.ReadAll(in)
	if err != nil {
		fmt.Fprintln(stderr, "workledger:", err)
		return 2
	}
	diffs, err := check(led, workload, input)
	if err != nil {
		fmt.Fprintln(stderr, "workledger:", err)
		return 2
	}
	for _, d := range diffs {
		fmt.Fprintf(stdout, "workledger: %s: %s\n", workload, d)
	}
	if len(diffs) > 0 {
		fmt.Fprintf(stdout, "workledger: %s: %d counter(s) differ from %s\n", workload, len(diffs), path)
		return 1
	}
	fmt.Fprintf(stdout, "workledger: %s: %d counters equal the ledger\n", workload, len(counters))
	return 0
}

// check compares every counter of the result line (the last non-empty
// line of input) with the workload's ledger entry and describes each
// difference. A counter the ledger or the line lacks is a difference.
func check(led ledger, workload string, input []byte) ([]string, error) {
	want, ok := led[workload]
	if !ok {
		return nil, fmt.Errorf("workload %q is not in the ledger", workload)
	}
	lines := bytes.Split(bytes.TrimSpace(input), []byte("\n"))
	var line struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return nil, fmt.Errorf("decoding the result line: %w", err)
	}
	var diffs []string
	for _, name := range counters {
		w, inLedger := want[name]
		g, inLine := line.Metrics[name]
		switch {
		case !inLedger:
			diffs = append(diffs, fmt.Sprintf("%s is not in the ledger (the run reports %v)", name, g.Value))
		case !inLine:
			diffs = append(diffs, fmt.Sprintf("%s is missing from the result line (ledger %v)", name, w))
		case g.Value != w:
			diffs = append(diffs, fmt.Sprintf("%s = %v, ledger %v", name, g.Value, w))
		}
	}
	return diffs, nil
}

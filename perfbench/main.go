// Command perfbench is the repository's benchmark: four workloads run
// through the library's public entry points, each timed from outside in
// fresh processes, with a separate traced run that splits the time by
// layer. See README.md for the workloads, the metrics and how to run it.
//
//	perfbench --workload kmodes-cold --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"
)

// minReps is the fewest timed runs one benchmark run makes; it keeps
// making more while another fits in --seconds.
const minReps = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	wname := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames))
	seed := fs.Int64("seed", defaultSeed, "input seed")
	secs := fs.Int("seconds", 20, "measurement budget in seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	role := fs.String("role", "", "internal: child role (timed or setup)")
	work := fs.String("work", "", "internal: child work directory")
	identity := fs.String("identity", "", "internal: kmodes-warm set-up digest to reproduce")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*wname]; !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *wname, workloadNames)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if *secs < 1 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1\n")
		return 2
	}
	if *role != "" {
		r := runChild(childArgs{
			workload: *wname, seed: *seed, work: *work, traced: *traced == 1,
			setup: *role == "setup", identity: *identity,
		})
		if err := json.NewEncoder(stdout).Encode(r); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		return 0
	}
	line, err := orchestrate(*wname, *seed, time.Duration(*secs)*time.Second, *traced == 1, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// orchestrate runs kmodes-warm's set-up (if any) in its own process, then
// fresh timed processes until the budget is spent, then, for a traced
// run, one traced process; it returns the result line.
func orchestrate(w string, seed int64, budget time.Duration, traced bool, log io.Writer) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("%s-%d-%d", w, seed, os.Getpid())))
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", err
	}
	defer os.RemoveAll(work)
	// A child that crashes or reports nothing counts as one failed
	// operation; the run goes on so the result line still prints.
	spawn := func(extra ...string) repResult {
		args := append([]string{"--workload", w, "--seed", strconv.FormatInt(seed, 10), "--work", work}, extra...)
		r, err := spawnChild(self, args, log)
		if err != nil {
			return repResult{Workload: w, Seed: seed, Attempted: 1, Failed: 1, Failures: []string{err.Error()}}
		}
		return r
	}

	// The budget covers the set-up process too, and a traced run keeps
	// one untraced run's worth of it for the traced process.
	start := time.Now()
	var all []repResult
	var setup *repResult
	if workloads[w].setup != nil {
		tr := "0"
		if traced {
			tr = "1"
		}
		r := spawn("--role", "setup", "--trace", tr)
		setup = &r
		all = append(all, r)
	}

	var timed []repResult
	for {
		extra := []string{"--role", "timed", "--trace", "0"}
		if setup != nil && len(timed) == 0 {
			extra = append(extra, "--identity", setup.Digest)
		}
		repStart := time.Now()
		r := spawn(extra...)
		timed = append(timed, r)
		all = append(all, r)
		next := time.Since(repStart)
		if traced {
			next *= 2
		}
		if len(timed) >= minReps && time.Since(start)+next > budget {
			break
		}
	}
	var tracedRep *repResult
	if traced {
		r := spawn("--role", "timed", "--trace", "1")
		tracedRep = &r
		all = append(all, r)
	}
	return summarize(w, all, timed, setup, tracedRep, log)
}

// spawnChild runs one child process and decodes its report from the last
// line of its standard output; its standard error passes through.
func spawnChild(self string, args []string, log io.Writer) (repResult, error) {
	var out bytes.Buffer
	cmd := exec.Command(self, args...)
	cmd.Stdout = &out
	cmd.Stderr = log
	if err := cmd.Run(); err != nil {
		return repResult{}, fmt.Errorf("child %v: %w", args, err)
	}
	var last []byte
	sc := bufio.NewScanner(&out)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var r repResult
	if err := json.Unmarshal(last, &r); err != nil {
		return repResult{}, fmt.Errorf("child %v: decoding report: %w", args, err)
	}
	return r, nil
}

// metric is one entry of the result line's metrics object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics with their units, as
// BENCHMARK.json declares them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"total_s", "s"}, {"cpu_s", "s"}, {"rss_peak_mib", "MiB"},
	{"purity", "frac"},
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	for _, s := range []struct{ suffix, unit string }{
		{"_s", "s"}, {"_us", "us"}, {"_mib", "MiB"}, {"_frac", "frac"},
		{"_yield", "frac"}, {"_mean", "count"},
	} {
		if len(name) > len(s.suffix) && name[len(name)-len(s.suffix):] == s.suffix {
			return s.unit
		}
	}
	return "count"
}

// summarize aggregates the runs into the result line: medians over the
// quiet timed runs for the end-to-end metrics, or the traced run's
// per-layer metrics. Every failed check counts, and the line always
// prints.
func summarize(w string, all, timed []repResult, setup, tracedRep *repResult, log io.Writer) (string, error) {
	attempted, failed := 0, 0
	for _, r := range all {
		attempted += r.Attempted
		failed += r.Failed
		for _, f := range r.Failures {
			fmt.Fprintf(log, "perfbench: %s seed %d: check failed: %s\n", w, r.Seed, f)
		}
	}
	// Every run of one seed must produce the same assignment.
	var digests []string
	for _, r := range all {
		if !r.Setup && r.Digest != "" && !slices.Contains(digests, r.Digest) {
			digests = append(digests, r.Digest)
		}
	}
	if len(digests) > 1 {
		fmt.Fprintf(log, "perfbench: %s: runs of one seed disagree: digests %v\n", w, digests)
		failed++
	}
	metrics := map[string]metric{}
	for _, r := range timed {
		fmt.Fprintf(log, "perfbench: %s rep: total_s=%.4f setup_s=%.4f cpu_s=%.4f rss=%.1fMiB steal=%.4f gc=%v iters=%d purity=%v digest=%s\n",
			w, r.Metrics["total_s"], r.Metrics["setup_s"], r.Metrics["cpu_s"], r.Metrics["rss_peak_mib"],
			r.Diag["host.steal_frac"], r.Diag["runtime.gc_count"], r.Iterations, r.Metrics["purity"], r.Digest)
	}
	kept := quiet(timed)
	fmt.Fprintf(log, "perfbench: %s: medians over %d of %d timed processes (host steal at most %g, or the least disturbed)\n",
		w, len(kept), len(timed), quietSteal)
	medianOf := func(name string) float64 {
		var xs []float64
		for _, r := range kept {
			if v, ok := r.Metrics[name]; ok {
				xs = append(xs, v)
			}
		}
		return median(xs)
	}
	if tracedRep == nil {
		for _, m := range endToEnd {
			metrics[m.name] = metric{medianOf(m.name), m.unit}
		}
	} else {
		// Diagnostics every child records come from the traced run,
		// except the stream's latency percentiles, which are medians over
		// the untraced runs: tracing would inflate them.
		for _, name := range layerNames {
			v := tracedRep.Layers[name]
			if d, ok := tracedRep.Diag[name]; ok {
				v = d
			}
			if strings.HasPrefix(name, "stream.add_p") {
				v = medianDiag(kept, name)
			}
			metrics[name] = metric{v, layerUnit(name)}
		}
		if base := medianOf("total_s"); base > 0 {
			metrics["trace.overhead_frac"] = metric{tracedRep.Metrics["total_s"]/base - 1, "frac"}
		}
		for _, name := range setupLayerNames {
			var v float64
			if setup != nil {
				v = setup.Layers[name]
			}
			metrics["setup."+name] = metric{v, layerUnit(name)}
		}
		printAttribution(log, w, tracedRep, setup)
	}
	// A metric no run could measure prints as 0 and fails the run, so
	// the line still prints.
	for name, m := range metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(log, "perfbench: %s: %s could not be measured\n", w, name)
			metrics[name] = metric{0, m.Unit}
			failed++
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{failed == 0 && attempted > 0, attempted, failed, metrics})
	return string(line), err
}

// quietSteal is the host steal share above which a timed process counts
// as disturbed. On a shared host, processes that saw more than a few
// percent of steal ran markedly slower in both wall and CPU time while
// the program did the same work, so the end-to-end medians are taken over
// the quiet processes; when fewer than two were quiet, over the two that
// saw the least steal. Every process still counts in attempted and failed.
const quietSteal = 0.05

// quiet selects the timed processes the medians are taken over.
func quiet(timed []repResult) []repResult {
	var measured, kept []repResult
	for _, r := range timed {
		if len(r.Metrics) > 0 {
			measured = append(measured, r)
		}
	}
	for _, r := range measured {
		if r.Diag["host.steal_frac"] <= quietSteal {
			kept = append(kept, r)
		}
	}
	if len(kept) >= 2 {
		return kept
	}
	slices.SortStableFunc(measured, func(a, b repResult) int {
		return cmp.Compare(a.Diag["host.steal_frac"], b.Diag["host.steal_frac"])
	})
	return measured[:min(2, len(measured))]
}

// medianDiag is the median of a diagnostic over runs, 0 when none has it.
func medianDiag(runs []repResult, name string) float64 {
	var xs []float64
	for _, r := range runs {
		if v, ok := r.Diag[name]; ok {
			xs = append(xs, v)
		}
	}
	if len(xs) == 0 {
		return 0
	}
	return median(xs)
}

// printAttribution writes the traced run's wall-time split to the log.
func printAttribution(log io.Writer, w string, r, setup *repResult) {
	show := func(label string, r *repResult) {
		if r == nil || r.Wall == nil {
			return
		}
		fmt.Fprintf(log, "perfbench: %s wall-time attribution (%s, total %.3f s):\n", w, label, r.Metrics["total_s"])
		names := make([]string, 0, len(r.Wall))
		for n := range r.Wall {
			names = append(names, n)
		}
		slices.SortFunc(names, func(a, b string) int {
			switch {
			case r.Wall[a] > r.Wall[b]:
				return -1
			case r.Wall[a] < r.Wall[b]:
				return 1
			}
			return 0
		})
		for _, n := range names {
			fmt.Fprintf(log, "  %-26s %8.4f s\n", n, r.Wall[n])
		}
		fmt.Fprintf(log, "  %-26s %8.4f s\n", "(unattributed)", r.Layers["trace.unattributed_s"])
	}
	show("traced run", r)
	show("set-up", setup)
}

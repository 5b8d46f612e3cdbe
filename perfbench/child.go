package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"syscall"
)

// repResult is what one child process reports: one timed run of one
// workload, or kmodes-warm's set-up.
type repResult struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Setup      bool               `json:"setup"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Digest     string             `json:"digest"`
	Iterations int                `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
	Diag       map[string]float64 `json:"diag"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	// Wall lists each traced span kind's share of wall time, seconds.
	Wall map[string]float64 `json:"wall,omitempty"`
}

// workload binds a name to its preparation; setup, when set, is run once
// per benchmark run in its own process before the timed runs.
type workload struct {
	prepare func(seed int64, work string) (measured, error)
	setup   func(seed int64, work string) (measured, error)
}

var workloads = map[string]workload{
	wKModesCold: {prepare: prepareKModesCold},
	wKModesWarm: {prepare: prepareKModesWarm, setup: prepareKModesWarmSetup},
	wStream:     {prepare: prepareStream},
	wKMeans:     {prepare: prepareKMeans},
}

// defaultSeed is the seed the pinned results below were recorded with.
const defaultSeed = 1

// pin is the expected result of a workload at defaultSeed: the digest of
// its final assignment (the training and streamed assignments on the
// stream), its iteration count (the training run's on the stream) and
// its purity.
type pin struct {
	digest     string
	iterations int
	purity     float64
}

var pins = map[string]pin{
	wKModesCold: {"9a3896a2f8a3a6a5", 8, 0.76137},
	wKModesWarm: {"3810491c9ff4c3b9", 7, 0.75863},
	wStream:     {"8fed014a4dff5ee7", 6, 0.8601055555555556},
	wKMeans:     {"2de12a728062fe34", 18, 0.778},
}

// childArgs are the flags a parent passes to a child process.
type childArgs struct {
	workload string
	seed     int64
	work     string
	traced   bool
	setup    bool
	// identity, when set, is the digest kmodes-warm's set-up produced;
	// the child re-runs the set-up's options warm and must match it.
	identity string
}

// runChild prepares the inputs, runs the workload once with a clean heap
// and a fresh peak-RSS mark, checks the outputs and returns the report.
func runChild(a childArgs) repResult {
	r := repResult{Workload: a.workload, Seed: a.seed, Setup: a.setup,
		Metrics: map[string]float64{}, Diag: map[string]float64{}}
	w := workloads[a.workload]
	prep := w.prepare
	if a.setup {
		prep = w.setup
	}
	run, err := prep(a.seed, a.work)
	if err != nil {
		r.Attempted, r.Failed = 1, 1
		r.Failures = append(r.Failures, fmt.Sprintf("preparing inputs: %v", err))
		return r
	}
	var t *tracer
	if a.traced {
		t = newTracer()
	}
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: cannot reset peak RSS: %v\n", err)
	}
	heap := startHeapSampler()
	o, err := runGuarded(run, t)
	heapPeak := heap.stop()
	if a.setup {
		// The saved index must reach the disk before any timed run
		// starts, so its write-back cannot overlap one.
		syscall.Sync()
	}
	if err != nil {
		o.failed++
		o.failures = append(o.failures, err.Error())
	}
	r.Iterations = len(o.stats.Iterations)
	if o.assign != nil {
		r.Digest = digest(o.trainAssign, o.assign)
		r.Metrics["purity"] = o.purity()
	}
	r.Metrics["setup_s"] = o.setup.Seconds()
	r.Metrics["total_s"] = o.total.Seconds()
	r.Metrics["cpu_s"] = o.use.cpu.Seconds()
	r.Metrics["rss_peak_mib"] = float64(o.use.rssPeak) / (1 << 20)
	if o.addLat != nil {
		for name, p := range map[string]float64{"stream.add_p50_us": 0.5, "stream.add_p99_us": 0.99, "stream.add_p9999_us": 0.9999} {
			v, err := percentile(o.addLat, p)
			if err != nil {
				o.fail("%s: %v", name, err)
				continue
			}
			r.Diag[name] = v / 1e3
		}
	}
	r.Diag["runtime.gc_count"] = float64(o.use.gcCount)
	r.Diag["runtime.gc_pause_s"] = o.use.gcPause.Seconds()
	r.Diag["runtime.heap_peak_mib"] = float64(heapPeak) / (1 << 20)
	r.Diag["host.steal_frac"] = o.use.stealFrac
	if err == nil && !a.setup {
		checkPin(o, &r, a)
		if a.identity != "" {
			got, err := warmMatchesSetup(a.seed, a.work)
			switch {
			case err != nil:
				o.fail("warm identity re-run: %v", err)
			case got != a.identity:
				o.fail("warm re-run of the set-up's options gave digest %s, set-up's cold run %s", got, a.identity)
			}
		}
	}
	if t != nil && err == nil {
		r.Layers, r.Wall = layerMetrics(o, t)
		if a.setup {
			r.Layers["persist.written_mib"] = float64(dirBytes(indexDir(a.work))) / (1 << 20)
		}
	}
	r.Attempted, r.Failed = max(o.attempted, 1), o.failedOps()
	r.Failures = o.failures
	return r
}

// runGuarded runs the measured part, turning a panic into an error.
func runGuarded(run measured, t *tracer) (o *outcome, err error) {
	defer func() {
		if p := recover(); p != nil {
			if o == nil {
				o = &outcome{}
			}
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	o, err = run(t)
	if o == nil {
		o = &outcome{}
	}
	return o, err
}

// checkPin compares a default-seed run with its pinned result.
func checkPin(o *outcome, r *repResult, a childArgs) {
	want, ok := pins[a.workload]
	if a.seed != defaultSeed || !ok {
		return
	}
	if r.Digest != want.digest {
		o.fail("assignment digest %s, pinned %s", r.Digest, want.digest)
	}
	if r.Iterations != want.iterations {
		o.fail("%d iterations, pinned %d", r.Iterations, want.iterations)
	}
	if got := r.Metrics["purity"]; math.Abs(got-want.purity) > 1e-12 {
		o.fail("purity %v, pinned %v", got, want.purity)
	}
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

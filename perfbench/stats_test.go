package main

import (
	"encoding/json"
	"io"
	"os"
	"slices"
	"testing"
	"time"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// p90 of 100 samples leaves exactly ten beyond it: reportable.
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Errorf("p90 = %v, %v; want 90, nil", v, err)
	}
	// p95 and p99 leave five and one: refused.
	for _, p := range []float64{0.95, 0.99} {
		if v, err := percentile(xs, p); err == nil {
			t.Errorf("p%g of 100 samples = %v, want a refusal", 100*p, v)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

func TestShardBuildWall(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// Four shards on two lanes: lane 0 builds shards 0 and 2, lane 1
	// builds 1 and 3.
	times := []time.Duration{ms(10), ms(30), ms(20), ms(5)}
	if got := shardBuildWall(times, 2); got != ms(35) {
		t.Errorf("two lanes: %v, want 35ms", got)
	}
	if got := shardBuildWall(times, 8); got != ms(30) {
		t.Errorf("a lane per shard: %v, want 30ms", got)
	}
	if got := shardBuildWall(times[:1], 2); got != ms(10) {
		t.Errorf("one shard: %v, want 10ms", got)
	}
}

// TestTamperedDigestFails pins a wrong digest and checks that the run
// fails its check and that the result line counts it.
func TestTamperedDigestFails(t *testing.T) {
	const name = "tampered"
	pins[name] = pin{digest: "0000000000000000", iterations: 3, purity: 0.5}
	defer delete(pins, name)

	r := repResult{Workload: name, Seed: defaultSeed, Iterations: 3,
		Digest:  digest([]int32{0, 1, 1, 2}),
		Metrics: map[string]float64{}, Diag: map[string]float64{}}
	for _, m := range endToEnd {
		r.Metrics[m.name] = 1
	}
	r.Metrics["purity"] = 0.5
	o := &outcome{attempted: 1}
	checkPin(o, &r, childArgs{workload: name, seed: defaultSeed})
	if len(o.failures) != 1 || o.failedOps() != 1 {
		t.Fatalf("tampered digest: failures %q, failed ops %d; want one of each", o.failures, o.failedOps())
	}
	r.Attempted, r.Failed, r.Failures = 1, o.failedOps(), o.failures

	line, err := summarize(name, []repResult{r}, []repResult{r}, nil, nil, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Correct           bool
		Attempted, Failed int
	}
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if got.Correct || got.Attempted != 1 || got.Failed != 1 {
		t.Errorf("result line %s: want correct false, attempted 1, failed 1", line)
	}

	// The untampered pin passes.
	pins[name] = pin{digest: r.Digest, iterations: 3, purity: 0.5}
	o = &outcome{attempted: 1}
	checkPin(o, &r, childArgs{workload: name, seed: defaultSeed})
	if len(o.failures) != 0 {
		t.Errorf("matching pin failed: %q", o.failures)
	}
}

// TestBenchmarkJSONMatchesOutput keeps BENCHMARK.json and the metrics the
// benchmark prints in step: same names, same units, same workloads.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var wantE2E, wantLayer []entry
	for _, m := range endToEnd {
		wantE2E = append(wantE2E, entry{m.name, m.unit})
	}
	for _, n := range layerNames {
		wantLayer = append(wantLayer, entry{n, layerUnit(n)})
	}
	for _, n := range setupLayerNames {
		wantLayer = append(wantLayer, entry{"setup." + n, layerUnit(n)})
	}
	if !slices.Equal(spec.EndToEnd, wantE2E) {
		t.Errorf("end_to_end = %v, the benchmark prints %v", spec.EndToEnd, wantE2E)
	}
	if !slices.Equal(spec.PerLayer, wantLayer) {
		t.Errorf("per_layer = %v, the benchmark prints %v", spec.PerLayer, wantLayer)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("workloads = %v, the benchmark runs %v", names, workloadNames)
	}
}

func TestQuietSelection(t *testing.T) {
	rep := func(total, steal float64) repResult {
		return repResult{Metrics: map[string]float64{"total_s": total}, Diag: map[string]float64{"host.steal_frac": steal}}
	}
	crashed := repResult{Attempted: 1, Failed: 1}
	totals := func(rs []repResult) []float64 {
		var xs []float64
		for _, r := range rs {
			xs = append(xs, r.Metrics["total_s"])
		}
		return xs
	}
	// Disturbed processes are left out when at least two were quiet.
	got := totals(quiet([]repResult{rep(1, 0.01), rep(9, 0.2), crashed, rep(2, 0.05), rep(3, 0.0)}))
	if !slices.Equal(got, []float64{1, 2, 3}) {
		t.Errorf("quiet processes: %v, want [1 2 3]", got)
	}
	// Otherwise the two least disturbed are kept.
	got = totals(quiet([]repResult{rep(5, 0.3), rep(4, 0.08), rep(6, 0.01), crashed}))
	if !slices.Equal(got, []float64{6, 4}) {
		t.Errorf("least disturbed: %v, want [6 4]", got)
	}
	if got := quiet([]repResult{crashed}); len(got) != 0 {
		t.Errorf("crashed processes selected: %v", got)
	}
}

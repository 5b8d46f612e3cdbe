package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// resultLine renders a perfbench-style result line whose metrics are
// vals, plus a timing that the ledger ignores.
func resultLine(t *testing.T, vals map[string]float64) []byte {
	t.Helper()
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]metric{"total_s": {1.234, "s"}}
	for name, v := range vals {
		metrics[name] = metric{v, "count"}
	}
	line, err := json.Marshal(struct {
		Correct bool              `json:"correct"`
		Failed  int               `json:"failed"`
		Metrics map[string]metric `json:"metrics"`
	}{true, 0, metrics})
	if err != nil {
		t.Fatal(err)
	}
	return line
}

func sampleLedger() ledger {
	entry := map[string]float64{}
	for i, name := range counters {
		entry[name] = float64(1000 * (i + 1))
	}
	entry["setup.persist.written_mib"] = 117.10025215148926
	return ledger{"w": entry}
}

func TestCheckEqualCountersPass(t *testing.T) {
	led := sampleLedger()
	// Build output before the line must not matter.
	input := append([]byte("building...\n"), resultLine(t, led["w"])...)
	diffs, err := check(led, "w", append(input, '\n'))
	if err != nil || len(diffs) != 0 {
		t.Fatalf("check = %v, %v; want no differences", diffs, err)
	}
}

func TestCheckChangedCounterFails(t *testing.T) {
	led := sampleLedger()
	for _, name := range counters {
		vals := map[string]float64{}
		for k, v := range led["w"] {
			vals[k] = v
		}
		vals[name]++
		diffs, err := check(led, "w", resultLine(t, vals))
		if err != nil {
			t.Fatal(err)
		}
		if len(diffs) != 1 || !strings.HasPrefix(diffs[0], name+" = ") {
			t.Errorf("%s changed: diffs %q, want one naming it", name, diffs)
		}
	}
}

func TestCheckMissingCounterFails(t *testing.T) {
	led := sampleLedger()
	vals := map[string]float64{}
	for k, v := range led["w"] {
		vals[k] = v
	}
	delete(vals, "lsh.buckets")
	if diffs, _ := check(led, "w", resultLine(t, vals)); len(diffs) != 1 {
		t.Errorf("counter missing from the line: diffs %q, want one", diffs)
	}
	delete(led["w"], "core.moves")
	if diffs, _ := check(led, "w", resultLine(t, vals)); len(diffs) != 2 {
		t.Errorf("counter missing from the ledger too: diffs %q, want two", diffs)
	}
}

func TestCheckErrors(t *testing.T) {
	led := sampleLedger()
	if _, err := check(led, "nope", resultLine(t, led["w"])); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := check(led, "w", []byte("not json\n")); err == nil {
		t.Error("undecodable line accepted")
	}
}

func TestRunExitCodes(t *testing.T) {
	led := sampleLedger()
	path := filepath.Join(t.TempDir(), "ledger.json")
	raw, err := json.Marshal(led)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	changed := map[string]float64{}
	for k, v := range led["w"] {
		changed[k] = v
	}
	changed["core.iterations"] = 9
	for _, tc := range []struct {
		path, workload string
		in             []byte
		code           int
	}{
		{path, "w", resultLine(t, led["w"]), 0},
		{path, "w", resultLine(t, changed), 1},
		{path, "x", resultLine(t, led["w"]), 2},
		{filepath.Join(t.TempDir(), "absent.json"), "w", resultLine(t, led["w"]), 2},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.path, tc.workload, bytes.NewReader(tc.in), &out, &errOut); code != tc.code {
			t.Errorf("run(%s) = %d, want %d; stdout %q stderr %q", tc.workload, code, tc.code, out.String(), errOut.String())
		}
	}
}

// TestCommittedLedgerComplete: the committed ledger lists every counter
// for each of the four benchmark workloads.
func TestCommittedLedgerComplete(t *testing.T) {
	raw, err := os.ReadFile("ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	var led ledger
	if err := json.Unmarshal(raw, &led); err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"kmodes-cold", "kmodes-warm", "stream-ingest", "kmeans-simhash"} {
		entry, ok := led[w]
		if !ok {
			t.Errorf("ledger lacks workload %s", w)
			continue
		}
		if len(entry) != len(counters) {
			t.Errorf("%s: %d entries, want %d", w, len(entry), len(counters))
		}
		for _, name := range counters {
			if _, ok := entry[name]; !ok {
				t.Errorf("%s: ledger lacks %s", w, name)
			}
		}
	}
}

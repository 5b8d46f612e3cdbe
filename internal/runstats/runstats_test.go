package runstats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func sampleRun() *Run {
	return &Run{
		Name:            "MH-K-Modes 20b 5r",
		Bootstrap:       100 * time.Millisecond,
		BootstrapSign:   40 * time.Millisecond,
		BootstrapBuild:  10 * time.Millisecond,
		BootstrapAssign: 45 * time.Millisecond,
		IndexSaveTime:   8 * time.Millisecond,
		MmapBytes:       4096,
		ResumedAt:       1,
		Iterations: []Iteration{
			{Index: 1, Duration: 50 * time.Millisecond, Moves: 40, Comparisons: 900,
				CandidatesTotal: 120, AvgShortlist: 1.2, Cost: 420},
			{Index: 2, Duration: 30 * time.Millisecond, Moves: 0, Comparisons: 800,
				CandidatesTotal: 110, AvgShortlist: 1.1, Cost: 400},
		},
		Converged: true,
		Purity:    0.91,
	}
}

func TestAggregates(t *testing.T) {
	r := sampleRun()
	if r.Total() != 180*time.Millisecond {
		t.Fatalf("Total = %v", r.Total())
	}
	if r.NumIterations() != 2 {
		t.Fatalf("NumIterations = %d", r.NumIterations())
	}
	if r.MeanIterationTime() != 40*time.Millisecond {
		t.Fatalf("MeanIterationTime = %v", r.MeanIterationTime())
	}
	if r.TotalMoves() != 40 {
		t.Fatalf("TotalMoves = %d", r.TotalMoves())
	}
	empty := &Run{Name: "x"}
	if empty.MeanIterationTime() != 0 {
		t.Fatal("mean of no iterations should be 0")
	}
}

func TestSpeedup(t *testing.T) {
	fast := sampleRun()
	slow := sampleRun()
	slow.Iterations = append(slow.Iterations, Iteration{Index: 3, Duration: 180 * time.Millisecond})
	if got := fast.Speedup(slow); got != 2 {
		t.Fatalf("Speedup = %v, want 2", got)
	}
	zero := &Run{}
	if zero.Speedup(fast) != 0 {
		t.Fatal("zero-duration run should report 0 speedup")
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Run{sampleRun()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 { // header + bootstrap row + 2 iterations
		t.Fatalf("CSV has %d lines:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "run,iteration,duration_ms") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasSuffix(lines[0], "bootstrap_assign_ms,index_save_ms,index_load_ms,mmap_bytes") {
		t.Fatalf("header missing phase / persistence columns: %q", lines[0])
	}
	if !strings.Contains(lines[1], ",0,100") {
		t.Fatalf("bootstrap row = %q", lines[1])
	}
	if !strings.HasSuffix(lines[1], ",40,10,45,8,0,4096") {
		t.Fatalf("bootstrap row missing phase split and persistence columns: %q", lines[1])
	}
	if !strings.Contains(lines[2], ",1,50,40,900,1.2,420") {
		t.Fatalf("iteration row = %q", lines[2])
	}
	if !strings.HasSuffix(lines[2], "420,0,0,,,,,,") {
		t.Fatalf("iteration row should leave phase and persistence columns empty: %q", lines[2])
	}
}

// TestWriteCSVGolden pins the exact bytes of the long format: the
// column table refactor (and any future edit to it) must not move,
// rename or reformat a column without this test noticing.
func TestWriteCSVGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Run{sampleRun()}); err != nil {
		t.Fatal(err)
	}
	want := "run,iteration,duration_ms,moves,comparisons,avg_shortlist,cost,active_items,skipped_items,bootstrap_sign_ms,bootstrap_build_ms,bootstrap_assign_ms,index_save_ms,index_load_ms,mmap_bytes\n" +
		"MH-K-Modes 20b 5r,0,100,,,,,,,40,10,45,8,0,4096\n" +
		"MH-K-Modes 20b 5r,1,50,40,900,1.2,420,0,0,,,,,,\n" +
		"MH-K-Modes 20b 5r,2,30,0,800,1.1,400,0,0,,,,,,\n"
	if got := buf.String(); got != want {
		t.Fatalf("CSV bytes changed:\ngot:\n%swant:\n%s", got, want)
	}
}

// TestHeaderMatchesColumns guards the derived accessors against drift
// from the table itself.
func TestHeaderMatchesColumns(t *testing.T) {
	h := Header()
	if len(h) != len(columns) {
		t.Fatalf("Header has %d names for %d columns", len(h), len(columns))
	}
	seen := map[string]bool{}
	for i, c := range columns {
		if h[i] != c.name {
			t.Fatalf("Header[%d] = %q, column %d is %q", i, h[i], i, c.name)
		}
		if c.name == "" || seen[c.name] {
			t.Fatalf("column %d name %q empty or duplicated", i, c.name)
		}
		seen[c.name] = true
		if c.boot == nil || c.iter == nil {
			t.Fatalf("column %q missing a row renderer", c.name)
		}
	}
}

func TestWriteSummaryMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSummaryMarkdown(&buf, []*Run{sampleRun()}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"| run |", "MH-K-Modes 20b 5r", "0.9100", "| 2 |", "true"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestCSVHandlesNaNCost(t *testing.T) {
	r := sampleRun()
	r.Iterations[0].Cost = math.NaN()
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Run{r}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NaN") {
		t.Fatal("NaN cost should serialise as NaN")
	}
}

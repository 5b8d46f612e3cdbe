package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestClusterChaosDegradedReport pins the CLI's degraded-mode surface:
// a chaos spec with a dead shard completes the run and prints the
// DEGRADED accounting line on stderr.
func TestClusterChaosDegradedReport(t *testing.T) {
	in := writeWorkload(t)
	var out, errw bytes.Buffer
	err := run([]string{
		"-in", in, "-k", "10", "-bands", "10", "-rows", "2",
		"-shards", "4", "-chaos-spec", "seed=1;err=0.05;shard2.dead",
	}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "DEGRADED:") {
		t.Fatalf("stderr missing DEGRADED line:\n%s", errw.String())
	}
}

// TestClusterChaosZeroFaultQuiet: a zero-fault spec must not print the
// degraded line, and must produce the same summary as the direct path.
func TestClusterChaosZeroFaultQuiet(t *testing.T) {
	in := writeWorkload(t)
	runOnce := func(extra ...string) (string, string) {
		var out, errw bytes.Buffer
		args := append([]string{"-in", in, "-k", "10", "-bands", "10", "-rows", "2", "-shards", "3"}, extra...)
		if err := run(args, &out, &errw); err != nil {
			t.Fatal(err)
		}
		return out.String(), errw.String()
	}
	refOut, _ := runOnce()
	gotOut, gotErr := runOnce("-chaos-spec", "seed=3", "-no-hedging", "-retry-budget", "1", "-hedge-after", "1ms")
	if strings.Contains(gotErr, "DEGRADED:") {
		t.Fatalf("zero-fault run printed DEGRADED:\n%s", gotErr)
	}
	// Compare the summary row minus its wall-clock columns (bootstrap,
	// mean iter, total are indices 4–6 of the markdown row).
	row := func(out string) []string {
		for _, line := range strings.Split(out, "\n") {
			if strings.Contains(line, "MH-K-Modes") {
				cells := strings.Split(line, "|")
				return append(cells[:4:4], cells[7:]...)
			}
		}
		t.Fatalf("summary row missing:\n%s", out)
		return nil
	}
	ref, got := row(refOut), row(gotOut)
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("summaries diverged at cell %d: direct %q, chaos %q", i, ref[i], got[i])
		}
	}
}

// TestClusterChaosSpecRejected pins CLI spec validation.
func TestClusterChaosSpecRejected(t *testing.T) {
	in := writeWorkload(t)
	var out, errw bytes.Buffer
	err := run([]string{
		"-in", in, "-k", "10", "-bands", "10", "-rows", "2",
		"-shards", "2", "-chaos-spec", "bogus=1",
	}, &out, &errw)
	if err == nil || !strings.Contains(err.Error(), "invalid chaos spec") {
		t.Fatalf("err = %v, want invalid chaos spec", err)
	}
}

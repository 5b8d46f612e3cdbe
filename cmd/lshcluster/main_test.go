package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmodes"
)

func writeWorkload(t *testing.T) string {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Items: 200, Clusters: 10, Attrs: 16, Domain: 500,
		MinRuleFrac: 0.6, MaxRuleFrac: 0.9, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in.csv")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := dataset.WriteCSV(f, ds); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestClusterAccelerated(t *testing.T) {
	in := writeWorkload(t)
	dir := t.TempDir()
	assign := filepath.Join(dir, "assign.csv")
	stats := filepath.Join(dir, "stats.csv")
	model := filepath.Join(dir, "model.gob")
	var out, errw bytes.Buffer
	err := run([]string{
		"-in", in, "-k", "10", "-bands", "10", "-rows", "2",
		"-assign", assign, "-stats", stats, "-model", model,
	}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "MH-K-Modes 10b 2r") {
		t.Fatalf("summary missing run name: %q", out.String())
	}

	f, err := os.Open(assign)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 201 { // header + 200 items
		t.Fatalf("assignment rows = %d", len(recs))
	}

	sf, err := os.ReadFile(stats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sf), "run,iteration") {
		t.Fatal("stats CSV missing header")
	}

	mf, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	m, err := kmodes.LoadModel(mf)
	if err != nil {
		t.Fatal(err)
	}
	if m.K != 10 || m.M != 16 {
		t.Fatalf("model shape (%d,%d)", m.K, m.M)
	}
}

func TestClusterExact(t *testing.T) {
	in := writeWorkload(t)
	var out, errw bytes.Buffer
	err := run([]string{"-in", in, "-k", "10", "-exact"}, &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "K-Modes") {
		t.Fatalf("summary missing: %q", out.String())
	}
	// Purity column should be a real number for labelled input.
	if strings.Contains(out.String(), "NaN") {
		t.Fatalf("purity not computed: %q", out.String())
	}
}

func TestClusterFlagsRejected(t *testing.T) {
	var out, errw bytes.Buffer
	if err := run([]string{"-k", "0"}, &out, &errw); err == nil {
		t.Fatal("expected error for missing -k")
	}
	if err := run([]string{"-in", "/nonexistent.csv", "-k", "3"}, &out, &errw); err == nil {
		t.Fatal("expected error for missing input")
	}
	in := writeWorkload(t)
	if err := run([]string{"-in", in, "-k", "3", "-init", "bogus"}, &out, &errw); err == nil {
		t.Fatal("expected error for unknown init method")
	}
	// No flag selects a reference path (those are core.Oracles fields,
	// which only tests set), caps the mapped index's residency or shards
	// the index.
	for _, removed := range [][]string{
		{"-scalar-kernels"}, {"-no-incremental"}, {"-no-active-filter"},
		{"-no-parallel-bootstrap"}, {"-no-reorder"}, {"-mmap-index=false"},
		{"-shard-memory-budget", "1024"}, {"-shards", "3"},
	} {
		args := append([]string{"-in", in, "-k", "3"}, removed...)
		err := run(args, &out, &errw)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Fatalf("%v: err = %v, want an undefined-flag parse error", removed, err)
		}
	}
}

func TestClusterInitMethods(t *testing.T) {
	in := writeWorkload(t)
	for _, init := range []string{"random", "huang", "cao"} {
		var out, errw bytes.Buffer
		err := run([]string{"-in", in, "-k", "10", "-exact", "-init", init}, &out, &errw)
		if err != nil {
			t.Fatalf("init %s: %v", init, err)
		}
		if !strings.Contains(out.String(), "K-Modes") {
			t.Fatalf("init %s: no summary", init)
		}
	}
}

// TestClusterBootstrapModes checks the per-phase bootstrap report of
// the parallel sign → build → assign pipeline. Its serial oracle is no
// CLI flag: internal/core's TestOraclesMatchDefault checks it.
func TestClusterBootstrapModes(t *testing.T) {
	in := writeWorkload(t)
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-in", in, "-k", "10", "-bands", "10", "-rows", "2",
		"-workers", "2", "-seed", "3"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	for _, phase := range []string{"lshcluster: bootstrap ", "(sign ", ", build ", ", assign "} {
		if !strings.Contains(stderr.String(), phase) {
			t.Fatalf("stderr missing %q of the bootstrap phase report: %q", phase, stderr.String())
		}
	}
}

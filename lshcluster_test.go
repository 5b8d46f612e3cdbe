package lshcluster

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"lshcluster/internal/core"
	"lshcluster/internal/kmodes"
)

func syntheticDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := GenerateSynthetic(SyntheticConfig{
		Items: 300, Clusters: 15, Attrs: 20, Domain: 300,
		MinRuleFrac: 0.6, MaxRuleFrac: 0.9, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestClusterExactAndAccelerated(t *testing.T) {
	ds := syntheticDataset(t)
	exact, err := Cluster(ds, Config{K: 15, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.Name != "K-Modes" {
		t.Fatalf("name = %q", exact.Stats.Name)
	}
	mh, err := Cluster(ds, Config{K: 15, Seed: 2, LSH: &Params{Bands: 15, Rows: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if mh.Stats.Name != "MH-K-Modes 15b2r" {
		t.Fatalf("name = %q", mh.Stats.Name)
	}
	if len(mh.Assign) != ds.NumItems() {
		t.Fatal("assignment length mismatch")
	}
	// Identical seeds → identical initial centroids → comparable purity.
	if mh.Stats.Purity < exact.Stats.Purity-0.15 {
		t.Fatalf("purity: mh=%v exact=%v", mh.Stats.Purity, exact.Stats.Purity)
	}
	if mh.Model == nil || mh.Model.K != 15 {
		t.Fatal("model missing")
	}
}

func TestClusterOptionsPlumbing(t *testing.T) {
	ds := syntheticDataset(t)
	res, err := Cluster(ds, Config{
		K: 15, Seed: 2, LSH: &Params{Bands: 10, Rows: 2},
		Workers:         3,
		DeferredUpdates: true,
		LowestIndexTies: true,
		EarlyAbandon:    true,
		MaxIterations:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.NumIterations() > 4 {
		t.Fatal("iteration cap ignored")
	}
	calls := 0
	_, err = Cluster(ds, Config{K: 5, MaxIterations: 2, OnIteration: func(Iteration) { calls++ }})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnIteration not invoked")
	}
}

// runWithOracles runs cfg's MinHash K-Modes clustering through core.Run
// with the facade's own option plumbing plus the given oracles, which
// the facade Config does not expose.
func runWithOracles(t *testing.T, ds *Dataset, cfg Config, oracles core.Oracles) *core.Result {
	t.Helper()
	space, err := kmodes.NewSpace(ds, kmodes.Config{K: cfg.K, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	accel, err := core.NewMinHashAccelerator(ds, *cfg.LSH, uint64(cfg.Seed)+0x9e37)
	if err != nil {
		t.Fatal(err)
	}
	opts := cfg.coreOptions()
	opts.Accelerator = accel
	opts.Oracles = oracles
	res, err := core.Run(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterParallelBootstrapEquivalence checks the facade-level A/B:
// a four-worker run under GOMAXPROCS 4 and the serial reference, one
// worker with the same deferred updates under GOMAXPROCS 1, whose
// bootstrap runs on one goroutine, must produce identical clusterings,
// and the parallel pipeline must report its phase split.
func TestClusterParallelBootstrapEquivalence(t *testing.T) {
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	ds := syntheticDataset(t)
	cfg := Config{K: 15, Seed: 2, LSH: &Params{Bands: 10, Rows: 2}, Workers: 4, MaxIterations: 6}
	par, err := Cluster(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	serCfg := cfg
	serCfg.Workers, serCfg.DeferredUpdates = 1, true
	runtime.GOMAXPROCS(1)
	ser, err := Cluster(ds, serCfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range par.Assign {
		if par.Assign[i] != ser.Assign[i] {
			t.Fatalf("assign[%d]: parallel %d, serial %d", i, par.Assign[i], ser.Assign[i])
		}
	}
	if par.Stats.BootstrapSign <= 0 || par.Stats.BootstrapBuild <= 0 || par.Stats.BootstrapAssign <= 0 {
		t.Fatalf("parallel bootstrap phases not recorded: sign=%v build=%v assign=%v",
			par.Stats.BootstrapSign, par.Stats.BootstrapBuild, par.Stats.BootstrapAssign)
	}
}

// TestClusterDisableIncrementalEquivalence checks the facade-level
// incremental-engine A/B: forcing full recomputation each pass (the
// batch oracle) must produce the identical clustering.
func TestClusterDisableIncrementalEquivalence(t *testing.T) {
	ds := syntheticDataset(t)
	cfg := Config{K: 15, Seed: 2, LSH: &Params{Bands: 10, Rows: 2}, MaxIterations: 6}
	fast, err := Cluster(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	oracle := runWithOracles(t, ds, cfg, core.Oracles{DisableIncremental: true})
	for i := range oracle.Assign {
		if oracle.Assign[i] != fast.Assign[i] {
			t.Fatalf("assign[%d]: incremental %d, batch oracle %d", i, fast.Assign[i], oracle.Assign[i])
		}
	}
}

func TestClusterErrors(t *testing.T) {
	ds := syntheticDataset(t)
	if _, err := Cluster(ds, Config{K: 0}); err == nil {
		t.Fatal("expected error for K=0")
	}
	if _, err := Cluster(ds, Config{K: 5, LSH: &Params{Bands: 0, Rows: 1}}); err == nil {
		t.Fatal("expected error for invalid LSH params")
	}
}

func TestClusterNumeric(t *testing.T) {
	pts, labels, err := GenerateBlobs(BlobsConfig{Points: 200, Clusters: 5, Dim: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := ClusterNumeric(pts, 3, Config{K: 5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Stats.Name != "K-Means" {
		t.Fatalf("name = %q", exact.Stats.Name)
	}
	if len(exact.Centroids) != 15 {
		t.Fatalf("centroids length = %d", len(exact.Centroids))
	}
	sh, err := ClusterNumeric(pts, 3, Config{K: 5, Seed: 9, LSH: &Params{Bands: 6, Rows: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sh.Stats.Name, "SimHash-K-Means") {
		t.Fatalf("name = %q", sh.Stats.Name)
	}
	pe, err := Purity(exact.Assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	ps, err := Purity(sh.Assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	if ps < pe-0.15 {
		t.Fatalf("purity: simhash=%v exact=%v", ps, pe)
	}
}

func TestCSVRoundTripFacade(t *testing.T) {
	ds := syntheticDataset(t)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumItems() != ds.NumItems() {
		t.Fatal("round trip lost items")
	}
}

func TestTextPipelineFacade(t *testing.T) {
	corpus, err := GenerateCorpus(CorpusConfig{Topics: 8, QuestionsPerTopic: 15, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	scorer := NewScorer()
	byTopic := make([][]string, 8)
	for _, q := range corpus.Questions {
		byTopic[q.Topic] = append(byTopic[q.Topic], q.Tokens...)
	}
	for i, toks := range byTopic {
		scorer.AddTopic(corpus.TopicNames[i], toks)
	}
	vocab, err := scorer.SelectVocabulary(VocabConfig{Threshold: 0.3, Stopwords: DefaultStopwords()})
	if err != nil {
		t.Fatal(err)
	}
	docs := make([]Document, len(corpus.Questions))
	for i, q := range corpus.Questions {
		docs[i] = Document{Tokens: q.Tokens, Label: q.Topic}
	}
	ds, err := BuildBinaryDataset(docs, vocab)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Cluster(ds, Config{K: 8, Seed: 1, LSH: &Params{Bands: 1, Rows: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Purity <= 0 || res.Stats.Purity > 1 {
		t.Fatalf("purity = %v", res.Stats.Purity)
	}
}

func TestTokenizeFacade(t *testing.T) {
	got := Tokenize("Does a Zoologist work in a zoo?")
	if strings.Join(got, " ") != "does a zoologist work in a zoo" {
		t.Fatalf("Tokenize = %v", got)
	}
}

func TestParamsHelpers(t *testing.T) {
	p, ok := SearchParams(0.3, 10, 0.9, 64, 8)
	if !ok || p.ClusterHitProb(0.3, 10) < 0.9 {
		t.Fatalf("SearchParams = %v, %v", p, ok)
	}
	if len(TableI()) == 0 || len(TableII()) == 0 {
		t.Fatal("probability tables empty")
	}
}

func TestWriteRunHelpers(t *testing.T) {
	ds := syntheticDataset(t)
	res, err := Cluster(ds, Config{K: 5, Seed: 1, MaxIterations: 3})
	if err != nil {
		t.Fatal(err)
	}
	var md, csv bytes.Buffer
	if err := WriteRunSummary(&md, []*Run{&res.Stats}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(md.String(), "K-Modes") {
		t.Fatalf("summary: %q", md.String())
	}
	if err := WriteRunCSV(&csv, []*Run{&res.Stats}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "run,iteration") {
		t.Fatalf("csv: %q", csv.String())
	}
}

func TestModelRoundTripFacade(t *testing.T) {
	ds := syntheticDataset(t)
	res, err := Cluster(ds, Config{K: 5, Seed: 1, MaxIterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := m.Predict(ds.Row(0))
	if c < 0 || c >= 5 {
		t.Fatalf("Predict = %d", c)
	}
}

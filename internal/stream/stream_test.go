package stream

import (
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/metrics"
)

func streamWorkload(t *testing.T) (*dataset.Dataset, []dataset.Value) {
	t.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Items: 600, Clusters: 20, Attrs: 24, Domain: 500,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Initial modes: items 0..19 — one per ground-truth cluster.
	modes := make([]dataset.Value, 0, 20*24)
	for c := 0; c < 20; c++ {
		modes = append(modes, ds.Row(c)...)
	}
	return ds, modes
}

func TestConfigValidation(t *testing.T) {
	_, modes := streamWorkload(t)
	bad := []Config{
		{Params: lsh.Params{Bands: 0, Rows: 1}, NumAttrs: 24, InitialModes: modes},
		{Params: lsh.Params{Bands: 4, Rows: 2}, NumAttrs: 0, InitialModes: modes},
		{Params: lsh.Params{Bands: 4, Rows: 2}, NumAttrs: 24, InitialModes: modes[:5]},
		{Params: lsh.Params{Bands: 4, Rows: 2}, NumAttrs: 24},
	}
	for i, cfg := range bad {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New succeeded, want error", i)
		}
	}
}

func TestStreamingRecoversClusters(t *testing.T) {
	ds, modes := streamWorkload(t)
	c, err := New(Config{
		Params:       lsh.Params{Bands: 20, Rows: 2},
		Seed:         3,
		InitialModes: modes,
		NumAttrs:     24,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ds.NumItems(); i++ {
		if _, err := c.Add(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if c.NumItems() != ds.NumItems() {
		t.Fatalf("NumItems = %d", c.NumItems())
	}
	p, err := metrics.Purity(c.Assignments(), ds.Labels())
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.9 {
		t.Fatalf("streaming purity = %v, want ≥ 0.9 on separable data", p)
	}
	st := c.Stats()
	if st.Items != ds.NumItems() {
		t.Fatalf("stats items = %d", st.Items)
	}
	// Early items full-scan (empty index); later items hit the index.
	if st.FullScans == 0 {
		t.Fatal("expected some full scans at stream start")
	}
	if st.FullScans >= st.Items {
		t.Fatal("index never produced a shortlist")
	}
	avgCand := float64(st.CandidatesTotal) / float64(st.Items)
	if avgCand >= 20 {
		t.Fatalf("avg candidates %v not below k", avgCand)
	}
}

func TestStreamingModesTrackData(t *testing.T) {
	_, modes := streamWorkload(t)
	c, err := New(Config{
		Params: lsh.Params{Bands: 4, Rows: 2}, Seed: 1,
		InitialModes: modes, NumAttrs: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]dataset.Value, 24)
	for a := range row {
		row[a] = dataset.Value(90000 + a) // unlike any mode
	}
	cl, err := c.Add(row, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Add the same row repeatedly: the receiving cluster's mode must
	// converge to it (frequency-based updating).
	for i := 0; i < 5; i++ {
		if _, err := c.Add(row, nil); err != nil {
			t.Fatal(err)
		}
	}
	mode := c.Mode(cl)
	for a := range row {
		if mode[a] != row[a] {
			t.Fatalf("mode attr %d = %v, want %v", a, mode[a], row[a])
		}
	}
}

func TestStreamingPresenceMask(t *testing.T) {
	_, modes := streamWorkload(t)
	c, err := New(Config{
		Params: lsh.Params{Bands: 2, Rows: 1}, Seed: 1,
		InitialModes: modes, NumAttrs: 24,
	})
	if err != nil {
		t.Fatal(err)
	}
	row := make([]dataset.Value, 24)
	for a := range row {
		row[a] = dataset.Value(a + 1)
	}
	present := make([]bool, 24) // all absent → empty set → full scan
	if _, err := c.Add(row, present); err != nil {
		t.Fatal(err)
	}
	if c.Stats().FullScans != 1 {
		t.Fatalf("full scans = %d, want 1", c.Stats().FullScans)
	}
	if _, err := c.Add(row, []bool{true}); err == nil {
		t.Fatal("expected presence-arity error")
	}
	if _, err := c.Add(row[:3], nil); err == nil {
		t.Fatal("expected row-arity error")
	}
}

// TestPresenceMaskExcludedFromModes is the regression test for the
// frequency-fold bug: Add used to fold the *full* row into the
// frequency table, so the placeholder values of absent attributes were
// counted as observations and could take over the evolving mode. Only
// present values may vote.
func TestPresenceMaskExcludedFromModes(t *testing.T) {
	c, err := New(Config{
		Params: lsh.Params{Bands: 2, Rows: 1}, Seed: 1,
		InitialModes: []dataset.Value{1, 1, 1, 1}, NumAttrs: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Attribute 0 is observed with value 9; attributes 1–3 carry the
	// placeholder 9 but are absent.
	row := []dataset.Value{9, 9, 9, 9}
	present := []bool{true, false, false, false}
	for i := 0; i < 5; i++ {
		if _, err := c.Add(row, present); err != nil {
			t.Fatal(err)
		}
	}
	mode := c.Mode(0)
	if mode[0] != 9 {
		t.Fatalf("observed attribute: mode[0] = %v, want 9", mode[0])
	}
	for a := 1; a < 4; a++ {
		if mode[a] != 1 {
			t.Fatalf("absent attribute %d: placeholder value leaked into the mode (= %v, want 1)", a, mode[a])
		}
	}
}

// TestPresenceMaskExcludedFromDistance pins the documented
// missing-data distance semantics: an absent attribute neither matches
// nor mismatches.
func TestPresenceMaskExcludedFromDistance(t *testing.T) {
	c, err := New(Config{
		Params: lsh.Params{Bands: 2, Rows: 1}, Seed: 1,
		// Mode 0 = [5 5], mode 1 = [9 7].
		InitialModes: []dataset.Value{5, 5, 9, 7}, NumAttrs: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Attribute 0 = 9 (observed), attribute 1 = 5 (absent). Masked
	// distance: 1 to mode 0, 0 to mode 1. Counting the absent slot
	// would instead tie them at 1 and elect cluster 0.
	cl, err := c.Add([]dataset.Value{9, 5}, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if cl != 1 {
		t.Fatalf("assigned cluster %d, want 1 (absent attribute must not count)", cl)
	}
}

func TestFromModel(t *testing.T) {
	ds, modes := streamWorkload(t)
	model := &kmodes.Model{K: 20, M: 24, Modes: modes}
	c, err := FromModel(model, lsh.Params{Bands: 10, Rows: 2}, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := c.Add(ds.Row(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	snap := c.Model()
	if snap.K != 20 || snap.M != 24 {
		t.Fatalf("model shape (%d,%d)", snap.K, snap.M)
	}
}

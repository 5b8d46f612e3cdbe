package lsh

import (
	"math"
	"testing"
	"testing/quick"
)

func TestParamsValidate(t *testing.T) {
	if err := (Params{Bands: 20, Rows: 5}).Validate(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []Params{{0, 1}, {1, 0}, {-2, 3}} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%v) succeeded, want error", p)
		}
	}
}

// TestParamsValidateSignatureLenBound pins the signature-length bound:
// Bands·Rows ≤ math.MaxInt32 passes, one more fails, and so does every
// banding whose product would wrap around an int.
func TestParamsValidateSignatureLenBound(t *testing.T) {
	const big = math.MaxInt>>1 + 1 // 1<<62 on 64-bit platforms; ×4 wraps to 0
	for _, tc := range []struct {
		p  Params
		ok bool
	}{
		{Params{Bands: big, Rows: 4}, false},
		{Params{Bands: math.MaxInt, Rows: 2}, false},
		{Params{Bands: 2, Rows: math.MaxInt}, false},
		{Params{Bands: 1, Rows: math.MaxInt32}, true},
		{Params{Bands: math.MaxInt32, Rows: 1}, true},
		{Params{Bands: 2, Rows: math.MaxInt32 / 2}, true},
		{Params{Bands: 2, Rows: math.MaxInt32/2 + 1}, false},
		{Params{Bands: 46341, Rows: 46340}, true},
		{Params{Bands: 46341, Rows: 46341}, false},
	} {
		err := tc.p.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("Validate(%d bands, %d rows) = %v, want ok=%v", tc.p.Bands, tc.p.Rows, err, tc.ok)
		}
	}
}

func TestSignatureLenAndString(t *testing.T) {
	p := Params{Bands: 20, Rows: 5}
	if p.SignatureLen() != 100 {
		t.Fatalf("SignatureLen = %d, want 100", p.SignatureLen())
	}
	if p.String() != "20b5r" {
		t.Fatalf("String = %q, want 20b5r", p.String())
	}
}

func TestCandidateProbEdges(t *testing.T) {
	p := Params{Bands: 20, Rows: 5}
	if p.CandidateProb(0) != 0 || p.CandidateProb(-0.5) != 0 {
		t.Fatal("P(s≤0) must be 0")
	}
	if p.CandidateProb(1) != 1 || p.CandidateProb(1.5) != 1 {
		t.Fatal("P(s≥1) must be 1")
	}
}

func TestCandidateProbMonotone(t *testing.T) {
	check := func(b8, r8 uint8, s1, s2 float64) bool {
		p := Params{Bands: int(b8%50) + 1, Rows: int(r8%8) + 1}
		s1 = math.Abs(math.Mod(s1, 1))
		s2 = math.Abs(math.Mod(s2, 1))
		if s1 > s2 {
			s1, s2 = s2, s1
		}
		return p.CandidateProb(s1) <= p.CandidateProb(s2)+1e-12
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTableIAgainstPaper checks every cell of the paper's Table I.
// Two cells in the published table (bands=100 at s=0.001 and s=0.01) are
// inconsistent with the formula 1−(1−s^r)^b the paper itself states —
// the printed 0.009 equals the b=10 value and 0.3 matches no nearby
// configuration. We therefore verify those two against the formula and
// record the discrepancy (see EXPERIMENTS.md).
func TestTableIAgainstPaper(t *testing.T) {
	paper := []struct {
		bands                 int
		s, pairWant, clusWant float64
		erratum               bool
	}{
		{10, 0.01, 0.09, 0.61, false},
		{10, 0.1, 0.65, 1, false},
		{10, 0.2, 0.89, 1, false},
		{10, 0.5, 0.99, 1, false},
		{100, 0.001, 0.009, 0.09, true},
		{100, 0.01, 0.3, 0.97, true},
		{100, 0.1, 0.99, 1, false},
		{100, 0.5, 1, 1, false},
		{100, 0.8, 1, 1, false},
		{800, 0.0001, 0.07, 0.52, false},
		{800, 0.001, 0.55, 0.99, false},
		{800, 0.01, 0.99, 1, false},
		{800, 0.1, 1, 1, false},
	}
	rows := TableI()
	if len(rows) != len(paper) {
		t.Fatalf("TableI has %d rows, want %d", len(rows), len(paper))
	}
	for i, want := range paper {
		got := rows[i]
		if got.Bands != want.bands || got.Rows != 1 || got.Jaccard != want.s {
			t.Fatalf("row %d grid = (%d,%d,%v), want (%d,1,%v)",
				i, got.Bands, got.Rows, got.Jaccard, want.bands, want.s)
		}
		if want.erratum {
			// Verify our value obeys the formula instead.
			formula := 1 - math.Pow(1-want.s, float64(want.bands))
			if math.Abs(got.PairProb-formula) > 1e-12 {
				t.Errorf("row %d pair prob %v deviates from formula %v", i, got.PairProb, formula)
			}
			continue
		}
		if math.Abs(got.PairProb-want.pairWant) > 0.011 {
			t.Errorf("row %d (b=%d s=%v): pair prob %.4f, paper %.2f",
				i, want.bands, want.s, got.PairProb, want.pairWant)
		}
		if math.Abs(got.ClusterProb-want.clusWant) > 0.035 {
			t.Errorf("row %d (b=%d s=%v): cluster prob %.4f, paper %.2f",
				i, want.bands, want.s, got.ClusterProb, want.clusWant)
		}
	}
}

func TestTableIIAgainstPaper(t *testing.T) {
	paper := []struct {
		bands                 int
		s, pairWant, clusWant float64
	}{
		{10, 0.1, 0.0001, 0.001},
		{10, 0.2, 0.003, 0.03},
		{10, 0.5, 0.27, 0.96},
		{10, 0.8, 0.98, 1},
		{100, 0.1, 0.001, 0.01},
		{100, 0.5, 0.95, 1},
		{800, 0.1, 0.008, 0.08},
		{800, 0.2, 0.23, 0.93},
		{800, 0.3, 0.86, 1},
	}
	rows := TableII()
	if len(rows) != len(paper) {
		t.Fatalf("TableII has %d rows, want %d", len(rows), len(paper))
	}
	for i, want := range paper {
		got := rows[i]
		if got.Bands != want.bands || got.Rows != 5 || got.Jaccard != want.s {
			t.Fatalf("row %d grid mismatch", i)
		}
		if math.Abs(got.PairProb-want.pairWant) > 0.011 {
			t.Errorf("row %d (b=%d s=%v): pair prob %.4f, paper %.4f",
				i, want.bands, want.s, got.PairProb, want.pairWant)
		}
		if math.Abs(got.ClusterProb-want.clusWant) > 0.02 {
			t.Errorf("row %d (b=%d s=%v): cluster prob %.4f, paper %.4f",
				i, want.bands, want.s, got.ClusterProb, want.clusWant)
		}
	}
}

// TestFootnoteExample checks the §III-D footnote: 10 % pair probability
// and 50 candidate items give 1 − 0.9^50 ≈ 0.99.
func TestFootnoteExample(t *testing.T) {
	// Construct params whose pair prob at s is exactly 0.1 is awkward;
	// the footnote maths is 1−(1−0.1)^50, test ClusterHitProb's shape by
	// inverting: a Params{1,1} has CandidateProb(s)=s.
	p := Params{Bands: 1, Rows: 1}
	got := p.ClusterHitProb(0.1, 50)
	want := 1 - math.Pow(0.9, 50)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ClusterHitProb = %v, want %v", got, want)
	}
	if got < 0.99 {
		t.Fatalf("footnote example should be ≥ 0.99, got %v", got)
	}
}

// TestErrorBoundPaperExample reproduces §III-C: m=100, r=1, b=25, a
// cluster of 20 items → error probability ≈ 0.08.
func TestErrorBoundPaperExample(t *testing.T) {
	p := Params{Bands: 25, Rows: 1}
	got := p.ErrorBound(100, 20)
	if math.Abs(got-0.08) > 0.005 {
		t.Fatalf("ErrorBound(100,20) = %v, want ≈ 0.08", got)
	}
}

func TestErrorBoundMonotonicity(t *testing.T) {
	base := Params{Bands: 25, Rows: 1}
	if !(Params{Bands: 50, Rows: 1}.ErrorBound(100, 20) < base.ErrorBound(100, 20)) {
		t.Error("more bands must shrink the bound")
	}
	if !(base.ErrorBound(100, 40) < base.ErrorBound(100, 20)) {
		t.Error("larger clusters must shrink the bound")
	}
	if !(Params{Bands: 25, Rows: 2}.ErrorBound(100, 20) > base.ErrorBound(100, 20)) {
		t.Error("more rows must grow the bound")
	}
	if !(base.ErrorBound(200, 20) > base.ErrorBound(100, 20)) {
		t.Error("more attributes must grow the bound")
	}
	if b := base.ErrorBound(0, 20); b != 1 {
		t.Errorf("degenerate m must give trivial bound 1, got %v", b)
	}
	if b := base.ErrorBound(100, 0); b != 1 {
		t.Errorf("empty cluster must give trivial bound 1, got %v", b)
	}
}

func TestErrorBoundInUnitInterval(t *testing.T) {
	check := func(b8, r8, m8, c8 uint8) bool {
		p := Params{Bands: int(b8%100) + 1, Rows: int(r8%10) + 1}
		v := p.ErrorBound(int(m8)+1, int(c8)+1)
		return v >= 0 && v <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestThresholdSimilarity(t *testing.T) {
	// The paper calls (1/b)^(1/r) the steepest point of the S-curve,
	// "at which there is a 50% chance" — it is an approximation; the
	// exact probability at the threshold tends to 1−1/e. Accept a band
	// around one half.
	for _, p := range []Params{{20, 5}, {50, 5}, {100, 4}, {16, 8}} {
		s := p.ThresholdSimilarity()
		if s <= 0 || s >= 1 {
			t.Fatalf("threshold %v out of (0,1) for %v", s, p)
		}
		prob := p.CandidateProb(s)
		if prob < 0.4 || prob > 0.7 {
			t.Errorf("P(threshold) = %v for %v, want ≈ 0.5–0.63", prob, p)
		}
	}
}

func TestSearchParams(t *testing.T) {
	p, ok := SearchParams(0.3, 10, 0.95, 64, 8)
	if !ok {
		t.Fatal("no parameters found")
	}
	if got := p.ClusterHitProb(0.3, 10); got < 0.95 {
		t.Fatalf("found params %v reach only %v", p, got)
	}
	// Every cheaper configuration must miss the target.
	for r := 1; r <= 8; r++ {
		for b := 1; b <= 64; b++ {
			q := Params{Bands: b, Rows: r}
			if q.SignatureLen() < p.SignatureLen() && q.ClusterHitProb(0.3, 10) >= 0.95 {
				t.Fatalf("cheaper params %v also reach the target", q)
			}
		}
	}
	if _, ok := SearchParams(1e-9, 1, 0.999, 4, 2); ok {
		t.Fatal("impossible target should report !ok")
	}
}

func TestClusterHitProbDegenerate(t *testing.T) {
	p := Params{Bands: 20, Rows: 5}
	if p.ClusterHitProb(0.5, 0) != 0 {
		t.Fatal("zero cluster items must give probability 0")
	}
	if p.ClusterHitProb(0.5, -3) != 0 {
		t.Fatal("negative cluster items must give probability 0")
	}
}

package kmeans

import (
	"math"
	"testing"

	"lshcluster/internal/core"
	"lshcluster/internal/metrics"
)

func TestValidation(t *testing.T) {
	if _, err := NewSpace([]float64{1, 2, 3}, 2, Config{K: 1}); err == nil {
		t.Fatal("expected ragged-data error")
	}
	if _, err := NewSpace([]float64{1, 2}, 2, Config{K: 2}); err == nil {
		t.Fatal("expected k>n error")
	}
	if _, err := NewSpace([]float64{1, 2}, 0, Config{K: 1}); err == nil {
		t.Fatal("expected dim error")
	}
	if _, err := NewSpaceFromSeeds([]float64{1, 2}, 2, []int32{5}, Config{}); err == nil {
		t.Fatal("expected out-of-range seed error")
	}
	if _, err := NewSpaceFromSeeds([]float64{1, 2}, 2, nil, Config{}); err == nil {
		t.Fatal("expected empty-seed error")
	}
}

func TestDissimilarity(t *testing.T) {
	pts := []float64{0, 0, 3, 4}
	s, err := NewSpaceFromSeeds(pts, 2, []int32{0}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if d := s.Dissimilarity(1, 0); d != 25 {
		t.Fatalf("d = %v, want 25", d)
	}
	if d := s.Dissimilarity(0, 0); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
	if d := s.BoundedDissimilarity(1, 0, 5); d < 5 {
		t.Fatalf("bounded distance %v below bound", d)
	}
	if d := s.BoundedDissimilarity(1, 0, 100); d != 25 {
		t.Fatalf("bounded distance = %v, want 25", d)
	}
}

func TestRecomputeCentroidsMean(t *testing.T) {
	pts := []float64{0, 0, 2, 2, 10, 10}
	s, err := NewSpaceFromSeeds(pts, 2, []int32{0, 2}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.RecomputeCentroids([]int32{0, 0, 1})
	c0 := s.Centroid(0)
	if c0[0] != 1 || c0[1] != 1 {
		t.Fatalf("centroid 0 = %v, want (1,1)", c0)
	}
	c1 := s.Centroid(1)
	if c1[0] != 10 || c1[1] != 10 {
		t.Fatalf("centroid 1 = %v", c1)
	}
}

func TestEmptyClusterPolicies(t *testing.T) {
	pts := []float64{0, 0, 1, 1}
	s, err := NewSpaceFromSeeds(pts, 2, []int32{0, 1}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	s.RecomputeCentroids([]int32{0, 0})
	if c := s.Centroid(1); c[0] != 1 || c[1] != 1 {
		t.Fatalf("KeepCentroid failed: %v", c)
	}
	s2, err := NewSpaceFromSeeds(pts, 2, []int32{0, 1},
		Config{EmptyCluster: ReseedRandomPoint, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s2.RecomputeCentroids([]int32{0, 0})
	c := s2.Centroid(1)
	if !(c[0] == 0 && c[1] == 0) && !(c[0] == 1 && c[1] == 1) {
		t.Fatalf("reseeded centroid %v is not a data point", c)
	}
}

func TestCost(t *testing.T) {
	pts := []float64{0, 0, 1, 0}
	s, err := NewSpaceFromSeeds(pts, 2, []int32{0}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if c := s.Cost([]int32{0, 0}); c != 1 {
		t.Fatalf("cost = %v, want 1", c)
	}
}

func TestGenerateBlobs(t *testing.T) {
	pts, labels, err := GenerateBlobs(BlobsConfig{Points: 100, Clusters: 5, Dim: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 300 || len(labels) != 100 {
		t.Fatalf("shape = (%d,%d)", len(pts), len(labels))
	}
	counts := map[int32]int{}
	for _, l := range labels {
		counts[l]++
	}
	for c, n := range counts {
		if n != 20 {
			t.Fatalf("blob %d has %d points", c, n)
		}
	}
	if _, _, err := GenerateBlobs(BlobsConfig{Points: 0, Clusters: 1, Dim: 1}); err == nil {
		t.Fatal("expected config error")
	}
}

func TestBlobsDeterministic(t *testing.T) {
	a, _, err := GenerateBlobs(BlobsConfig{Points: 50, Clusters: 5, Dim: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := GenerateBlobs(BlobsConfig{Points: 50, Clusters: 5, Dim: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("blob generation not deterministic")
		}
	}
}

// TestExactKMeansRecoversBlobs runs the shared core driver over the
// K-Means space: the framework must be algorithm-agnostic.
func TestExactKMeansRecoversBlobs(t *testing.T) {
	pts, labels, err := GenerateBlobs(BlobsConfig{Points: 300, Clusters: 6, Dim: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int32, 6)
	for c := range seeds {
		seeds[c] = int32(c) // one point per true blob
	}
	s, err := NewSpaceFromSeeds(pts, 4, seeds, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Converged {
		t.Fatal("K-Means did not converge")
	}
	p, err := metrics.Purity(res.Assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	if p < 0.99 {
		t.Fatalf("purity = %v on well-separated blobs", p)
	}
	// The K-Means objective must be non-increasing.
	prev := math.Inf(1)
	for _, it := range res.Stats.Iterations {
		if it.Cost > prev+1e-9 {
			t.Fatalf("cost rose from %v to %v", prev, it.Cost)
		}
		prev = it.Cost
	}
}

// TestNearestScanMatchesDissimilarity checks the K-Means first scan
// against an ascending scan of Dissimilarity keeping the first strict
// minimum, under both kernel settings, for every k remainder mod 4. The
// points sit on a small integer grid, so distances are exact and tie
// often, and a few coordinates are NaN or ±Inf: a centroid copied from
// such a point has a NaN or infinite distance to every point.
func TestNearestScanMatchesDissimilarity(t *testing.T) {
	const n, dim = 60, 3
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	pts := make([]float64, n*dim)
	for i := range pts {
		pts[i] = float64(i * 7 % 5)
		if i%23 == 0 {
			pts[i] = special[i%len(special)]
		}
	}
	for k := 1; k <= 13; k++ {
		seeds := make([]int32, k)
		for c := range seeds {
			seeds[c] = int32((c*11 + 1) % n)
		}
		for _, scalar := range []bool{false, true} {
			s, err := NewSpaceFromSeeds(pts, dim, seeds, Config{})
			if err != nil {
				t.Fatal(err)
			}
			s.SetScalarKernels(scalar)
			out := make([]int32, n)
			s.NearestScan()(0, n, out)
			for i := range out {
				best, bestD := 0, s.Dissimilarity(i, 0)
				for c := 1; c < k; c++ {
					if d := s.Dissimilarity(i, c); d < bestD {
						best, bestD = c, d
					}
				}
				if out[i] != int32(best) {
					t.Fatalf("k=%d scalar=%v: item %d scanned to %d, want %d", k, scalar, i, out[i], best)
				}
			}
		}
	}
}

package simhash

import (
	"math"
	"testing"

	"lshcluster/internal/core"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/lsh"
	"lshcluster/internal/metrics"
)

func TestSchemeValidation(t *testing.T) {
	if _, err := NewScheme(0, 3, 1); err == nil {
		t.Fatal("expected bits error")
	}
	if _, err := NewScheme(4, 0, 1); err == nil {
		t.Fatal("expected dim error")
	}
}

func TestSignDeterministicAndBinary(t *testing.T) {
	s, err := NewScheme(32, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	vec := []float64{1, -2, 3, 0.5}
	a := s.Sign(vec, make([]uint64, 32))
	b := s.Sign(vec, make([]uint64, 32))
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("signatures differ across calls")
		}
		if a[i] != 0 && a[i] != 1 {
			t.Fatalf("bit %d = %d, want 0/1", i, a[i])
		}
	}
}

func TestSignPanics(t *testing.T) {
	s, _ := NewScheme(4, 2, 1)
	for _, c := range []struct {
		vec  []float64
		dst  []uint64
		want error
	}{
		{[]float64{1}, make([]uint64, 4), errSignDim},
		{[]float64{1, 2}, make([]uint64, 3), errSignLen},
	} {
		func() {
			defer func() {
				if got := recover(); got != c.want {
					t.Fatalf("Sign(dim %d, dst %d) panicked with %v, want %v", len(c.vec), len(c.dst), got, c.want)
				}
			}()
			s.Sign(c.vec, c.dst)
		}()
	}
}

// TestSignKernelsMatchScalar checks that signing four hyperplanes per
// pass gives the scalar reference's bits, for every plane count
// remainder mod 4 and short and long vectors, including vectors whose
// dot products are 0 (bit 1), NaN (bit 0) and infinite.
func TestSignKernelsMatchScalar(t *testing.T) {
	vecs := [][]float64{
		{0, 0, 0, 0, 0},
		{1, -2, 3, 0.5, -0.25},
		{math.NaN(), 1, 2, 3, 4},
		{math.Inf(1), 0, -1, 2, 5},
		{1e300, -1e300, 1e-300, 7, -7},
	}
	for bits := 1; bits <= 13; bits++ {
		for _, dim := range []int{1, 2, 5} {
			s, err := NewScheme(bits, dim, int64(bits*dim))
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range vecs {
				s.SetScalarKernels(false)
				got := s.Sign(v[:dim], make([]uint64, bits))
				s.SetScalarKernels(true)
				want := s.Sign(v[:dim], make([]uint64, bits))
				for b := range want {
					if got[b] != want[b] {
						t.Fatalf("bits=%d dim=%d vec %v: bit %d = %d, scalar %d", bits, dim, v[:dim], b, got[b], want[b])
					}
				}
			}
		}
	}
}

// TestAngleCollisionProperty: for random hyperplanes,
// P[bit agrees] = 1 − θ/π. Check opposite vectors disagree everywhere and
// identical vectors agree everywhere, and a 90° pair agrees about half
// the time.
func TestAngleCollisionProperty(t *testing.T) {
	s, err := NewScheme(4096, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	sig := func(v []float64) []uint64 { return s.Sign(v, make([]uint64, 4096)) }
	agree := func(a, b []uint64) float64 {
		n := 0
		for i := range a {
			if a[i] == b[i] {
				n++
			}
		}
		return float64(n) / float64(len(a))
	}
	x := sig([]float64{1, 0})
	same := sig([]float64{2, 0}) // same direction, different magnitude
	opp := sig([]float64{-1, 0})
	perp := sig([]float64{0, 1})
	if got := agree(x, same); got != 1 {
		t.Fatalf("same-direction agreement = %v, want 1", got)
	}
	if got := agree(x, opp); got > 0.001 {
		t.Fatalf("opposite agreement = %v, want ≈ 0", got)
	}
	if got := agree(x, perp); math.Abs(got-0.5) > 0.05 {
		t.Fatalf("perpendicular agreement = %v, want ≈ 0.5", got)
	}
}

func blobSpace(t *testing.T) (*kmeans.Space, []int32) {
	t.Helper()
	pts, labels, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{
		Points: 400, Clusters: 8, Dim: 6, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	seeds := make([]int32, 8)
	for c := range seeds {
		seeds[c] = int32(c)
	}
	s, err := kmeans.NewSpaceFromSeeds(pts, 6, seeds, kmeans.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s, labels
}

func TestAcceleratedKMeansMatchesExact(t *testing.T) {
	space, labels := blobSpace(t)
	exact, err := core.Run(space, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	space2, _ := blobSpace(t)
	accel, err := NewAccelerator(space2, lsh.Params{Bands: 8, Rows: 4}, 11)
	if err != nil {
		t.Fatal(err)
	}
	mh, err := core.Run(space2, core.Options{Accelerator: accel})
	if err != nil {
		t.Fatal(err)
	}
	pe, err := metrics.Purity(exact.Assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	pm, err := metrics.Purity(mh.Assign, labels)
	if err != nil {
		t.Fatal(err)
	}
	if pm < pe-0.05 {
		t.Fatalf("accelerated purity %v far below exact %v", pm, pe)
	}
	last := mh.Stats.Iterations[len(mh.Stats.Iterations)-1]
	if last.AvgShortlist >= 8 {
		t.Fatalf("shortlist %v not below k", last.AvgShortlist)
	}
}

func TestAcceleratorValidation(t *testing.T) {
	space, _ := blobSpace(t)
	if _, err := NewAccelerator(space, lsh.Params{Bands: 0, Rows: 1}, 1); err == nil {
		t.Fatal("expected params error")
	}
	a, err := NewAccelerator(space, lsh.Params{Bands: 2, Rows: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SignAll(1, nil); err == nil {
		t.Fatal("expected SignAll-before-Reset error")
	}
	if err := a.Reset(0); err == nil {
		t.Fatal("expected cluster-count error")
	}
}

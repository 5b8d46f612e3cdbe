package kernel

import (
	"math/rand"
	"testing"
)

// Kernel micro-benchmarks: each optimised kernel against its scalar
// reference, at the short row lengths the clustering hot paths use
// (m ≈ 24 categorical attributes, dim ≈ 32 numeric, 100-bit SimHash
// signatures, and the kmeans-simhash workload's 500 centroids, 144
// hyperplanes and dim 16) and one longer length for headroom. CI runs
// these and uploads bench-kernels.txt; the Kernel/Scalar ratio is the
// measured win the ROADMAP records.

const (
	benchShort = 24
	benchLong  = 256
)

func benchPair(n int) (x, y []uint32) {
	rng := rand.New(rand.NewSource(11))
	x = make([]uint32, n)
	y = make([]uint32, n)
	for i := range x {
		x[i] = rng.Uint32() % 64
		if rng.Float64() < 0.5 {
			y[i] = x[i]
		} else {
			y[i] = rng.Uint32() % 64
		}
	}
	return x, y
}

var sinkInt int
var sinkFloat float64

func benchMismatches(b *testing.B, n int, fn func(x, y []uint32) int) {
	x, y := benchPair(n)
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt = fn(x, y)
	}
}

func BenchmarkMismatchesScalar24(b *testing.B) {
	benchMismatches(b, benchShort, MismatchesScalar[uint32])
}
func BenchmarkMismatchesKernel24(b *testing.B) {
	benchMismatches(b, benchShort, Mismatches[uint32])
}
func BenchmarkMismatchesScalar256(b *testing.B) {
	benchMismatches(b, benchLong, MismatchesScalar[uint32])
}
func BenchmarkMismatchesKernel256(b *testing.B) {
	benchMismatches(b, benchLong, Mismatches[uint32])
}

func benchMismatchesBounded(b *testing.B, n int, fn func(x, y []uint32, bound int) int) {
	x, y := benchPair(n)
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A bound above the true count: the no-early-exit case the
		// best-so-far loop hits on every new winner.
		sinkInt = fn(x, y, n+1)
	}
}

func BenchmarkMismatchesBoundedScalar24(b *testing.B) {
	benchMismatchesBounded(b, benchShort, MismatchesBoundedScalar[uint32])
}
func BenchmarkMismatchesBoundedKernel24(b *testing.B) {
	benchMismatchesBounded(b, benchShort, MismatchesBounded[uint32])
}

func benchVecs(n int) (x, y []float64) {
	rng := rand.New(rand.NewSource(12))
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	return x, y
}

func benchFloat(b *testing.B, n int, fn func(x, y []float64) float64) {
	x, y := benchVecs(n)
	b.SetBytes(int64(n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkFloat = fn(x, y)
	}
}

func BenchmarkSquaredDistanceScalar32(b *testing.B) {
	benchFloat(b, 32, SquaredDistanceScalar)
}
func BenchmarkSquaredDistanceKernel32(b *testing.B) {
	benchFloat(b, 32, SquaredDistance)
}
func BenchmarkSquaredDistanceScalar256(b *testing.B) {
	benchFloat(b, benchLong, SquaredDistanceScalar)
}
func BenchmarkSquaredDistanceKernel256(b *testing.B) {
	benchFloat(b, benchLong, SquaredDistance)
}

func BenchmarkDotScalar32(b *testing.B)  { benchFloat(b, 32, DotScalar) }
func BenchmarkDotKernel32(b *testing.B)  { benchFloat(b, 32, Dot) }
func BenchmarkDotScalar256(b *testing.B) { benchFloat(b, benchLong, DotScalar) }
func BenchmarkDotKernel256(b *testing.B) { benchFloat(b, benchLong, Dot) }

// The Hamming pair: the scalar baseline compares the unpacked
// one-bit-per-word signatures (the index's row-value format); the
// kernel runs XOR+popcount over the packed form. Packing is a one-off
// cost paid at signature creation, so it is excluded here.
func BenchmarkHammingScalar100(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x := make([]uint64, 100)
	y := make([]uint64, 100)
	for i := range x {
		x[i] = uint64(rng.Intn(2))
		y[i] = uint64(rng.Intn(2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt = HammingScalar(x, y)
	}
}

func BenchmarkHammingPacked100(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	x := make([]uint64, 100)
	y := make([]uint64, 100)
	for i := range x {
		x[i] = uint64(rng.Intn(2))
		y[i] = uint64(rng.Intn(2))
	}
	px := PackBits(x, nil)
	py := PackBits(y, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkInt = Hamming(px, py)
	}
}

// The nearest-centroid scans on two shapes. On the kmodes-cold shape —
// k = 1000 centroids of m = 24 attributes over a domain of 200 — the
// postings are selective: the scalar reference and the unrolled loop
// compare a row with every centroid, the posting kernel counts its
// matches through the centroids' posting lists. On the binary shape —
// k = 300 centroids of m = 400 attributes, 97% of them 0, like the
// bag-of-words rows of the text workload — nearly every centroid shares
// each row's 0s, the lists are long, and NearestScan runs the unrolled
// loop instead; the Binary pair times both to show why.
type nearestShape struct {
	k, m   int
	values func(rng *rand.Rand) uint32
}

var (
	nearestCold = nearestShape{1000, benchShort, func(rng *rand.Rand) uint32 {
		return rng.Uint32() % 200
	}}
	nearestBinary = nearestShape{300, 400, func(rng *rand.Rand) uint32 {
		if rng.Intn(100) < 3 {
			return 1
		}
		return 0
	}}
)

const nearestRows = 256

func (sh nearestShape) rows() (centroids, rows []uint32) {
	rng := rand.New(rand.NewSource(14))
	centroids = make([]uint32, sh.k*sh.m)
	for i := range centroids {
		centroids[i] = sh.values(rng)
	}
	rows = make([]uint32, nearestRows*sh.m)
	for i := range rows {
		rows[i] = sh.values(rng)
	}
	return centroids, rows
}

func benchNearestLoop(b *testing.B, sh nearestShape, fn func(centroids, row []uint32) int) {
	centroids, rows := sh.rows()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % nearestRows * sh.m
		sinkInt = fn(centroids, rows[off:off+sh.m])
	}
}

func benchNearestPostings(b *testing.B, sh nearestShape) {
	centroids, rows := sh.rows()
	p := NewPostings(centroids, sh.m)
	counts := make([]int32, sh.k)
	touched := make([]int32, sh.k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % nearestRows * sh.m
		sinkInt = NearestByPostings(p, rows[off:off+sh.m], counts, touched)
	}
}

func BenchmarkNearestScalar(b *testing.B) {
	benchNearestLoop(b, nearestCold, NearestScalar[uint32])
}
func BenchmarkNearestUnrolled(b *testing.B) {
	benchNearestLoop(b, nearestCold, Nearest[uint32])
}
func BenchmarkNearestKernel(b *testing.B) { benchNearestPostings(b, nearestCold) }
func BenchmarkNearestUnrolledBinary(b *testing.B) {
	benchNearestLoop(b, nearestBinary, Nearest[uint32])
}
func BenchmarkNearestKernelBinary(b *testing.B) { benchNearestPostings(b, nearestBinary) }

// The K-Means first scan at kmeans-simhash's shape: k = 500 centroids
// of dim 16. The scalar reference computes one SquaredDistanceScalar
// per centroid, as the driver's per-centroid scan computes one
// Dissimilarity per centroid; the kernel sweeps four centroid rows per
// pass over the point.
const (
	scanK   = 500
	scanDim = 16
	// signBits is kmeans-simhash's signature length (12 bands × 12 rows).
	signBits = 144
)

func benchRows(rows, dim int) (centroids, points []float64) {
	rng := rand.New(rand.NewSource(15))
	centroids = make([]float64, rows*dim)
	for i := range centroids {
		centroids[i] = rng.NormFloat64()
	}
	points = make([]float64, nearestRows*dim)
	for i := range points {
		points[i] = rng.NormFloat64()
	}
	return centroids, points
}

func benchNearestSquared(b *testing.B, fn func(rows, row []float64) int) {
	centroids, points := benchRows(scanK, scanDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % nearestRows * scanDim
		sinkInt = fn(centroids, points[off:off+scanDim])
	}
}

func BenchmarkNearestSquaredScalar500(b *testing.B) {
	benchNearestSquared(b, NearestSquaredScalar)
}
func BenchmarkNearestSquaredKernel500(b *testing.B) {
	benchNearestSquared(b, NearestSquared)
}

// The SimHash signing pair at kmeans-simhash's shape: the sign bits of
// one 16-d point against 144 hyperplanes, one DotScalar per plane
// against one Dot4 per four planes.
func BenchmarkSignDotScalar144(b *testing.B) {
	planes, points := benchRows(signBits, scanDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % nearestRows * scanDim
		x := points[off : off+scanDim]
		n := 0
		for p := 0; p < signBits; p++ {
			if DotScalar(planes[p*scanDim:(p+1)*scanDim], x) >= 0 {
				n++
			}
		}
		sinkInt = n
	}
}

func BenchmarkSignDot4_144(b *testing.B) {
	planes, points := benchRows(signBits, scanDim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := i % nearestRows * scanDim
		x := points[off : off+scanDim]
		n := 0
		for p := 0; p < signBits; p += 4 {
			d0, d1, d2, d3 := Dot4(planes[p*scanDim:], x)
			n += signBit(d0) + signBit(d1) + signBit(d2) + signBit(d3)
		}
		sinkInt = n
	}
}

func signBit(d float64) int {
	if d >= 0 {
		return 1
	}
	return 0
}

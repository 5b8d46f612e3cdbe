package kernel

import (
	"math"
	"math/rand"
	"testing"
)

// randPair produces two length-n uint32 slices where each position
// mismatches with probability p — exercising all-match, all-mismatch
// and mixed patterns.
func randPair(rng *rand.Rand, n int, p float64) (x, y []uint32) {
	x = make([]uint32, n)
	y = make([]uint32, n)
	for i := range x {
		x[i] = rng.Uint32() % 16
		if rng.Float64() < p {
			y[i] = x[i] + 1 + rng.Uint32()%8
		} else {
			y[i] = x[i]
		}
	}
	return x, y
}

// lengths covers the empty slice, every tail remainder 1–7, exact
// block multiples and longer mixed cases.
var lengths = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 15, 16, 17, 23, 24, 31, 32, 63, 64, 100, 257}

// TestMismatchesMatchesScalar pins the unrolled kernel to the scalar
// reference on random inputs across every tail remainder.
func TestMismatchesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range lengths {
		for _, p := range []float64{0, 0.1, 0.5, 0.9, 1} {
			for trial := 0; trial < 20; trial++ {
				x, y := randPair(rng, n, p)
				want := MismatchesScalar(x, y)
				if got := Mismatches(x, y); got != want {
					t.Fatalf("Mismatches(n=%d, p=%v) = %d, scalar %d", n, p, got, want)
				}
			}
		}
	}
}

// TestMismatchesBoundedMatchesScalar pins the bounded kernel's return
// value — including its early-exit value — exactly to the reference,
// for bounds below, at and above the true count, and bounds ≤ 0.
func TestMismatchesBoundedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range lengths {
		for _, p := range []float64{0, 0.3, 1} {
			for trial := 0; trial < 20; trial++ {
				x, y := randPair(rng, n, p)
				total := MismatchesScalar(x, y)
				for _, bound := range []int{-1, 0, 1, 2, total - 1, total, total + 1, n, n + 5} {
					want := MismatchesBoundedScalar(x, y, bound)
					if got := MismatchesBounded(x, y, bound); got != want {
						t.Fatalf("MismatchesBounded(n=%d, total=%d, bound=%d) = %d, scalar %d",
							n, total, bound, got, want)
					}
				}
			}
		}
	}
}

func randVecs(rng *rand.Rand, n int) (x, y []float64) {
	x = make([]float64, n)
	y = make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	return x, y
}

// TestSquaredDistanceBitIdentical pins the unrolled squared distance to
// the scalar reference bit for bit: the single-accumulator unroll must
// preserve the rounding sequence, not merely the approximate value.
func TestSquaredDistanceBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range lengths {
		for trial := 0; trial < 20; trial++ {
			x, y := randVecs(rng, n)
			want := SquaredDistanceScalar(x, y)
			got := SquaredDistance(x, y)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("SquaredDistance(n=%d) = %x, scalar %x", n,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestSquaredDistanceBoundedContract checks the bounded kernel against
// the contract bounded-distance callers rely on: results below the
// bound are the exact (bit-identical) full distance, and the kernel
// reaches the bound exactly when the reference does.
func TestSquaredDistanceBoundedContract(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range lengths {
		for trial := 0; trial < 20; trial++ {
			x, y := randVecs(rng, n)
			full := SquaredDistanceScalar(x, y)
			for _, bound := range []float64{0, full * 0.25, full * 0.99, full, full + 1, math.Inf(1)} {
				want := SquaredDistanceBoundedScalar(x, y, bound)
				got := SquaredDistanceBounded(x, y, bound)
				if (got >= bound) != (want >= bound) {
					t.Fatalf("SquaredDistanceBounded(n=%d, bound=%v): kernel %v, scalar %v disagree on reaching the bound",
						n, bound, got, want)
				}
				if want < bound && math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("SquaredDistanceBounded(n=%d, bound=%v) = %x below bound, scalar %x",
						n, bound, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestDotBitIdentical pins the unrolled dot product, and each lane of
// the four-row one, to the scalar reference bit for bit — SimHash sign
// bits depend on it.
func TestDotBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range lengths {
		for trial := 0; trial < 20; trial++ {
			x, y := randVecs(rng, n)
			want := DotScalar(x, y)
			got := Dot(x, y)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Dot(n=%d) = %x, scalar %x", n,
					math.Float64bits(got), math.Float64bits(want))
			}
			rows, _ := randVecs(rng, 4*n)
			d0, d1, d2, d3 := Dot4(rows, x)
			for r, got := range []float64{d0, d1, d2, d3} {
				want := DotScalar(rows[r*n:(r+1)*n], x)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("Dot4(n=%d) lane %d = %x, scalar %x", n, r,
						math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	}
}

// TestPackBitsHamming packs random 0/1 signatures and checks the packed
// popcount Hamming against the scalar per-word comparison, including
// signature lengths that leave a partial final word.
func TestPackBitsHamming(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var bufA, bufB []uint64
	for _, n := range lengths {
		for trial := 0; trial < 20; trial++ {
			a := make([]uint64, n)
			b := make([]uint64, n)
			for i := range a {
				a[i] = uint64(rng.Intn(2))
				b[i] = uint64(rng.Intn(2))
			}
			want := HammingScalar(a, b)
			bufA = PackBits(a, bufA)
			bufB = PackBits(b, bufB)
			if len(bufA) != PackedWords(n) {
				t.Fatalf("PackBits(n=%d) returned %d words, want %d", n, len(bufA), PackedWords(n))
			}
			if got := Hamming(bufA, bufB); got != want {
				t.Fatalf("Hamming(n=%d) = %d, scalar %d", n, got, want)
			}
		}
	}
}

// FuzzMismatches cross-checks both mismatch kernels against their
// references on arbitrary byte-derived inputs, covering every length
// remainder and arbitrary bounds.
func FuzzMismatches(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, []byte{1, 2, 0, 4, 0, 6, 7, 0, 9}, 3)
	f.Add([]byte{}, []byte{}, 0)
	f.Add([]byte{7}, []byte{9}, -2)
	f.Fuzz(func(t *testing.T, xb, yb []byte, bound int) {
		n := len(xb)
		if len(yb) < n {
			n = len(yb)
		}
		x := make([]uint32, n)
		y := make([]uint32, n)
		for i := 0; i < n; i++ {
			x[i] = uint32(xb[i])
			y[i] = uint32(yb[i])
		}
		if got, want := Mismatches(x, y), MismatchesScalar(x, y); got != want {
			t.Fatalf("Mismatches = %d, scalar %d", got, want)
		}
		if got, want := MismatchesBounded(x, y, bound), MismatchesBoundedScalar(x, y, bound); got != want {
			t.Fatalf("MismatchesBounded(bound=%d) = %d, scalar %d", bound, got, want)
		}
	})
}

// FuzzHamming cross-checks the packed Hamming kernel on arbitrary
// byte-derived sign sequences.
func FuzzHamming(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 1}, []byte{1, 1, 0, 0, 1})
	f.Add([]byte{}, []byte{})
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		n := len(ab)
		if len(bb) < n {
			n = len(bb)
		}
		a := make([]uint64, n)
		b := make([]uint64, n)
		for i := 0; i < n; i++ {
			a[i] = uint64(ab[i] & 1)
			b[i] = uint64(bb[i] & 1)
		}
		want := HammingScalar(a, b)
		if got := Hamming(PackBits(a, nil), PackBits(b, nil)); got != want {
			t.Fatalf("Hamming = %d, scalar %d", got, want)
		}
	})
}

// TestNearestScansMatchScalar pins the posting-count scan and the
// unrolled per-centroid loop to the scalar reference on random
// centroids and rows, across small domains (ties everywhere), value IDs
// at the top of the uint32 range, duplicate centroids and rows that
// match no centroid at all.
func TestNearestScansMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 400; trial++ {
		k, m := 1+rng.Intn(40), 1+rng.Intn(9)
		domain := uint32(1 + rng.Intn(6))
		value := func() uint32 {
			v := rng.Uint32() % domain
			if v%2 == 1 {
				v = ^v // IDs near 2^32−1
			}
			return v
		}
		centroids := make([]uint32, k*m)
		for i := range centroids {
			centroids[i] = value()
		}
		if k > 1 && trial%3 == 0 {
			copy(centroids[(k-1)*m:], centroids[:m]) // a duplicate centroid
		}
		p := NewPostings(centroids, m)
		counts := make([]int32, k)
		touched := make([]int32, k)
		row := make([]uint32, m)
		for r := 0; r < 20; r++ {
			for a := range row {
				row[a] = value()
				if r == 0 {
					row[a] = 3 // odd IDs are complemented, so no centroid holds 3
				}
			}
			want := NearestScalar(centroids, row)
			if got := NearestByPostings(p, row, counts, touched); got != want {
				t.Fatalf("k=%d m=%d row %v: NearestByPostings = %d, scalar %d", k, m, row, got, want)
			}
			if got := Nearest(centroids, row); got != want {
				t.Fatalf("k=%d m=%d row %v: Nearest = %d, scalar %d", k, m, row, got, want)
			}
			for c, n := range counts {
				if n != 0 {
					t.Fatalf("counts[%d] = %d left behind", c, n)
				}
			}
		}
	}
}

// TestPostingsSelective checks the index's cost estimate at both ends:
// centroids spread over many values make short lists, binary centroids
// that are mostly 0 make the 0 list hold nearly every centroid, and
// exactly half of the k·m entries is not yet selective.
func TestPostingsSelective(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const k, m = 100, 8
	spread := make([]uint32, k*m)
	binary := make([]uint32, k*m)
	for i := range spread {
		spread[i] = rng.Uint32() % 200
		if rng.Intn(20) == 0 {
			binary[i] = 1
		}
	}
	if !NewPostings(spread, m).Selective() {
		t.Error("200-value centroids: postings not selective")
	}
	if NewPostings(binary, m).Selective() {
		t.Error("mostly-0 binary centroids: postings selective")
	}
	// Two values, each held by half the centroids: 2·(k/2)² entries
	// walked per attribute, k²/2 — half of k·m·k, on the boundary.
	half := make([]uint32, k*m)
	for i := range half {
		half[i] = uint32(i / m % 2)
	}
	if NewPostings(half, m).Selective() {
		t.Error("two equal lists per attribute: postings selective")
	}
}

// TestNearestSquaredMatchesScalar pins the four-row nearest scan to the
// scalar reference on random centroids over every row-count remainder
// mod 4, with coordinates on a small integer grid (exact distances,
// ties everywhere) and Gaussian ones, duplicate centroids, and NaN or
// infinite coordinates in row 0 or in a later row.
func TestNearestSquaredMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
	for trial := 0; trial < 2000; trial++ {
		k, m := rng.Intn(14), rng.Intn(20)
		value := func() float64 {
			if trial%2 == 0 {
				return float64(rng.Intn(3))
			}
			return rng.NormFloat64()
		}
		rows := make([]float64, k*m)
		for i := range rows {
			rows[i] = value()
		}
		if k > 1 && trial%3 == 0 {
			copy(rows[(k-1)*m:], rows[:m]) // a duplicate centroid
		}
		if k > 0 && m > 0 && trial%5 == 0 {
			rows[rng.Intn(k)*m+rng.Intn(m)] = special[rng.Intn(len(special))]
		}
		row := make([]float64, m)
		for r := 0; r < 10; r++ {
			for a := range row {
				row[a] = value()
			}
			want := NearestSquaredScalar(rows, row)
			if got := NearestSquared(rows, row); got != want {
				t.Fatalf("k=%d m=%d: NearestSquared = %d, scalar %d", k, m, got, want)
			}
		}
	}
}

// decodeFloat maps a class byte and the bytes after it to one float:
// a small integer (the source of exact ties), NaN, ±Inf, −0, a
// subnormal, ±1e300 (whose squares overflow to +Inf) or an arbitrary
// float64 bit pattern.
func decodeFloat(next func() byte) float64 {
	switch class := next(); class % 8 {
	case 0, 1:
		return float64(int8(next()) % 4)
	case 2:
		return math.NaN()
	case 3:
		return math.Inf(1 - 2*int(class>>7))
	case 4:
		return math.Copysign(0, -1)
	case 5:
		return math.SmallestNonzeroFloat64 * float64(next())
	case 6:
		return math.Copysign(1e300, float64(int8(next())))
	default:
		var bits uint64
		for i := 0; i < 8; i++ {
			bits = bits<<8 | uint64(next())
		}
		return math.Float64frombits(bits)
	}
}

// sameFloat reports whether a and b have the same bits, counting every
// NaN as the same: Go leaves NaN payloads unspecified (the compiler may
// swap an addition's operands, and the hardware keeps the payload of
// the first NaN operand), and neither a comparison nor a sign test can
// tell two NaNs apart.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// FuzzNearestSquaredDot4 checks the four-row float kernels bit for bit:
// NearestSquared against NearestSquaredScalar, and each lane of Dot4,
// over every complete group of four rows, against DotScalar. The
// decoded input has dimension 0–40 and 0–13 centroid rows, so every row
// count remainder mod 4 occurs, and its values include NaN, ±Inf, −0,
// subnormals and ±1e300; a NaN lane must be NaN, with any payload.
func FuzzNearestSquaredDot4(f *testing.F) {
	f.Add(uint8(16), uint8(13), []byte{0, 1, 0, 2, 6, 1, 0, 3})
	f.Add(uint8(0), uint8(5), []byte{})
	f.Add(uint8(3), uint8(0), []byte{2, 0, 0, 1})
	// Row 0 at a NaN distance, row 3 at distance 0: the reference keeps
	// 0. Then a NaN in the point itself, which puts every row at NaN.
	f.Add(uint8(2), uint8(6), []byte{0, 0, 0, 1, 2, 0, 0, 0, 1, 0, 1, 0, 2, 0, 2, 0, 0, 0, 1, 0, 3, 0, 3, 0, 1, 0, 0})
	f.Add(uint8(2), uint8(6), []byte{2, 0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1})
	// ±1e300 coordinates: distances overflow to +Inf and tie there.
	f.Add(uint8(1), uint8(9), []byte{6, 1, 6, 255, 6, 1, 3, 0, 131, 0, 6, 1, 4, 0, 5, 9, 6, 255, 6, 1})
	f.Add(uint8(40), uint8(7), []byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 5, 200, 4, 0, 3, 1})
	f.Fuzz(func(t *testing.T, dim, count uint8, data []byte) {
		m, k := int(dim)%41, int(count)%14
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		row := make([]float64, m)
		for i := range row {
			row[i] = decodeFloat(next)
		}
		rows := make([]float64, k*m)
		for i := range rows {
			rows[i] = decodeFloat(next)
		}
		if got, want := NearestSquared(rows, row), NearestSquaredScalar(rows, row); got != want {
			t.Fatalf("dim %d, %d rows: NearestSquared = %d, scalar %d", m, k, got, want)
		}
		for r := 0; r+4 <= k; r += 4 {
			d0, d1, d2, d3 := Dot4(rows[r*m:], row)
			for lane, got := range []float64{d0, d1, d2, d3} {
				want := DotScalar(rows[(r+lane)*m:(r+lane+1)*m], row)
				if !sameFloat(got, want) {
					t.Fatalf("dim %d: Dot4 lane %d of rows %d… = %x, scalar %x",
						m, lane, r, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
	})
}

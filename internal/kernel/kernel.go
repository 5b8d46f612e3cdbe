// Package kernel holds the innermost distance loops of the hot paths —
// categorical mismatch counting, the nearest-centroid scans over
// categorical and numeric centroids, K-Means squared distance, SimHash
// dot products and Hamming distance — in two forms each: an optimised
// kernel (unrolled, swept four rows at a time, branchless, bit-packed
// or value-indexed) and a plain scalar reference carrying the Scalar
// suffix.
//
// The scalar references are the oracles. Every optimised kernel is
// value-identical to its reference — not merely close:
//
//   - The integer kernels (Mismatches, MismatchesBounded, Hamming)
//     count; counting is order-free, so unrolling cannot change the
//     result. MismatchesBounded additionally reproduces the reference's
//     early-exit return value exactly (see its comment).
//   - Nearest is NearestScalar's loop over Mismatches.
//     NearestByPostings counts matches through per-attribute posting
//     lists instead of comparing rows; mismatches are m minus matches,
//     so its lowest-index winner is NearestScalar's too.
//   - The floating-point kernels (SquaredDistance, Dot) unroll the
//     loads and the subtract/multiply work but keep a single
//     accumulator updated in the reference's element order, so the
//     rounding sequence — and therefore the bits of the result — is
//     unchanged. Do not "optimise" them into multiple accumulators:
//     that reorders the additions and breaks the full-run bit-identity
//     the equivalence tests pin (core.Oracles.ScalarKernels runs the
//     references as the oracle).
//   - Extra accumulators are allowed only across rows. The row sweeps
//     (Dot4, NearestSquared) give each of four independent rows its own
//     single accumulator, updated in that row's element order, so every
//     row's result keeps its bits while the four addition chains
//     overlap. Splitting one row across accumulators does not keep
//     them. NearestSquared then compares the four distances in
//     ascending row order, so its winner is NearestSquaredScalar's.
//     NaN payloads are outside this contract: Go leaves them
//     unspecified, and no comparison or sign test can see them.
//
// The property/fuzz tests in this package enforce exact equality on
// random inputs covering every tail remainder; the full-run tests in
// internal/core enforce it end to end.
package kernel

import "math/bits"

// Mismatches counts the positions at which x and y differ. Both slices
// must have the same length (callers enforce this; the kernel indexes y
// by x's length). 8-way unrolled and branchless: each comparison
// becomes two or three ALU ops instead of a data-dependent branch, so
// throughput no longer depends on how predictable the mismatch pattern
// is.
//
//lshvet:noescape
func Mismatches[E ~uint32](x, y []E) int {
	n := len(x)
	d := 0
	i := 0
	for ; i+8 <= n; i += 8 {
		y8 := y[i : i+8 : i+8]
		x8 := x[i : i+8 : i+8]
		d += ne(x8[0], y8[0]) + ne(x8[1], y8[1]) + ne(x8[2], y8[2]) + ne(x8[3], y8[3]) +
			ne(x8[4], y8[4]) + ne(x8[5], y8[5]) + ne(x8[6], y8[6]) + ne(x8[7], y8[7])
	}
	for ; i < n; i++ {
		d += ne(x[i], y[i])
	}
	return d
}

// ne returns 1 when a ≠ b, else 0, without a branch: the XOR is
// non-zero exactly when the values differ, and (v | -v) has its top bit
// set exactly when v is non-zero.
func ne[E ~uint32](a, b E) int {
	v := uint32(a ^ b)
	return int((v | -v) >> 31)
}

// MismatchesScalar is the scalar reference for Mismatches.
//
//lshvet:noescape
func MismatchesScalar[E ~uint32](x, y []E) int {
	d := 0
	for i := range x {
		if x[i] != y[i] {
			d++
		}
	}
	return d
}

// MismatchesBounded counts mismatches but returns early with a value ≥
// bound as soon as the count reaches bound. The return value is
// exactly MismatchesBoundedScalar's: the reference increments one
// mismatch at a time and returns the moment the count reaches bound,
// so an early exit always returns max(bound, 1) — which is what the
// unrolled kernel returns when a whole 8-wide block pushes the count
// past the bound mid-block. (The d ≥ 1 guard covers bound ≤ 0, where
// the reference still scans until the first mismatch.)
//
//lshvet:noescape
func MismatchesBounded[E ~uint32](x, y []E, bound int) int {
	n := len(x)
	d := 0
	i := 0
	for ; i+8 <= n; i += 8 {
		y8 := y[i : i+8 : i+8]
		x8 := x[i : i+8 : i+8]
		d += ne(x8[0], y8[0]) + ne(x8[1], y8[1]) + ne(x8[2], y8[2]) + ne(x8[3], y8[3]) +
			ne(x8[4], y8[4]) + ne(x8[5], y8[5]) + ne(x8[6], y8[6]) + ne(x8[7], y8[7])
		if d >= bound && d >= 1 {
			if bound < 1 {
				return 1
			}
			return bound
		}
	}
	for ; i < n; i++ {
		if x[i] != y[i] {
			d++
			if d >= bound {
				return d
			}
		}
	}
	return d
}

// MismatchesBoundedScalar is the scalar reference for MismatchesBounded.
//
//lshvet:noescape
func MismatchesBoundedScalar[E ~uint32](x, y []E, bound int) int {
	d := 0
	for i := range x {
		if x[i] != y[i] {
			d++
			if d >= bound {
				return d
			}
		}
	}
	return d
}

// SquaredDistance returns the squared Euclidean distance between x and
// y. Both slices must have the same length. The loop is 4-way unrolled
// with a single accumulator updated in element order, so the result is
// bit-identical to SquaredDistanceScalar's.
//
//lshvet:noescape
func SquaredDistance(x, y []float64) float64 {
	n := len(x)
	var sum float64
	i := 0
	for ; i+4 <= n; i += 4 {
		y4 := y[i : i+4 : i+4]
		x4 := x[i : i+4 : i+4]
		d0 := x4[0] - y4[0]
		d1 := x4[1] - y4[1]
		d2 := x4[2] - y4[2]
		d3 := x4[3] - y4[3]
		sum += d0 * d0
		sum += d1 * d1
		sum += d2 * d2
		sum += d3 * d3
	}
	for ; i < n; i++ {
		d := x[i] - y[i]
		sum += d * d
	}
	return sum
}

// SquaredDistanceScalar is the scalar reference for SquaredDistance.
//
//lshvet:noescape
func SquaredDistanceScalar(x, y []float64) float64 {
	var sum float64
	for i := range x {
		d := x[i] - y[i]
		sum += d * d
	}
	return sum
}

// SquaredDistanceBounded accumulates the squared distance but returns
// as soon as the partial sum reaches bound (the sum is monotone in the
// coordinates). The bound is checked once per 4-wide block, so an early
// exit may return a later — therefore larger — partial sum than the
// reference's per-element exit; both are ≥ bound, which is the only
// property bounded-distance callers may rely on (the driver discards
// any result ≥ bound unseen). When no early exit happens the result is
// the full sum, bit-identical to the reference.
//
//lshvet:noescape
func SquaredDistanceBounded(x, y []float64, bound float64) float64 {
	n := len(x)
	var sum float64
	i := 0
	for ; i+4 <= n; i += 4 {
		y4 := y[i : i+4 : i+4]
		x4 := x[i : i+4 : i+4]
		d0 := x4[0] - y4[0]
		d1 := x4[1] - y4[1]
		d2 := x4[2] - y4[2]
		d3 := x4[3] - y4[3]
		sum += d0 * d0
		sum += d1 * d1
		sum += d2 * d2
		sum += d3 * d3
		if sum >= bound {
			return sum
		}
	}
	for ; i < n; i++ {
		d := x[i] - y[i]
		sum += d * d
		if sum >= bound {
			return sum
		}
	}
	return sum
}

// SquaredDistanceBoundedScalar is the scalar reference for
// SquaredDistanceBounded.
//
//lshvet:noescape
func SquaredDistanceBoundedScalar(x, y []float64, bound float64) float64 {
	var sum float64
	for i := range x {
		d := x[i] - y[i]
		sum += d * d
		if sum >= bound {
			return sum
		}
	}
	return sum
}

// Dot returns the inner product of x and y, 4-way unrolled with a
// single accumulator in element order — bit-identical to DotScalar.
// SimHash signing reduces to this (one dot per hyperplane), so the
// sign bits — and every signature-derived structure — are unchanged by
// the unroll.
//
//lshvet:noescape
func Dot(x, y []float64) float64 {
	n := len(x)
	var sum float64
	i := 0
	for ; i+4 <= n; i += 4 {
		y4 := y[i : i+4 : i+4]
		x4 := x[i : i+4 : i+4]
		sum += x4[0] * y4[0]
		sum += x4[1] * y4[1]
		sum += x4[2] * y4[2]
		sum += x4[3] * y4[3]
	}
	for ; i < n; i++ {
		sum += x[i] * y[i]
	}
	return sum
}

// Dot4 returns the inner products of x with four rows of len(x)
// floats, stored row-major at the front of rows: lane r is Dot(rows[r·n
// : (r+1)·n], x), bit for bit. One pass over x feeds four independent
// accumulators, one per row, each updated in element order, so the
// four addition chains overlap instead of running one after another.
// SimHash signs four hyperplanes per call.
//
//lshvet:noescape
func Dot4(rows, x []float64) (d0, d1, d2, d3 float64) {
	n := len(x)
	r0 := rows[:n:n]
	r1 := rows[n:][:n:n]
	r2 := rows[2*n:][:n:n]
	r3 := rows[3*n:][:n:n]
	for i, v := range x {
		d0 += r0[i] * v
		d1 += r1[i] * v
		d2 += r2[i] * v
		d3 += r3[i] * v
	}
	return d0, d1, d2, d3
}

// DotScalar is the scalar reference for Dot and for each lane of Dot4.
//
//lshvet:noescape
func DotScalar(x, y []float64) float64 {
	var sum float64
	for i := range x {
		sum += x[i] * y[i]
	}
	return sum
}

// PackBits packs a signature stored one bit per uint64 word (each 0 or
// 1, the banding index's row-value format) into dst, 64 bits per word,
// bit i of word w holding sig[w·64+i]. dst is grown as needed and the
// packed prefix returned; PackedWords gives its length up front.
func PackBits(sig []uint64, dst []uint64) []uint64 {
	words := PackedWords(len(sig))
	if cap(dst) < words {
		dst = make([]uint64, words)
	}
	dst = dst[:words]
	for w := range dst {
		var v uint64
		lo := w * 64
		hi := lo + 64
		if hi > len(sig) {
			hi = len(sig)
		}
		for i, bit := range sig[lo:hi] {
			v |= (bit & 1) << uint(i)
		}
		dst[w] = v
	}
	return dst
}

// PackedWords returns the number of uint64 words a packed signature of
// nbits bits occupies.
func PackedWords(nbits int) int { return (nbits + 63) / 64 }

// Hamming returns the number of differing bits between two packed
// signatures (equal length), one XOR + popcount per 64 bits.
//
//lshvet:noescape
func Hamming(a, b []uint64) int {
	n := len(a)
	d := 0
	for i := 0; i < n; i++ {
		d += bits.OnesCount64(a[i] ^ b[i])
	}
	return d
}

// HammingScalar is the scalar reference for Hamming over the *unpacked*
// one-bit-per-word representation: it counts positions where the 0/1
// words differ, which equals Hamming over the packed forms of the same
// signatures.
//
//lshvet:noescape
func HammingScalar(a, b []uint64) int {
	d := 0
	for i := range a {
		if a[i]&1 != b[i]&1 {
			d++
		}
	}
	return d
}

// Package hashfamily provides seeded families of universal hash functions
// of the form h(x) = (a·x + b) mod p, with p the Mersenne prime 2^61−1.
//
// The MinHash scheme of Broder (1997), which the paper adopts (§III-A2),
// simulates random permutations of the characteristic matrix rows with
// exactly this kind of hash function: "the random permutations of the
// matrix can be simulated by the use of n randomly chosen hash functions".
// A multiply-add family modulo a large prime is pairwise independent,
// which is sufficient for the min-wise estimates the framework relies on.
//
// All arithmetic is performed in uint64 with an explicit 128-bit
// intermediate product, so results are exact and reproducible across
// platforms for a given seed.
package hashfamily

import "math/bits"

// MersennePrime61 is 2^61 − 1, the modulus of every function in a Family.
const MersennePrime61 uint64 = (1 << 61) - 1

// SplitMix64 is a tiny deterministic PRNG (Steele, Lea & Flood 2014) used
// to derive hash-function coefficients from a seed. It is intentionally
// self-contained so that signatures are stable across Go releases.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Mix64 applies the SplitMix64 finaliser to x. It is a fast 64-bit mixer
// with full avalanche, used to combine band rows into bucket keys.
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// mod61 reduces x (< 2^62) modulo 2^61−1.
func mod61(x uint64) uint64 {
	x = (x & MersennePrime61) + (x >> 61)
	if x >= MersennePrime61 {
		x -= MersennePrime61
	}
	return x
}

// MulMod61 returns (a·b) mod (2^61−1) exactly, for any uint64 inputs
// already reduced below the prime.
func MulMod61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	// a, b < 2^61 so the product is < 2^122 and hi < 2^58: the shifted
	// fold below cannot overflow. 2^61 ≡ 1 (mod p) so z mod p is
	// (z & p) + (z >> 61), folded once more by mod61.
	part := (hi << 3) | (lo >> 61)
	return mod61((lo & MersennePrime61) + mod61(part))
}

// AddMod61 returns (a + b) mod (2^61−1) for inputs below the prime.
func AddMod61(a, b uint64) uint64 {
	s := a + b // a, b < 2^61 so no uint64 overflow.
	if s >= MersennePrime61 {
		s -= MersennePrime61
	}
	return s
}

// MulAddMod61 returns (a·x + b) mod (2^61−1) for a, x and b below the
// prime: AddMod61(MulMod61(a, x), b) with one reduction instead of
// three. The product's folded halves are each below 2^61 (as in
// MulMod61), so with b the sum stays below 3·2^61 and one fold by
// mod61 reduces it fully.
func MulAddMod61(a, x, b uint64) uint64 {
	hi, lo := bits.Mul64(a, x)
	return mod61((lo & MersennePrime61) + (hi<<3 | lo>>61) + b)
}

// Func is a single universal hash function h(x) = (A·x + B) mod 2^61−1.
// The zero value is the identity-to-B constant function and is not useful;
// obtain Funcs from a Family.
type Func struct {
	// A is the multiplier, in [1, p−1].
	A uint64
	// B is the offset, in [0, p−1].
	B uint64
}

// Hash evaluates the function at x. x is first reduced modulo the prime,
// so any uint64 input is legal.
func (f Func) Hash(x uint64) uint64 {
	return AddMod61(MulMod61(f.A, mod61(x)), f.B)
}

// Family is an ordered, seeded collection of n independent hash functions.
// It is immutable after construction and safe for concurrent use.
type Family struct {
	funcs []Func
}

// New returns a family of n hash functions derived deterministically from
// seed. Two families built with the same (n, seed) are identical.
func New(n int, seed uint64) *Family {
	if n < 0 {
		n = 0
	}
	gen := NewSplitMix64(seed)
	funcs := make([]Func, n)
	for i := range funcs {
		a := gen.Next() % (MersennePrime61 - 1)
		funcs[i] = Func{
			A: a + 1, // never zero
			B: gen.Next() % MersennePrime61,
		}
	}
	return &Family{funcs: funcs}
}

// Size returns the number of functions in the family.
func (fam *Family) Size() int { return len(fam.funcs) }

// At returns the i-th function. It panics if i is out of range, matching
// slice-indexing semantics.
func (fam *Family) At(i int) Func { return fam.funcs[i] }

// Funcs returns the underlying functions. The returned slice must not be
// modified.
func (fam *Family) Funcs() []Func { return fam.funcs }

// HashAll evaluates every function in the family at x, storing the results
// in dst, which must have length Size. It returns dst.
//
// This is the hot path of signature generation: the per-function
// composition (reduce, multiply, add) is inlined into a single loop.
func (fam *Family) HashAll(x uint64, dst []uint64) []uint64 {
	if len(dst) != len(fam.funcs) {
		panic("hashfamily: HashAll dst length mismatch")
	}
	xr := mod61(x)
	for i, f := range fam.funcs {
		dst[i] = AddMod61(MulMod61(f.A, xr), f.B)
	}
	return dst
}

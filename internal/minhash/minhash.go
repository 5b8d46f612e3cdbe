// Package minhash implements min-wise independent permutation signatures
// (Broder 1997), the LSH family for Jaccard similarity adopted by the
// paper (§III-A2, Algorithm 1 "SIGGEN").
//
// A Scheme holds n seeded hash functions h_1 … h_n. The signature of a set
// S is the vector (min_{x∈S} h_1(x), …, min_{x∈S} h_n(x)). For two sets
// X and Y, P[sig_i(X) = sig_i(Y)] equals their Jaccard similarity, so the
// fraction of agreeing signature positions is an unbiased estimator of
// J(X,Y).
package minhash

import (
	"errors"
	"math"

	"lshcluster/internal/hashfamily"
)

// EmptySlot is the signature value assigned to every position when the
// input set is empty (Algorithm 1 line 2 initialises each slot to ∞).
const EmptySlot = math.MaxUint64

// errSignLen is the panic value of a Sign call whose dst is not
// SignatureLen long. Panicking with a package-level value keeps the
// signing loops free of the escape diagnostics (a string converted to
// an interface "escapes") that allocheck fails on.
var errSignLen = errors.New("minhash: Sign dst length mismatch")

// Scheme is an immutable, seeded MinHash signature generator. It is safe
// for concurrent use.
type Scheme struct {
	fam *hashfamily.Family
}

// NewScheme returns a scheme producing signatures of length numHashes,
// derived deterministically from seed.
func NewScheme(numHashes int, seed uint64) *Scheme {
	return &Scheme{fam: hashfamily.New(numHashes, seed)}
}

// SignatureLen returns the number of hash functions (signature positions).
func (s *Scheme) SignatureLen() int { return s.fam.Size() }

// Sign computes the MinHash signature of set into dst and returns dst.
// dst must have length SignatureLen. set is an unordered collection of
// element identifiers (already filtered to present values, per
// Algorithm 2 lines 1–5); duplicates are harmless. An empty set yields
// EmptySlot in every position.
//
// This is Algorithm 1 of the paper: every hash function is evaluated at
// every element and the per-function minimum retained. The loop runs
// function-major over chunks of the set (see fold), so each function's
// running minimum stays in a register; a minimum does not depend on
// evaluation order, so the signature is the same in any loop order.
//
//lshvet:noescape
func (s *Scheme) Sign(set []uint64, dst []uint64) []uint64 {
	if len(dst) != s.fam.Size() {
		panic(errSignLen)
	}
	for i := range dst {
		dst[i] = EmptySlot
	}
	s.fold(set, dst)
	return dst
}

// signChunk is how many reduced elements fold holds on the stack at a
// time.
const signChunk = 64

// fold lowers every dst[i] to the minimum of dst[i] and h_i(x) over
// the elements x of set. It reduces up to signChunk elements modulo the
// prime into a stack array once, then, function by function, keeps the
// running minimum in a register across the chunk and folds it into dst:
// one load and one store of dst[i] per chunk instead of per element,
// and no branch on the minimum. len(dst) must be SignatureLen.
//
//lshvet:noescape
func (s *Scheme) fold(set []uint64, dst []uint64) {
	funcs := s.fam.Funcs()
	funcs = funcs[:len(dst)]
	var chunk [signChunk]uint64
	for len(set) > 0 {
		xr := chunk[:min(len(set), signChunk)]
		for j := range xr {
			xr[j] = set[j] % hashfamily.MersennePrime61
		}
		set = set[len(xr):]
		for i, f := range funcs {
			h := dst[i]
			for _, x := range xr {
				h = min(h, hashfamily.MulAddMod61(f.A, x, f.B))
			}
			dst[i] = h
		}
	}
}

// Signature allocates and returns the signature of set.
func (s *Scheme) Signature(set []uint64) []uint64 {
	return s.Sign(set, make([]uint64, s.SignatureLen()))
}

// EstimateJaccard returns the fraction of positions on which the two
// signatures agree — the MinHash estimate of the Jaccard similarity of
// the underlying sets. Both signatures must come from the same Scheme and
// have equal length.
func EstimateJaccard(a, b []uint64) float64 {
	if len(a) != len(b) {
		panic("minhash: signatures of different lengths")
	}
	if len(a) == 0 {
		return 0
	}
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	return float64(eq) / float64(len(a))
}

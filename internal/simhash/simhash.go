// Package simhash implements random-hyperplane locality sensitive
// hashing (Charikar 2002) for dense numeric vectors, and an accelerator
// that plugs it into the clustering framework of internal/core. It
// demonstrates the framework's generality beyond MinHash/K-Modes — the
// numeric-data extension the paper names as further work (§VI).
//
// Each hash bit is the sign of the dot product with a random Gaussian
// hyperplane: P[bit_i(x) = bit_i(y)] = 1 − θ(x,y)/π, so banding over sign
// bits plays the role banding over MinHash values plays for Jaccard
// similarity. Note the collision probability is governed by the *angle*
// between vectors while K-Means minimises Euclidean distance; for the
// well-separated workloads the extension targets the two agree closely
// (near points subtend small angles), and the framework's shortlist
// fallback keeps the algorithm total either way.
package simhash

import (
	"errors"
	"fmt"
	"math/rand"

	"lshcluster/internal/core"
	"lshcluster/internal/kernel"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/lsh"
)

// The panic values of a Sign call with a wrong-length vector or dst.
// Panicking with package-level values keeps Sign free of the escape
// diagnostics (a string converted to an interface "escapes") that
// allocheck fails on.
var (
	errSignDim = errors.New("simhash: vector dimensionality mismatch")
	errSignLen = errors.New("simhash: Sign dst length mismatch")
)

// Scheme is a seeded set of random hyperplanes producing sign-bit
// signatures of a fixed length. The hyperplanes are immutable and
// signing is safe for concurrent use; the kernel switch
// (SetScalarKernels) must only be flipped while no signing runs.
type Scheme struct {
	planes []float64 // bits·dim row-major
	dim    int
	bits   int
	// scalarKernels routes the per-hyperplane dot products through the
	// scalar reference instead of the four-plane kernel. Each of that
	// kernel's lanes keeps the scalar accumulation order, so the sign
	// bits — and every signature-derived structure — are bit-identical
	// either way; the switch is the oracle for that claim.
	scalarKernels bool
}

// NewScheme creates a scheme of `bits` hyperplanes in `dim` dimensions,
// deterministically from seed.
func NewScheme(bits, dim int, seed int64) (*Scheme, error) {
	if bits < 1 || dim < 1 {
		return nil, fmt.Errorf("simhash: bits=%d dim=%d must be ≥ 1", bits, dim)
	}
	rng := rand.New(rand.NewSource(seed))
	planes := make([]float64, bits*dim)
	for i := range planes {
		planes[i] = rng.NormFloat64()
	}
	return &Scheme{planes: planes, dim: dim, bits: bits}, nil
}

// Dim returns the expected vector dimensionality.
func (s *Scheme) Dim() int { return s.dim }

// Sign writes the sign-bit signature of vec into dst (one uint64 per
// bit: 0 or 1, the row-value format the banding index consumes) and
// returns dst. vec must have length Dim and dst one entry per hyperplane.
// kernel.Dot4 computes four hyperplanes' dot products per pass over vec,
// each bit for bit the one kernel.Dot computes; the planes past the
// last group of four go through Dot.
//
//lshvet:noescape
func (s *Scheme) Sign(vec []float64, dst []uint64) []uint64 {
	if len(vec) != s.dim {
		panic(errSignDim)
	}
	if len(dst) != s.bits {
		panic(errSignLen)
	}
	dim := s.dim
	if s.scalarKernels {
		for b := range dst {
			dst[b] = signBit(kernel.DotScalar(s.planes[b*dim:(b+1)*dim], vec))
		}
		return dst
	}
	b := 0
	for ; b+4 <= len(dst); b += 4 {
		d0, d1, d2, d3 := kernel.Dot4(s.planes[b*dim:(b+4)*dim], vec)
		dst[b], dst[b+1], dst[b+2], dst[b+3] = signBit(d0), signBit(d1), signBit(d2), signBit(d3)
	}
	for ; b < len(dst); b++ {
		dst[b] = signBit(kernel.Dot(s.planes[b*dim:(b+1)*dim], vec))
	}
	return dst
}

// signBit is a hyperplane's sign bit: 1 when the dot product is ≥ 0,
// else 0 (a NaN dot product gives 0).
func signBit(d float64) uint64 {
	if d >= 0 {
		return 1
	}
	return 0
}

// SetScalarKernels switches signing between the four-plane dot-product
// kernel (false, the default) and the scalar reference, one plane at a
// time (true, the bit-identical oracle). Flip only while no signing is
// in flight.
func (s *Scheme) SetScalarKernels(scalar bool) { s.scalarKernels = scalar }

// Accelerator is the numeric counterpart of core.MinHashAccelerator:
// SimHash signatures over a kmeans point set, banded into an lsh.Index,
// queried for candidate-cluster shortlists. The embedded
// core.ShardedIndexBase carries the shared index/arena state machine;
// this type adds the SimHash signing.
type Accelerator struct {
	core.ShardedIndexBase
	space  *kmeans.Space
	scheme *Scheme
}

// NewAccelerator creates a SimHash accelerator for the given K-Means
// space.
func NewAccelerator(space *kmeans.Space, params lsh.Params, seed int64) (*Accelerator, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	scheme, err := NewScheme(params.SignatureLen(), space.Dim(), seed)
	if err != nil {
		return nil, err
	}
	return &Accelerator{
		// A point set has no dataset fingerprint, so the index cannot
		// be persisted.
		ShardedIndexBase: core.NewShardedIndexBase(params, uint64(seed), space.NumItems(), nil),
		space:            space,
		scheme:           scheme,
	}, nil
}

// Reset discards any previous index and prepares a fresh one.
func (a *Accelerator) Reset(numClusters int) error { return a.ResetIndex(numClusters) }

// SetScalarKernels forwards the kernel-oracle switch to the signing
// scheme (core.KernelConfigurable): true signs with the scalar
// reference dot product, false (the default) with the four-plane
// kernel — signatures are bit-identical either way.
func (a *Accelerator) SetScalarKernels(scalar bool) { a.scheme.SetScalarKernels(scalar) }

// SignAll computes every point's band keys into a flat arena, sharding
// the signing across workers goroutines (core.BulkIndexer). The scheme
// is immutable and point reads are concurrency-safe, so workers need
// only private signature scratch.
func (a *Accelerator) SignAll(workers int, stop func() bool) error {
	return a.SignAllInto(workers, func() lsh.SignFunc {
		return func(item int32, sig []uint64) {
			a.scheme.Sign(a.space.Point(int(item)), sig)
		}
	}, stop)
}

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
	"fmt"
	"math/rand"

	"lshcluster/internal/core"
	"lshcluster/internal/kernel"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/lsh"
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
	// scalar reference instead of the unrolled kernel. The unrolled
	// kernel keeps the scalar accumulation order, so the sign bits —
	// and every signature-derived structure — are bit-identical either
	// way; the switch is the oracle for that claim.
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
func (s *Scheme) Sign(vec []float64, dst []uint64) []uint64 {
	if len(vec) != s.dim {
		panic("simhash: vector dimensionality mismatch")
	}
	if len(dst) != s.bits {
		panic("simhash: Sign dst length mismatch")
	}
	if s.scalarKernels {
		for b := 0; b < s.bits; b++ {
			if kernel.DotScalar(s.planes[b*s.dim:(b+1)*s.dim], vec) >= 0 {
				dst[b] = 1
			} else {
				dst[b] = 0
			}
		}
		return dst
	}
	for b := 0; b < s.bits; b++ {
		if kernel.Dot(s.planes[b*s.dim:(b+1)*s.dim], vec) >= 0 {
			dst[b] = 1
		} else {
			dst[b] = 0
		}
	}
	return dst
}

// SetScalarKernels switches signing between the unrolled dot-product
// kernel (false, the default) and its scalar reference (true, the
// bit-identical oracle). Flip only while no signing is in flight.
func (s *Scheme) SetScalarKernels(scalar bool) { s.scalarKernels = scalar }

// Accelerator is the numeric counterpart of core.MinHashAccelerator:
// SimHash signatures over a kmeans point set, banded into an lsh.Index,
// queried for candidate-cluster shortlists. The embedded
// core.ShardedIndexBase carries the shared index/arena state machine;
// this type adds the SimHash signing.
type Accelerator struct {
	core.ShardedIndexBase
	space  *kmeans.Space
	params lsh.Params
	seed   int64
	scheme *Scheme
	sigBuf []uint64
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
		space:  space,
		params: params,
		seed:   seed,
		scheme: scheme,
		sigBuf: make([]uint64, params.SignatureLen()),
	}, nil
}

// Reset prepares an empty index.
func (a *Accelerator) Reset(numClusters int) error {
	return a.ResetIndex(a.params, uint64(a.seed), a.space.NumItems(), numClusters)
}

// SetScalarKernels forwards the kernel-oracle switch to the signing
// scheme (core.KernelConfigurable): true signs with the scalar
// reference dot product, false (the default) with the unrolled kernel —
// signatures are bit-identical either way.
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

// Insert signs point item and files it under its band buckets.
func (a *Accelerator) Insert(item int32) error {
	ix := a.Index()
	if ix == nil {
		return fmt.Errorf("simhash: Insert before Reset")
	}
	sig := a.scheme.Sign(a.space.Point(int(item)), a.sigBuf)
	return ix.InsertSignature(item, sig)
}

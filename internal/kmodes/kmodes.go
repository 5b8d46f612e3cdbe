// Package kmodes implements Huang's K-Modes algorithm for clustering
// categorical data (paper §III-A1): the simple matching dissimilarity
// d(X,Y) = Σ δ(x_j, y_j) (Eq. 1–2), cluster centroids represented by
// modes — the per-attribute most frequent value of the members (Eq. 3) —
// and the cost function P(W,Q) (Eq. 4).
//
// The package provides the clustering *space* (items, modes,
// dissimilarity, mode recomputation); the Lloyd-style iteration loop that
// drives it — exact or LSH-accelerated — lives in internal/core, which
// consumes a Space through interfaces so that the same driver also runs
// the numeric K-Means extension.
package kmodes

import (
	"fmt"
	"math/rand"

	"lshcluster/internal/dataset"
)

// EmptyClusterPolicy selects what happens to a cluster that loses all its
// members during an iteration.
type EmptyClusterPolicy int

const (
	// KeepMode retains the cluster's previous mode, leaving it able to
	// re-attract items later. This is the default and matches the
	// behaviour implied by the paper (clusters are never dropped).
	KeepMode EmptyClusterPolicy = iota
	// ReseedRandomItem re-centres an emptied cluster on a random item.
	ReseedRandomItem
)

// Config parameterises a Space.
type Config struct {
	// K is the number of clusters. Required, 1 ≤ K ≤ NumItems.
	K int
	// Seed drives the initial mode selection and any reseeding.
	Seed int64
	// EmptyCluster selects the empty-cluster policy. Default KeepMode.
	EmptyCluster EmptyClusterPolicy
}

// Space is the K-Modes clustering space over a categorical dataset: k
// modes plus the operations the core driver needs. It satisfies
// core.Space structurally.
type Space struct {
	ds     *dataset.Dataset
	k      int
	m      int
	modes  []dataset.Value // k·m row-major
	seeds  []int32         // the items the initial modes were copied from
	policy EmptyClusterPolicy
	rng    *rand.Rand

	// scratch for mode recomputation
	members  [][]int32
	freq     map[dataset.Value]int32
	sizesBuf []int32

	// inc holds the FreqTable-backed incremental engine state
	// (core.IncrementalSpace); nil until BeginIncremental.
	inc *incremental

	// scalarKernels routes distance evaluations and the nearest scan
	// through the scalar reference kernels instead of the optimised
	// ones — the oracle the kernel equivalence runs compare against
	// (core.KernelConfigurable).
	scalarKernels bool
}

// SetScalarKernels switches the space between the optimised kernels —
// unrolled mismatch counts and NearestScan's posting or unrolled scan
// (false, the default) — and their scalar references (true, the
// bit-identical oracle). Set before a run, not during one.
func (s *Space) SetScalarKernels(scalar bool) { s.scalarKernels = scalar }

// mismatches counts full-row mismatches through the configured kernel.
func (s *Space) mismatches(x, y []dataset.Value) int {
	if s.scalarKernels {
		return dataset.MismatchesScalar(x, y)
	}
	return dataset.Mismatches(x, y)
}

// mismatchesBounded counts early-abandon mismatches through the
// configured kernel.
func (s *Space) mismatchesBounded(x, y []dataset.Value, bound int) int {
	if s.scalarKernels {
		return dataset.MismatchesBoundedScalar(x, y, bound)
	}
	return dataset.MismatchesBounded(x, y, bound)
}

// NewSpace selects cfg.K distinct random items as initial modes (the
// paper's initialisation: "A simple selection method would be to choose k
// random items from the dataset") and returns the space.
func NewSpace(ds *dataset.Dataset, cfg Config) (*Space, error) {
	if cfg.K < 1 || cfg.K > ds.NumItems() {
		return nil, fmt.Errorf("kmodes: k=%d out of range [1,%d]", cfg.K, ds.NumItems())
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	seeds := sampleDistinct(rng, ds.NumItems(), cfg.K)
	return NewSpaceFromSeeds(ds, seeds, cfg)
}

// NewSpaceFromSeeds builds a space whose initial modes are copies of the
// given items. Experiments use this to give the baseline and every
// accelerated variant identical initial centroids, as the paper does
// ("the same initial centroid points were selected").
func NewSpaceFromSeeds(ds *dataset.Dataset, seedItems []int32, cfg Config) (*Space, error) {
	k := len(seedItems)
	if k < 1 {
		return nil, fmt.Errorf("kmodes: no seed items")
	}
	if cfg.K != 0 && cfg.K != k {
		return nil, fmt.Errorf("kmodes: cfg.K=%d but %d seed items", cfg.K, k)
	}
	m := ds.NumAttrs()
	s := &Space{
		ds:     ds,
		k:      k,
		m:      m,
		modes:  make([]dataset.Value, k*m),
		seeds:  append([]int32(nil), seedItems...),
		policy: cfg.EmptyCluster,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		freq:   make(map[dataset.Value]int32),
	}
	for c, item := range seedItems {
		if item < 0 || int(item) >= ds.NumItems() {
			return nil, fmt.Errorf("kmodes: seed item %d out of range", item)
		}
		copy(s.mode(c), ds.Row(int(item)))
	}
	return s, nil
}

// sampleDistinct draws k distinct indices from [0,n) via a partial
// Fisher–Yates shuffle.
func sampleDistinct(rng *rand.Rand, n, k int) []int32 {
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = int32(i)
	}
	for i := 0; i < k; i++ {
		j := i + rng.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k:k]
}

// Dataset returns the underlying dataset.
func (s *Space) Dataset() *dataset.Dataset { return s.ds }

// NumItems returns the number of items being clustered.
func (s *Space) NumItems() int { return s.ds.NumItems() }

// NumClusters returns k.
func (s *Space) NumClusters() int { return s.k }

// Seeds returns the items the initial modes were copied from.
func (s *Space) Seeds() []int32 { return s.seeds }

func (s *Space) mode(c int) []dataset.Value {
	return s.modes[c*s.m : (c+1)*s.m : (c+1)*s.m]
}

// Mode returns cluster c's current mode. The slice aliases internal state
// and must not be modified.
func (s *Space) Mode(c int) []dataset.Value { return s.mode(c) }

// Dissimilarity returns d(item, mode_c): the number of mismatching
// attributes (Eq. 1–2).
func (s *Space) Dissimilarity(item, cluster int) float64 {
	return float64(s.mismatches(s.ds.Row(item), s.mode(cluster)))
}

// BoundedDissimilarity behaves like Dissimilarity but may return any
// value ≥ bound as soon as the running mismatch count reaches bound
// (early abandon). The paper's implementation computes full distances;
// the driver only enables this under the EarlyAbandon option.
func (s *Space) BoundedDissimilarity(item, cluster int, bound float64) float64 {
	ib := int(bound)
	if float64(ib) < bound {
		ib++ // ceil for non-integral bounds
	}
	return float64(s.mismatchesBounded(s.ds.Row(item), s.mode(cluster), ib))
}

// RecomputeCentroids recalculates every cluster's mode as the
// per-attribute most frequent value among its members (the minimiser of
// Eq. 3; ties break towards the smallest value ID for determinism).
// Clusters with no members follow the configured EmptyClusterPolicy.
func (s *Space) RecomputeCentroids(assign []int32) {
	if len(assign) != s.NumItems() {
		panic("kmodes: assignment length mismatch")
	}
	// Bucket items by cluster with a counting sort.
	if s.members == nil {
		s.members = make([][]int32, s.k)
	}
	for c := range s.members {
		s.members[c] = s.members[c][:0]
	}
	for i, c := range assign {
		s.members[c] = append(s.members[c], int32(i))
	}
	for c := 0; c < s.k; c++ {
		items := s.members[c]
		if len(items) == 0 {
			if s.policy == ReseedRandomItem {
				copy(s.mode(c), s.ds.Row(s.rng.Intn(s.NumItems())))
			}
			continue
		}
		mode := s.mode(c)
		for a := 0; a < s.m; a++ {
			clear(s.freq)
			var bestVal dataset.Value
			var bestCount int32 = -1
			for _, it := range items {
				v := s.ds.Row(int(it))[a]
				n := s.freq[v] + 1
				s.freq[v] = n
				if n > bestCount || (n == bestCount && v < bestVal) {
					bestCount, bestVal = n, v
				}
			}
			mode[a] = bestVal
		}
	}
}

// ClusterSizes returns the member count of every cluster under assign,
// reusing an internal buffer.
func (s *Space) ClusterSizes(assign []int32) []int32 {
	if cap(s.sizesBuf) < s.k {
		s.sizesBuf = make([]int32, s.k)
	}
	sizes := s.sizesBuf[:s.k]
	for i := range sizes {
		sizes[i] = 0
	}
	for _, c := range assign {
		sizes[c]++
	}
	return sizes
}

// Cost evaluates the K-Modes objective P(W,Q) (Eq. 4) under the given
// assignment: the total number of item-to-mode mismatches.
func (s *Space) Cost(assign []int32) float64 {
	total := 0
	for i, c := range assign {
		total += s.mismatches(s.ds.Row(i), s.mode(int(c)))
	}
	return float64(total)
}

// Model snapshots the current modes into a standalone, serialisable
// model.
func (s *Space) Model() *Model {
	return &Model{
		K:     s.k,
		M:     s.m,
		Modes: append([]dataset.Value(nil), s.modes...),
	}
}

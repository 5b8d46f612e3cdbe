package kmodes

import (
	"lshcluster/internal/dataset"
	"lshcluster/internal/kernel"
)

// NearestScan is the core.NearestScanner capability: the exact first
// assignment (paper §III-B) in one call per range of items instead of
// k Dissimilarity calls per item. It returns a function that sets
// out[i], for every item i of [lo, hi), to the cluster nearest to item
// i over all k, ties to the lowest index: what an ascending scan of
// Dissimilarity keeping the first strict minimum returns.
//
// It indexes the current modes by attribute value — for each attribute,
// the clusters whose mode holds each value — so that walking an item's
// m posting lists counts its matches with every cluster; its mismatches
// with a cluster are m minus those. When the index is not Selective
// (few values per attribute, or one value most modes share) the lists
// are long, and the function compares the item with every mode through
// the unrolled kernel instead.
//
// The index costs O(k·m) memory whatever the value IDs are. The
// returned function is valid until the modes next change; each call
// owns its scratch, so calls on disjoint ranges may run concurrently.
// Under SetScalarKernels(true) it runs the per-comparison loop
// (kernel.NearestScalar), the oracle both scans are checked against.
func (s *Space) NearestScan() func(lo, hi int, out []int32) {
	nearest := kernel.Nearest[dataset.Value]
	if s.scalarKernels {
		nearest = kernel.NearestScalar[dataset.Value]
	} else if p := kernel.NewPostings(s.modes, s.m); p.Selective() {
		return func(lo, hi int, out []int32) {
			counts := make([]int32, s.k)
			touched := make([]int32, s.k)
			for i := lo; i < hi; i++ {
				out[i] = int32(kernel.NearestByPostings(p, s.ds.Row(i), counts, touched))
			}
		}
	}
	return func(lo, hi int, out []int32) {
		for i := lo; i < hi; i++ {
			out[i] = int32(nearest(s.modes, s.ds.Row(i)))
		}
	}
}

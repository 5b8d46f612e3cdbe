package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

// minBeyond is the fewest samples that must lie beyond a reported
// percentile; a tail with fewer is a handful of outliers, not a
// percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of samples.
// It refuses, with an error, a percentile with fewer than minBeyond
// samples beyond it.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	rank := max(int(math.Ceil(p*float64(n))), 1)
	if beyond := n - rank; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*p, n, beyond, minBeyond)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	return sorted[rank-1], nil
}

// median of xs (the mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// digest fingerprints an assignment: FNV-1a over its little-endian
// cluster IDs.
func digest(parts ...[]int32) string {
	h := fnv.New64a()
	var b [4]byte
	for _, a := range parts {
		for _, c := range a {
			binary.LittleEndian.PutUint32(b[:], uint32(c))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

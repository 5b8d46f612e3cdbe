// Package lsh implements the banding scheme of locality sensitive hashing
// over MinHash signatures, together with the probability calculus the
// paper uses to choose parameters (§III-A2, §III-D, Tables I and II), and
// the bucket index with per-item cluster references that drives the
// MH-K-Modes shortlist construction (Algorithm 2).
package lsh

import (
	"fmt"
	"math"
)

// Params selects the banding configuration: the signature is divided into
// Bands bands of Rows hash values each (signature length = Bands·Rows).
// In the paper's notation Bands is b and Rows is r.
type Params struct {
	Bands int
	Rows  int
}

// Validate reports whether the parameters are usable. The signature
// length Bands·Rows must not exceed math.MaxInt32; the bound is checked
// by division, so a product that would wrap around is never computed.
func (p Params) Validate() error {
	if p.Bands < 1 {
		return fmt.Errorf("lsh: bands must be ≥ 1, got %d", p.Bands)
	}
	if p.Rows < 1 {
		return fmt.Errorf("lsh: rows must be ≥ 1, got %d", p.Rows)
	}
	if p.Rows > math.MaxInt32/p.Bands {
		return fmt.Errorf("lsh: bands·rows must be ≤ %d, got %d bands of %d rows", math.MaxInt32, p.Bands, p.Rows)
	}
	return nil
}

// SignatureLen returns the number of MinHash functions the configuration
// consumes (b·r).
func (p Params) SignatureLen() int { return p.Bands * p.Rows }

// String renders the configuration in the paper's "20b 5r" style.
func (p Params) String() string { return fmt.Sprintf("%db%dr", p.Bands, p.Rows) }

// CandidateProb returns the probability that two items with Jaccard
// similarity s collide in at least one band: 1 − (1 − s^r)^b
// (paper §III-A2).
func (p Params) CandidateProb(s float64) float64 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 1
	}
	return 1 - math.Pow(1-math.Pow(s, float64(p.Rows)), float64(p.Bands))
}

// ThresholdSimilarity returns the similarity at which the S-curve is
// steepest — approximately where the candidate probability crosses 50 % —
// given by (1/b)^(1/r) (paper §III-A2).
func (p Params) ThresholdSimilarity() float64 {
	return math.Pow(1/float64(p.Bands), 1/float64(p.Rows))
}

// ClusterHitProb returns the probability that a cluster containing
// clusterItems items, each with Jaccard similarity at least s to the
// query, contributes at least one candidate pair — and therefore appears
// on the shortlist: 1 − (1 − CandidateProb(s))^clusterItems.
//
// This is the "MH-K-Modes Probability" column of Tables I and II: the
// framework only needs one collision per relevant cluster, not all item
// pairs, which is why far looser (b, r) settings suffice than in classic
// near-duplicate detection (§III-D).
func (p Params) ClusterHitProb(s float64, clusterItems int) float64 {
	if clusterItems <= 0 {
		return 0
	}
	q := 1 - p.CandidateProb(s)
	return 1 - math.Pow(q, float64(clusterItems))
}

// ErrorBound returns the paper's guaranteed error bound (§III-C): the
// probability that, for an item with m attributes, the true best cluster
// containing clusterItems items is absent from the shortlist, assuming
// only that the best cluster shares at least one attribute value with the
// item (so the pairwise similarity is at least 1/(2m−1)):
//
//	Pr ≤ (1 − (1/(2m−1))^r)^(b·clusterItems)
//
// The paper's worked example (m=100, r=1, b=25, 20 items) evaluates to
// ≈ 0.08.
func (p Params) ErrorBound(m, clusterItems int) float64 {
	if m < 1 || clusterItems < 1 {
		return 1
	}
	s := 1 / float64(2*m-1)
	return math.Pow(1-math.Pow(s, float64(p.Rows)), float64(p.Bands*clusterItems))
}

// SearchParams returns the cheapest configuration (fewest hash functions,
// ties broken by fewer bands) whose cluster-hit probability at similarity
// s with clusterItems same-cluster items reaches targetProb, scanning
// bands in [1, maxBands] and rows in [1, maxRows]. ok is false when no
// configuration qualifies.
func SearchParams(s float64, clusterItems int, targetProb float64, maxBands, maxRows int) (best Params, ok bool) {
	bestCost := math.MaxInt
	for r := 1; r <= maxRows; r++ {
		for b := 1; b <= maxBands; b++ {
			p := Params{Bands: b, Rows: r}
			if p.ClusterHitProb(s, clusterItems) < targetProb {
				continue
			}
			cost := p.SignatureLen()
			if cost < bestCost || (cost == bestCost && b < best.Bands) {
				best, bestCost, ok = p, cost, true
			}
			break // larger b only costs more at this r
		}
	}
	return best, ok
}

// TableRow is one line of a Table I / Table II style probability table.
type TableRow struct {
	Bands       int
	Rows        int
	Jaccard     float64
	PairProb    float64 // probability two such items become candidates
	ClusterProb float64 // probability the cluster reaches the shortlist
}

// ProbabilityTable reproduces the layout of the paper's Tables I and II:
// for each (bands, similarity) combination at the given row count, the
// candidate-pair probability and the cluster-hit probability assuming
// clusterItems similar items in the cluster (the paper uses 10).
func ProbabilityTable(rows int, bands []int, sims map[int][]float64, clusterItems int) []TableRow {
	var out []TableRow
	for _, b := range bands {
		p := Params{Bands: b, Rows: rows}
		for _, s := range sims[b] {
			out = append(out, TableRow{
				Bands:       b,
				Rows:        rows,
				Jaccard:     s,
				PairProb:    p.CandidateProb(s),
				ClusterProb: p.ClusterHitProb(s, clusterItems),
			})
		}
	}
	return out
}

// TableI returns the paper's Table I grid (row value 1, 10 other items in
// the cluster).
func TableI() []TableRow {
	return ProbabilityTable(1,
		[]int{10, 100, 800},
		map[int][]float64{
			10:  {0.01, 0.1, 0.2, 0.5},
			100: {0.001, 0.01, 0.1, 0.5, 0.8},
			800: {0.0001, 0.001, 0.01, 0.1},
		}, 10)
}

// TableII returns the paper's Table II grid (row value 5, 10 other items
// in the cluster).
func TableII() []TableRow {
	return ProbabilityTable(5,
		[]int{10, 100, 800},
		map[int][]float64{
			10:  {0.1, 0.2, 0.5, 0.8},
			100: {0.1, 0.5},
			800: {0.1, 0.2, 0.3},
		}, 10)
}

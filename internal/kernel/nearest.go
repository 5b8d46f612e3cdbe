package kernel

import "slices"

// Postings is an inverted index over k centroid rows of m categorical
// attributes: for every attribute, the distinct values the centroids
// hold there, ascending, and for each such value the centroids holding
// it, ascending. Its size is O(k·m) whatever the value IDs are — a
// value is found by binary search, never by indexing a table sized by
// the largest ID.
type Postings[E ~uint32] struct {
	// attrStart[a]..attrStart[a+1] delimits attribute a's values in vals.
	attrStart []int32
	// vals holds each attribute's distinct centroid values, ascending.
	vals []E
	// listStart[j]..listStart[j+1] delimits, in lists, the centroids
	// holding vals[j].
	listStart []int32
	lists     []int32
	// selective records whether the index beats row comparisons (see
	// Selective).
	selective bool
}

// NewPostings indexes k = len(rows)/m centroid rows stored row-major.
func NewPostings[E ~uint32](rows []E, m int) *Postings[E] {
	k := len(rows) / m
	p := &Postings[E]{
		attrStart: make([]int32, m+1),
		lists:     make([]int32, 0, k*m),
	}
	// Per attribute, sort (value, centroid) pairs packed into one word:
	// values ascend, and each value's centroids ascend behind it.
	pairs := make([]uint64, k)
	for a := 0; a < m; a++ {
		for c := range pairs {
			pairs[c] = uint64(rows[c*m+a])<<32 | uint64(c)
		}
		slices.Sort(pairs)
		for j, pc := range pairs {
			if v := E(pc >> 32); j == 0 || v != E(pairs[j-1]>>32) {
				p.vals = append(p.vals, v)
				p.listStart = append(p.listStart, int32(len(p.lists)))
			}
			p.lists = append(p.lists, int32(uint32(pc)))
		}
		p.attrStart[a+1] = int32(len(p.vals))
	}
	p.listStart = append(p.listStart, int32(len(p.lists)))
	// A row whose values are spread like the centroids' holds a value
	// shared by l centroids with probability l/k, and then walks its l
	// entries: Σl²/k entries per row in all. Nearest compares k·m values
	// per row; an entry costs about twice a compared value.
	walk := 0
	for j := 0; j+1 < len(p.listStart); j++ {
		l := int(p.listStart[j+1] - p.listStart[j])
		walk += l * l
	}
	p.selective = 2*walk < k*k*m
	return p
}

// Selective reports whether NearestByPostings is expected to beat
// Nearest on rows whose values are spread like the centroids': whether
// such a row walks fewer than half of the k·m entries Nearest compares.
// Attributes with few values, or one value most centroids share — the 0
// of a binary bag-of-words column — make the lists long and the index
// unselective.
func (p *Postings[E]) Selective() bool { return p.selective }

// NearestByPostings returns the centroid of p nearest to row under the
// categorical mismatch count: the one sharing the most attribute values
// with it (its mismatches are m minus those matches), ties to the lowest
// index, and centroid 0 when row matches none. Walking row's m posting
// lists counts its matches with every centroid at once, so the cost is
// m binary searches plus one increment per match instead of k row
// comparisons. counts (all zero, one entry per centroid) and touched (at
// least one entry per centroid) are the caller's scratch; counts is all
// zero again on return.
//
//lshvet:noescape
func NearestByPostings[E ~uint32](p *Postings[E], row []E, counts, touched []int32) int {
	nt := 0
	for a, v := range row {
		lo, hi := int(p.attrStart[a]), int(p.attrStart[a+1])
		for lo < hi {
			h := int(uint(lo+hi) >> 1)
			if p.vals[h] < v {
				lo = h + 1
			} else {
				hi = h
			}
		}
		if lo == int(p.attrStart[a+1]) || p.vals[lo] != v {
			continue
		}
		for _, c := range p.lists[p.listStart[lo]:p.listStart[lo+1]] {
			if counts[c] == 0 {
				touched[nt] = c
				nt++
			}
			counts[c]++
		}
	}
	best, bestN := 0, int32(0)
	for _, c := range touched[:nt] {
		n := counts[c]
		counts[c] = 0
		if n > bestN || (n == bestN && int(c) < best) {
			best, bestN = int(c), n
		}
	}
	return best
}

// Nearest returns the centroid nearest to row among the len(rows)/len(row)
// centroid rows (row-major) under the categorical mismatch count, ties
// to the lowest index: it compares row with each centroid in ascending
// order through Mismatches and keeps the first strict minimum. It is
// the scan for inputs whose postings are not Selective.
//
//lshvet:noescape
func Nearest[E ~uint32](rows, row []E) int {
	m := len(row)
	best, bestD := 0, m+1
	for c, off := 0, 0; off+m <= len(rows) && m > 0; c, off = c+1, off+m {
		if d := Mismatches(row, rows[off:off+m:off+m]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// NearestScalar is the scalar reference for Nearest and
// NearestByPostings: Nearest's loop over MismatchesScalar.
//
//lshvet:noescape
func NearestScalar[E ~uint32](rows, row []E) int {
	m := len(row)
	best, bestD := 0, m+1
	for c, off := 0, 0; off+m <= len(rows) && m > 0; c, off = c+1, off+m {
		if d := MismatchesScalar(row, rows[off:off+m:off+m]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

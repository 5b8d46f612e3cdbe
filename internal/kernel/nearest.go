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

// NearestSquared returns the centroid nearest to row among the
// len(rows)/len(row) centroid rows (row-major) under the squared
// Euclidean distance, ties to the lowest index: what
// NearestSquaredScalar's ascending scan keeping the first strict
// minimum returns. Row 0 starts as the best whatever its distance, so a
// NaN there keeps 0 (nothing compares below NaN), and a later row at
// NaN or +Inf never wins. No rows, or rows of length 0, return 0.
//
// After row 0 it sweeps four rows per pass over row, each row with its
// own single accumulator in element order, so every distance has
// SquaredDistanceScalar's bits; the four are compared in ascending
// order. The four addition chains overlap, where one row at a time
// waits for each addition.
//
//lshvet:noescape
func NearestSquared(rows, row []float64) int {
	m := len(row)
	if m == 0 || len(rows) < m {
		return 0
	}
	k := len(rows) / m
	best, bestD := 0, SquaredDistance(row, rows[:m:m])
	c := 1
	for ; c+4 <= k; c += 4 {
		d0, d1, d2, d3 := squared4(rows[c*m:(c+4)*m:(c+4)*m], row)
		if d0 < bestD {
			best, bestD = c, d0
		}
		if d1 < bestD {
			best, bestD = c+1, d1
		}
		if d2 < bestD {
			best, bestD = c+2, d2
		}
		if d3 < bestD {
			best, bestD = c+3, d3
		}
	}
	for ; c < k; c++ {
		if d := SquaredDistance(row, rows[c*m:(c+1)*m:(c+1)*m]); d < bestD {
			best, bestD = c, d
		}
	}
	return best
}

// squared4 returns the squared distances from x to four rows of len(x)
// floats stored row-major at the front of rows, each lane accumulated
// as SquaredDistanceScalar(x, row) accumulates it.
func squared4(rows, x []float64) (s0, s1, s2, s3 float64) {
	n := len(x)
	r0 := rows[:n:n]
	r1 := rows[n:][:n:n]
	r2 := rows[2*n:][:n:n]
	r3 := rows[3*n:][:n:n]
	for i, v := range x {
		d0 := v - r0[i]
		d1 := v - r1[i]
		d2 := v - r2[i]
		d3 := v - r3[i]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return s0, s1, s2, s3
}

// NearestSquaredScalar is the scalar reference for NearestSquared: an
// ascending scan of SquaredDistanceScalar that starts from row 0 and
// keeps the first strict minimum, as the driver's per-centroid scan
// over Dissimilarity does.
//
//lshvet:noescape
func NearestSquaredScalar(rows, row []float64) int {
	m := len(row)
	if m == 0 || len(rows) < m {
		return 0
	}
	best, bestD := 0, SquaredDistanceScalar(row, rows[:m:m])
	for c, off := 1, m; off+m <= len(rows); c, off = c+1, off+m {
		if d := SquaredDistanceScalar(row, rows[off:off+m:off+m]); d < bestD {
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

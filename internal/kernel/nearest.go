package kernel

import "slices"

// Postings is an inverted index over k centroid rows of m categorical
// attributes: for every (attribute, value) pair some centroid holds,
// the centroids holding it, ascending. Each pair's list is found by one
// probe of an open-addressed table keyed by PairKey, so its size is
// O(k·m) whatever the value IDs are, never a table sized by the
// largest ID.
type Postings[E ~uint32] struct {
	// cells holds one cell per listed pair, at most half full, probed
	// linearly from PairHome.
	cells []postingCell
	shift uint
	// lists holds every list, each pair's centroids in one span.
	lists []int32
	// selective records whether the index beats row comparisons (see
	// Selective).
	selective bool
}

// postingCell is the list of one (attribute, value) pair: lists[lo:hi].
// Every list is non-empty, so hi == 0 marks an empty cell, and an empty
// cell's span is empty.
type postingCell struct {
	key    uint64
	lo, hi int32
}

// PairKey packs attribute a and value v into one key of a table over
// (attribute, value) pairs.
func PairKey[E ~uint32](a int, v E) uint64 { return uint64(a)<<32 | uint64(v) }

// PairTableSize returns the cell count and home-slot shift of an
// open-addressed table that holds pairs keys at most half full: the
// smallest power of two, at least 2, of at least 2·pairs cells.
func PairTableSize(pairs int) (size int, shift uint) {
	size, shift = 2, 63
	for size < 2*pairs {
		size, shift = 2*size, shift-1
	}
	return size, shift
}

// PairHome is key's first probe in a table of PairTableSize's shift:
// Fibonacci hashing, which spreads the consecutive values of one
// attribute over the whole table.
func PairHome(key uint64, shift uint) int { return int(key * 0x9e3779b97f4a7c15 >> shift) }

// NewPostings indexes k = len(rows)/m centroid rows stored row-major.
func NewPostings[E ~uint32](rows []E, m int) *Postings[E] {
	k := len(rows) / m
	lists := make([]int32, 0, k*m)
	// keys[j] is the j-th list's pair, listStart[j]..listStart[j+1] its
	// span in lists.
	var keys []uint64
	var listStart []int32
	// Per attribute, sort (value, centroid) pairs packed into one word:
	// values ascend, and each value's centroids ascend behind it.
	pairs := make([]uint64, k)
	for a := 0; a < m; a++ {
		for c := range pairs {
			pairs[c] = uint64(rows[c*m+a])<<32 | uint64(c)
		}
		slices.Sort(pairs)
		for j, pc := range pairs {
			if j == 0 || pc>>32 != pairs[j-1]>>32 {
				keys = append(keys, PairKey(a, uint32(pc>>32)))
				listStart = append(listStart, int32(len(lists)))
			}
			lists = append(lists, int32(uint32(pc)))
		}
	}
	listStart = append(listStart, int32(len(lists)))
	size, shift := PairTableSize(len(keys))
	p := &Postings[E]{cells: make([]postingCell, size), shift: shift, lists: lists}
	// A row whose values are spread like the centroids' holds a value
	// shared by l centroids with probability l/k, and then walks its l
	// entries: Σl²/k entries per row in all. Nearest compares k·m values
	// per row; an entry costs about twice a compared value.
	walk := 0
	for j, key := range keys {
		i := PairHome(key, shift)
		for p.cells[i].hi != 0 {
			i = (i + 1) & (size - 1)
		}
		p.cells[i] = postingCell{key: key, lo: listStart[j], hi: listStart[j+1]}
		l := int(listStart[j+1] - listStart[j])
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
// m table probes plus one increment per match instead of k row
// comparisons. counts (all zero, one entry per centroid) and touched (at
// least one entry per centroid) are the caller's scratch; counts is all
// zero again on return.
//
//lshvet:noescape
func NearestByPostings[E ~uint32](p *Postings[E], row []E, counts, touched []int32) int {
	nt := 0
	mask := len(p.cells) - 1
	for a, v := range row {
		key := PairKey(a, v)
		i := PairHome(key, p.shift)
		for p.cells[i].hi != 0 && p.cells[i].key != key {
			i = (i + 1) & mask
		}
		cell := p.cells[i]
		for _, c := range p.lists[cell.lo:cell.hi] {
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

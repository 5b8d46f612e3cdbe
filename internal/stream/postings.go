package stream

import (
	"lshcluster/internal/dataset"
	"lshcluster/internal/kernel"
)

// modePostings lists, for every (attribute, value) pair some current
// mode holds, the clusters whose mode holds it: the per-attribute
// postings kernel.NearestByPostings walks in the batch first
// assignment, kept up to date as the stream's modes change. When a
// cell's mode changes, its cluster moves from the old value's list to
// the new one's (follow).
//
// Everything is flat and pointer-free, and nothing is allocated after
// newModePostings. Each (attribute, value) list has a cell in an
// open-addressed table holding its first cluster and its length. Each
// of the k·m (cluster, attribute) pairs sits in exactly one list, so
// the table, sized for k·m lists at most half full, never grows; the
// lists are threaded through per-pair links, so a move costs two table
// lookups.
type modePostings struct {
	k, m  int
	cells []postCell
	// shift maps a key to its home cell (kernel.PairHome).
	shift uint
	// val[c·m+a] is the value cluster c is listed under for attribute a
	// (its mode's value there); next and prev link c to the other
	// clusters of that list, −1 ending it.
	val        []dataset.Value
	next, prev []int32
	// counts and touched are nearest's buffers, one entry per cluster;
	// counts is all zero between calls.
	counts, touched []int32
}

// postCell is the list of one (attribute, value) pair, packed into key
// by kernel.PairKey: its first cluster and its length, n == 0 marking an
// empty cell.
type postCell struct {
	key  uint64
	head int32
	n    int32
}

// newModePostings lists the k modes of m attributes stored row-major.
func newModePostings(modes []dataset.Value, k, m int) *modePostings {
	size, shift := kernel.PairTableSize(k * m)
	p := &modePostings{
		k:       k,
		m:       m,
		cells:   make([]postCell, size),
		shift:   shift,
		val:     make([]dataset.Value, k*m),
		next:    make([]int32, k*m),
		prev:    make([]int32, k*m),
		counts:  make([]int32, k),
		touched: make([]int32, k),
	}
	for j, v := range modes {
		p.add(j, v)
	}
	return p
}

// home is key's first probe.
func (p *modePostings) home(key uint64) int { return kernel.PairHome(key, p.shift) }

// find returns the position of key's cell, or of the empty cell where a
// probe for key ends.
func (p *modePostings) find(key uint64) int {
	mask := len(p.cells) - 1
	for i := p.home(key); ; i = (i + 1) & mask {
		if c := &p.cells[i]; c.n == 0 || c.key == key {
			return i
		}
	}
}

// add lists pair j = c·m+a under value v.
func (p *modePostings) add(j int, v dataset.Value) {
	c, a := int32(j/p.m), j%p.m
	cell := &p.cells[p.find(kernel.PairKey(a, v))]
	p.val[j], p.prev[j], p.next[j] = v, -1, -1
	if cell.n == 0 {
		cell.key = kernel.PairKey(a, v)
	} else {
		p.next[j] = cell.head
		p.prev[int(cell.head)*p.m+a] = c
	}
	cell.head = c
	cell.n++
}

// remove takes pair j out of its value's list, freeing the list's cell
// when it empties.
func (p *modePostings) remove(j int) {
	a := j % p.m
	i := p.find(kernel.PairKey(a, p.val[j]))
	cell := &p.cells[i]
	if prev := p.prev[j]; prev >= 0 {
		p.next[int(prev)*p.m+a] = p.next[j]
	} else {
		cell.head = p.next[j]
	}
	if next := p.next[j]; next >= 0 {
		p.prev[int(next)*p.m+a] = p.prev[j]
	}
	if cell.n--; cell.n == 0 {
		p.free(i)
	}
}

// free empties cell i, shifting later cells of its probe run back into
// the gap so that each stays reachable from its home cell.
func (p *modePostings) free(i int) {
	mask := len(p.cells) - 1
	for j := (i + 1) & mask; p.cells[j].n != 0; j = (j + 1) & mask {
		// cells[j] may fill the gap unless its home lies after the gap.
		if (j-p.home(p.cells[j].key))&mask >= (j-i)&mask {
			p.cells[i] = p.cells[j]
			i = j
		}
	}
	p.cells[i] = postCell{}
}

// follow moves cluster c to the lists of mode, its current mode, in
// every attribute whose value changed.
func (p *modePostings) follow(c int, mode []dataset.Value) {
	for a, v := range mode {
		if j := c*p.m + a; p.val[j] != v {
			p.remove(j)
			p.add(j, v)
		}
	}
}

// nearest returns the cluster whose mode shares the most values with
// row over its present attributes, ties to the lowest index, and
// cluster 0 when none shares one: kernel.NearestByPostings' rule, and
// the first strict minimum of an ascending scan of masked mismatch
// counts, which are the present attributes less the shared values. A
// list holds at most k clusters, so a row walks at most the k·m entries
// a scan of every mode compares, even when every mode is alike.
//
//lshvet:noescape
func (p *modePostings) nearest(row []dataset.Value, present []bool) int {
	nt := 0
	for a, v := range row {
		if present != nil && !present[a] {
			continue
		}
		cell := &p.cells[p.find(kernel.PairKey(a, v))]
		if cell.n == 0 {
			continue
		}
		for c := cell.head; c >= 0; c = p.next[int(c)*p.m+a] {
			if p.counts[c] == 0 {
				p.touched[nt] = c
				nt++
			}
			p.counts[c]++
		}
	}
	best, bestN := 0, int32(0)
	for _, c := range p.touched[:nt] {
		n := p.counts[c]
		p.counts[c] = 0
		if n > bestN || (n == bestN && int(c) < best) {
			best, bestN = int(c), n
		}
	}
	return best
}

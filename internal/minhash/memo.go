package minhash

import "lshcluster/internal/par"

// Memo caches the per-element hash column (h_1(x) … h_n(x)) of a
// Scheme. Categorical datasets repeat the same interned value across
// many items, so during bootstrap indexing each distinct value's column
// can be computed once and every later occurrence reduced to an
// element-wise min over the cached column — compares instead of
// multiply-mod hashing. Signatures are bit-identical to Scheme.Sign.
//
// Columns are stored in a slice indexed by element ID, which interned
// dataset values keep dense; IDs beyond memoLimit are hashed directly
// without caching so a pathological sparse ID cannot balloon memory.
//
// A Memo is NOT safe for concurrent use (it mutates its cache); create
// one per signing goroutine — or Fill it first, after which Sign is
// read-only (and therefore safe to share across goroutines) for
// element IDs inside the filled table.
type Memo struct {
	scheme *Scheme
	cols   [][]uint64
	// arena slab-allocates columns (arenaCols at a time) so memoising a
	// large dictionary does not cost one heap allocation per value.
	arena []uint64
}

// arenaCols is how many columns each arena slab holds.
const arenaCols = 256

// memoLimit caps the memo table length; elements with IDs at or above
// it are hashed directly on every occurrence.
const memoLimit = 1 << 26

// NewMemo returns an empty memo over the scheme. capacityHint pre-sizes
// the table for the largest expected element ID (e.g. the dataset's max
// interned value + 1); it may be 0.
func (s *Scheme) NewMemo(capacityHint int) *Memo {
	if capacityHint < 0 {
		capacityHint = 0
	}
	if capacityHint > memoLimit {
		capacityHint = memoLimit
	}
	return &Memo{scheme: s, cols: make([][]uint64, capacityHint)}
}

// Fill precomputes every column of the memo table ([0, Len)), sharding
// the work across workers goroutines with per-worker arena slabs. Each
// column is computed exactly once — the same total hashing work a
// serial warm-up would do, divided by workers.
//
// After Fill, Sign never mutates the memo as long as every element ID
// it encounters is below Len, making it safe for concurrent use by
// parallel signing workers (the table was sized from the dataset's
// maximum interned value, so dataset signing qualifies). An
// out-of-table ID degrades safely for IDs ≥ the growth limit (hashed
// directly, no mutation) but must not occur below it.
func (m *Memo) Fill(workers int) {
	if workers < 2 {
		for x := 0; x < len(m.cols); x++ {
			if m.cols[x] == nil {
				m.cols[x] = m.scheme.fam.HashAll(uint64(x), m.newCol())
			}
		}
		return
	}
	sigLen := m.scheme.SignatureLen()
	par.Ranges(len(m.cols), workers, func(lo, hi int) {
		// Workers write disjoint cols entries and carve columns from a
		// private slab, never from the shared arena.
		missing := 0
		for x := lo; x < hi; x++ {
			if m.cols[x] == nil {
				missing++
			}
		}
		slab := make([]uint64, missing*sigLen)
		for x := lo; x < hi; x++ {
			if m.cols[x] != nil {
				continue
			}
			col := slab[:sigLen:sigLen]
			slab = slab[sigLen:]
			m.cols[x] = m.scheme.fam.HashAll(uint64(x), col)
		}
	})
}

// Len returns the memo table length: the exclusive upper bound on
// element IDs that Fill precomputes and that a filled memo can sign
// without mutation.
func (m *Memo) Len() int { return len(m.cols) }

// Sign computes the MinHash signature of set into dst and returns dst,
// exactly as Scheme.Sign would, memoizing each distinct element's hash
// column along the way. Each element costs one branch-free
// element-wise minimum over its cached column; an element at or above
// the growth limit is hashed directly, without caching.
//
//lshvet:noescape
func (m *Memo) Sign(set []uint64, dst []uint64) []uint64 {
	if len(dst) != m.scheme.SignatureLen() {
		panic(errSignLen)
	}
	for i := range dst {
		dst[i] = EmptySlot
	}
	for j, x := range set {
		col := m.col(x)
		if col == nil {
			m.scheme.fold(set[j:j+1], dst)
			continue
		}
		col = col[:len(dst)]
		for i := range dst {
			dst[i] = min(dst[i], col[i])
		}
	}
	return dst
}

// col returns the cached hash column for x, computing it on first use,
// or nil when x is at or above memoLimit.
func (m *Memo) col(x uint64) []uint64 {
	if x < uint64(len(m.cols)) {
		if c := m.cols[x]; c != nil {
			return c
		}
	} else if x < memoLimit {
		// Double on growth so ascending IDs stay amortised O(1).
		newLen := 2 * len(m.cols)
		if newLen < int(x)+1 {
			newLen = int(x) + 1
		}
		if newLen > memoLimit {
			newLen = memoLimit
		}
		grown := make([][]uint64, newLen)
		copy(grown, m.cols)
		m.cols = grown
	} else {
		return nil
	}
	c := m.scheme.fam.HashAll(x, m.newCol())
	m.cols[x] = c
	return c
}

// newCol carves one column out of the current arena slab.
func (m *Memo) newCol() []uint64 {
	n := m.scheme.SignatureLen()
	if len(m.arena) < n {
		m.arena = make([]uint64, arenaCols*n)
	}
	c := m.arena[:n:n]
	m.arena = m.arena[n:]
	return c
}

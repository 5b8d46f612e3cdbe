package kmodes

import (
	"slices"

	"lshcluster/internal/dataset"
	"lshcluster/internal/par"
)

// FreqTable maintains per-cluster per-attribute value frequencies and
// the induced modes *incrementally* — Huang's "frequency based updating
// of modes" (paper §III-A1) — so that moving one item between clusters
// updates both affected modes without recomputing them from members.
//
// Each (cluster, attribute) cell is a small open-addressed hash table of
// (value, count) entries — linear probing, at most 3/4 full, a zero
// count marking a free slot — and the table caches, per cell, the count
// of its mode and a runner-up bound: a count no value other than the
// mode exceeds. An update costs one expected-O(1) probe per attribute
// however many distinct values a cell holds; a cell is rescanned only
// when the count of its mode value drops to the runner-up bound or
// below, where another value may tie or pass it. Memory is at most
// four slots per distinct value a cell holds, whatever the value IDs
// are.
//
// The maintained mode matches Space.RecomputeCentroids exactly: per
// attribute, the most frequent value among members, ties to the smallest
// value ID. An empty cluster keeps its last mode (the KeepMode policy).
type FreqTable struct {
	k, m  int
	cells [][]freqEntry   // k·m tables, indexed c·m+a; nil or a power-of-two length
	live  []int32         // entries in each cell
	modes []dataset.Value // k·m current argmax values
	// modeN[j] is the count of modes[j] in cell j, 0 when the value is
	// absent — an emptied cell, or a SetMode placeholder no member holds.
	modeN []int32
	// runnerUp[j] bounds from above the count of every value in cell j
	// other than modes[j]. inc and SetMode raise it; addAll and rescan
	// set it to the exact runner-up count.
	runnerUp []int32
	sizes    []int32
}

// freqEntry is one value's member count within a cell; n == 0 marks a
// free slot.
type freqEntry struct {
	v dataset.Value
	n int32
}

// NewFreqTable creates an empty table for k clusters over m attributes.
func NewFreqTable(k, m int) *FreqTable {
	return &FreqTable{
		k:        k,
		m:        m,
		cells:    make([][]freqEntry, k*m),
		live:     make([]int32, k*m),
		modes:    make([]dataset.Value, k*m),
		modeN:    make([]int32, k*m),
		runnerUp: make([]int32, k*m),
		sizes:    make([]int32, k),
	}
}

// slabLen is the length, in entries, of the slabs addAll carves cell
// tables from (256 KiB). On kmodes-cold's input a build fills 50 of
// them, and the tails it leaves unused come to a tenth of one.
const slabLen = 1 << 15

// addAll adds every item of ds to its cluster in assign, leaving the
// counts, modes and exact runner-up counts n·m Adds would leave (the
// bounds as tight as they can be), on a table no item was added to
// yet. It groups the items by cluster, then splits the clusters into
// workers contiguous ranges, each built on a goroutine of its own: a
// member column of a cluster is counted in the goroutine's scratch
// table, and the counts are copied into a cell table of its final size
// carved from the goroutine's slabs — no table grows, no cell is
// allocated on its own, and the scratch is sized by the largest
// cluster, never by value ID. A cell that does not fit in what is left
// of a slab starts the next slab, and that tail stays unused.
func (t *FreqTable) addAll(ds *dataset.Dataset, assign []int32, workers int) {
	start := make([]int32, t.k+1) // cluster c's members are members[start[c]:start[c+1]]
	for _, c := range assign {
		start[c+1]++
	}
	for c := 0; c < t.k; c++ {
		t.sizes[c] = start[c+1]
		start[c+1] += start[c]
	}
	members := make([]int32, len(assign))
	next := slices.Clone(start[:t.k])
	for i, c := range assign {
		members[next[c]] = int32(i)
		next[c]++
	}
	par.Ranges(t.k, workers, func(lo, hi int) {
		largest := int32(0)
		for c := lo; c < hi; c++ {
			largest = max(largest, t.sizes[c])
		}
		scratch := make([]freqEntry, tableLen(int(largest)))
		used := make([]int32, largest) // the scratch slots holding a value
		var slab []freqEntry
		for c := lo; c < hi; c++ {
			items := members[start[c]:start[c+1]]
			if len(items) == 0 {
				continue // its cells stay empty, keeping the placeholder mode
			}
			tab := scratch[:tableLen(len(items))]
			for a := 0; a < t.m; a++ {
				live := 0
				for _, it := range items {
					v := ds.Row(int(it))[a]
					i, ok := slot(tab, v)
					if !ok {
						tab[i].v = v
						used[live] = int32(i)
						live++
					}
					tab[i].n++
				}
				size := tableLen(live)
				if len(slab) < size {
					slab = make([]freqEntry, max(slabLen, size))
				}
				cell := slab[:size:size]
				slab = slab[size:]
				j := c*t.m + a
				best, runnerUp := freqEntry{v: t.modes[j]}, int32(0)
				for _, i := range used[:live] {
					e := tab[i]
					tab[i] = freqEntry{}
					p, _ := slot(cell, e.v)
					cell[p] = e
					if e.n > best.n || (e.n == best.n && e.v < best.v) {
						runnerUp, best = best.n, e
					} else {
						runnerUp = max(runnerUp, e.n)
					}
				}
				t.cells[j], t.live[j] = cell, int32(live)
				t.modes[j], t.modeN[j], t.runnerUp[j] = best.v, best.n, runnerUp
			}
		}
	})
}

// tableLen is the cell table length for live entries: the smallest
// power of two, at least 4, that they fill at most 3/4 of.
func tableLen(live int) int {
	n := 4
	for 4*live > 3*n {
		n *= 2
	}
	return n
}

// NumClusters returns k.
func (t *FreqTable) NumClusters() int { return t.k }

// NumAttrs returns m.
func (t *FreqTable) NumAttrs() int { return t.m }

// Size returns cluster c's current member count.
func (t *FreqTable) Size(c int) int { return int(t.sizes[c]) }

// Mode returns cluster c's current mode. The slice aliases internal
// state, stays up to date as items move, and must not be modified.
func (t *FreqTable) Mode(c int) []dataset.Value {
	return t.modes[c*t.m : (c+1)*t.m : (c+1)*t.m]
}

// SetMode overwrites cluster c's mode without touching frequencies —
// used to install initial centroids before any member is added. A
// replaced mode value becomes one of the others, so the runner-up
// bound rises to its count.
func (t *FreqTable) SetMode(c int, mode []dataset.Value) {
	if len(mode) != t.m {
		panic("kmodes: SetMode arity mismatch")
	}
	base := c * t.m
	for a, v := range mode {
		j := base + a
		n := int32(0)
		if cell := t.cells[j]; len(cell) > 0 {
			if i, ok := slot(cell, v); ok {
				n = cell[i].n
			}
		}
		if v != t.modes[j] {
			t.runnerUp[j] = max(t.runnerUp[j], t.modeN[j])
		}
		t.modes[j], t.modeN[j] = v, n
	}
}

// slot returns the position of v in cell, or the free slot where it
// would go, and whether it is there. cell has a free slot.
func slot(cell []freqEntry, v dataset.Value) (int, bool) {
	mask := len(cell) - 1
	for i := home(v, mask); ; i = (i + 1) & mask {
		if cell[i].n == 0 {
			return i, false
		}
		if cell[i].v == v {
			return i, true
		}
	}
}

// home is v's first probe in a table of mask+1 slots: the high half of
// a 64-bit multiplicative hash, to which every bit of v contributes, so
// neither small dense IDs nor IDs sharing their low bits pile up.
func home(v dataset.Value, mask int) int {
	return int(uint64(v)*0x9e3779b97f4a7c15>>32) & mask
}

// Add registers row as a member of cluster c and updates the mode.
func (t *FreqTable) Add(c int, row []dataset.Value) {
	if len(row) != t.m {
		panic("kmodes: Add arity mismatch")
	}
	base := c * t.m
	for a, v := range row {
		t.inc(base+a, v)
	}
	t.sizes[c]++
}

// AddMasked registers row as a member of cluster c, but counts only the
// attributes flagged in present towards the frequencies (and hence the
// modes). Absent attributes are missing data: their slot value is not
// observed, so it must not vote — folding it in would let placeholder
// values dominate the evolving mode on sparse data. The item still
// counts towards the cluster size. A nil mask is equivalent to Add.
//
// A masked-added row is only partially counted: Remove and Move
// decrement the full row, so calling either on such a row corrupts the
// table (counts of other members' values drop). Rows folded in with a
// mask must be removed or moved with the same mask semantics — or, as
// in the streaming clusterer, never.
func (t *FreqTable) AddMasked(c int, row []dataset.Value, present []bool) {
	if present == nil {
		t.Add(c, row)
		return
	}
	if len(row) != t.m || len(present) != t.m {
		panic("kmodes: AddMasked arity mismatch")
	}
	base := c * t.m
	for a, v := range row {
		if present[a] {
			t.inc(base+a, v)
		}
	}
	t.sizes[c]++
}

// inc counts one more v in cell j. Only v's count rises, so the mode
// changes only if v now beats the mode's cached count, or ties it with
// a smaller ID. A mode no member holds has count 0, so the first value
// counted into an emptied or placeholder cell always takes over. The
// runner-up bound rises to v's count when v stays below the mode, and
// to the old mode's count when v takes over.
func (t *FreqTable) inc(j int, v dataset.Value) {
	cell := t.cells[j]
	i, ok := 0, false
	if len(cell) > 0 {
		i, ok = slot(cell, v)
	}
	if !ok {
		if t.live[j]++; 4*int(t.live[j]) > 3*len(cell) {
			cell = t.grow(j)
			i, _ = slot(cell, v)
		}
		cell[i].v = v
	}
	cell[i].n++
	switch n := cell[i].n; {
	case v == t.modes[j]:
		t.modeN[j] = n
	case n > t.modeN[j] || (n == t.modeN[j] && v < t.modes[j]):
		t.runnerUp[j] = max(t.runnerUp[j], t.modeN[j])
		t.modes[j], t.modeN[j] = v, n
	default:
		t.runnerUp[j] = max(t.runnerUp[j], n)
	}
}

// grow doubles cell j's table (a new cell gets 4 slots) and reinserts
// its entries.
func (t *FreqTable) grow(j int) []freqEntry {
	old := t.cells[j]
	cell := make([]freqEntry, max(2*len(old), tableLen(0)))
	for _, e := range old {
		if e.n != 0 {
			i, _ := slot(cell, e.v)
			cell[i] = e
		}
	}
	t.cells[j] = cell
	return cell
}

// Remove unregisters row from cluster c and updates the mode. Removing a
// row that was never added corrupts the table; callers own that
// invariant.
func (t *FreqTable) Remove(c int, row []dataset.Value) {
	if len(row) != t.m {
		panic("kmodes: Remove arity mismatch")
	}
	base := c * t.m
	for a, v := range row {
		j := base + a
		if cell := t.cells[j]; len(cell) > 0 {
			if i, ok := slot(cell, v); ok {
				if cell[i].n--; cell[i].n == 0 {
					free(cell, i)
					t.live[j]--
				}
			}
		}
		// Only a decrement of the current mode value can change the
		// argmax, and only if its count no longer stays strictly above
		// every other value's; rescan that cell then.
		if t.modes[j] == v {
			if t.modeN[j]-1 > t.runnerUp[j] {
				t.modeN[j]--
			} else {
				t.rescan(j)
			}
		}
	}
	t.sizes[c]--
}

// Move transfers row from cluster `from` to cluster `to`.
func (t *FreqTable) Move(from, to int, row []dataset.Value) {
	if from == to {
		return
	}
	t.Remove(from, row)
	t.Add(to, row)
}

// free empties slot i of cell, shifting later entries of its probe run
// back into the gap so that each stays reachable from its home slot.
func free(cell []freqEntry, i int) {
	mask := len(cell) - 1
	for j := (i + 1) & mask; cell[j].n != 0; j = (j + 1) & mask {
		// cell[j] may fill the gap unless its home lies after the gap.
		if (j-home(cell[j].v, mask))&mask >= (j-i)&mask {
			cell[i] = cell[j]
			i = j
		}
	}
	cell[i] = freqEntry{}
}

// rescan recomputes the argmax of cell j: the highest count, ties to the
// smallest ID, and the exact runner-up count beside it. An emptied cell
// keeps the previous mode value (KeepMode semantics) with a count of 0.
func (t *FreqTable) rescan(j int) {
	best, runnerUp := freqEntry{}, int32(0)
	for _, e := range t.cells[j] {
		if e.n > best.n || (e.n == best.n && e.n != 0 && e.v < best.v) {
			runnerUp, best = best.n, e
		} else {
			runnerUp = max(runnerUp, e.n)
		}
	}
	if best.n != 0 {
		t.modes[j] = best.v
	}
	t.modeN[j], t.runnerUp[j] = best.n, runnerUp
}

// Model snapshots the current modes.
func (t *FreqTable) Model() *Model {
	return &Model{K: t.k, M: t.m, Modes: append([]dataset.Value(nil), t.modes...)}
}

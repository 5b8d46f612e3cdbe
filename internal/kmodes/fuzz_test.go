package kmodes

import (
	"bytes"
	"encoding/gob"
	"math/bits"
	"slices"
	"testing"

	"lshcluster/internal/dataset"
)

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzValues is the value alphabet of the fuzzers: small IDs, so ties
// are common, beside IDs at the top of the uint32 range, so nothing
// can be sized or indexed by value ID.
var fuzzValues = []dataset.Value{0, 1, 2, 7, 1 << 31, 1<<32 - 1}

// refCell is the naive recount of one (cluster, attribute) cell.
type refCell struct {
	counts map[dataset.Value]int
	mode   dataset.Value
}

// recount sets the cell's mode to its highest count, ties to the
// smallest ID; an empty cell keeps the mode it had.
func (c *refCell) recount() {
	best := 0
	for v, n := range c.counts {
		if n > best || (n == best && v < c.mode) {
			best, c.mode = n, v
		}
	}
}

// FuzzFreqTable drives a FreqTable through a random sequence of Add,
// AddMasked, Remove, Move and SetMode (on empty clusters only, the way
// the engine and the stream call it) over at most 4 clusters × 3
// attributes and 6 values, so ties and emptied cells are common. After
// every operation each Mode and Size must equal a naive recount. It then
// checks that BeginIncremental publishes the modes RecomputeCentroids
// computes, under both empty-cluster policies.
func FuzzFreqTable(f *testing.F) {
	f.Add([]byte{3, 2, 5, 0, 1, 2, 3, 0, 1, 4, 5, 3, 0, 1, 2, 0, 0, 4, 1, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 2, 0, 0, 2, 0, 0, 4, 0, 1})
	f.Add([]byte{1, 2, 3, 1, 0, 5, 4, 3, 1, 1, 2, 2, 1, 3, 0, 3, 1, 0, 2, 7, 3, 2, 3, 4, 4, 0})
	f.Add([]byte{0, 0, 2, 0, 0, 1, 2, 0, 0, 0, 0, 2}) // refill an emptied cell with a larger ID
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		k, m, nv := 1+in.next()%4, 1+in.next()%3, 1+in.next()%6
		rowFrom := func(b *fuzzBytes) []dataset.Value {
			r := make([]dataset.Value, m)
			for a := range r {
				r[a] = fuzzValues[b.next()%nv]
			}
			return r
		}
		row := func() []dataset.Value { return rowFrom(&in) }
		ft := NewFreqTable(k, m)
		ref := make([]refCell, k*m)
		for j := range ref {
			ref[j].counts = map[dataset.Value]int{}
		}
		members := make([][][]dataset.Value, k) // rows added unmasked, by cluster
		sizes := make([]int, k)
		count := func(c int, r []dataset.Value, present []bool, delta int) {
			for a, v := range r {
				if present != nil && !present[a] {
					continue
				}
				cell := &ref[c*m+a]
				if cell.counts[v] += delta; cell.counts[v] == 0 {
					delete(cell.counts, v)
				}
				cell.recount()
			}
			sizes[c] += delta
		}
		take := func(c int) []dataset.Value {
			if len(members[c]) == 0 {
				return nil
			}
			i := in.next() % len(members[c])
			r := members[c][i]
			members[c] = slices.Delete(members[c], i, i+1)
			return r
		}
		for step := 0; len(in) > 0; step++ {
			switch op, c := in.next()%5, in.next()%k; op {
			case 0:
				r := row()
				ft.Add(c, r)
				count(c, r, nil, 1)
				members[c] = append(members[c], r)
			case 1:
				r, mask := row(), in.next()
				present := make([]bool, m)
				for a := range present {
					present[a] = mask>>a&1 == 1
				}
				ft.AddMasked(c, r, present)
				count(c, r, present, 1)
			case 2:
				if r := take(c); r != nil {
					ft.Remove(c, r)
					count(c, r, nil, -1)
				}
			case 3:
				to := in.next() % k
				if r := take(c); r != nil {
					ft.Move(c, to, r)
					if c != to {
						count(c, r, nil, -1)
						count(to, r, nil, 1)
					}
					members[to] = append(members[to], r)
				}
			case 4:
				if sizes[c] == 0 {
					mode := row()
					ft.SetMode(c, mode)
					for a, v := range mode {
						ref[c*m+a].mode = v
					}
				}
			}
			for cl := 0; cl < k; cl++ {
				if ft.Size(cl) != sizes[cl] {
					t.Fatalf("step %d: Size(%d) = %d, recount %d", step, cl, ft.Size(cl), sizes[cl])
				}
				for a, v := range ft.Mode(cl) {
					if want := ref[cl*m+a].mode; v != want {
						t.Fatalf("step %d: Mode(%d)[%d] = %d, recount %d", step, cl, a, v, want)
					}
				}
			}
		}

		// BeginIncremental against RecomputeCentroids on a dataset and
		// assignment drawn from the same input, empty clusters included.
		again := fuzzBytes(data)
		n := 1 + len(data)%9
		values := make([]dataset.Value, 0, n*m)
		assign := make([]int32, n)
		for i := range assign {
			values = append(values, rowFrom(&again)...)
			assign[i] = int32(again.next() % k)
		}
		ds, err := dataset.New(make([]string, m), values, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds := make([]int32, k)
		for c := range seeds {
			seeds[c] = int32((c * 5) % n)
		}
		for _, policy := range []EmptyClusterPolicy{KeepMode, ReseedRandomItem} {
			cfg := Config{Seed: int64(len(data)), EmptyCluster: policy}
			inc, err := NewSpaceFromSeeds(ds, seeds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			batch, _ := NewSpaceFromSeeds(ds, seeds, cfg)
			inc.BeginIncremental(assign, true)
			batch.RecomputeCentroids(assign)
			if !slices.Equal(inc.modes, batch.modes) {
				t.Fatalf("policy %d: BeginIncremental modes %v, RecomputeCentroids %v", policy, inc.modes, batch.modes)
			}
			if got, want := inc.IncrementalCost(assign), batch.Cost(assign); got != want {
				t.Fatalf("policy %d: incremental cost %v, batch %v", policy, got, want)
			}
		}
	})
}

// FuzzNearestScan checks the nearest-mode scan against a naive
// lowest-index argmin over Dissimilarity, on tiny datasets whose value
// IDs are shared across attributes and reach 2^32−1, with k from 1 to
// n, duplicate modes, and modes that are no item's row. Both the
// posting kernel and its scalar twin run, over the whole range and
// over two halves, as the driver's chunks would call it.
func FuzzNearestScan(f *testing.F) {
	f.Add([]byte{5, 3, 2, 0, 1, 2, 3, 4, 5, 0, 0, 1, 1, 2, 2, 0, 0, 1, 3, 3})
	f.Add([]byte{9, 1, 8, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 0, 1, 2, 3, 4, 5, 6, 7, 8, 1})
	f.Add([]byte{0, 4, 0, 1, 2, 3, 4, 0, 0})
	// Six modes that differ on every attribute: short posting lists, so
	// the scan takes the postings (the seeds above take the per-mode
	// loop).
	f.Add([]byte{7, 3, 5, 0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 0, 4, 5, 0, 1, 5, 0, 1, 2, 0, 2, 4, 1, 5, 5, 5, 5, 0, 1, 2, 3, 4, 5, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n, m := 1+in.next()%12, 1+in.next()%5
		k := 1 + in.next()%n
		values := make([]dataset.Value, n*m)
		for i := range values {
			values[i] = fuzzValues[in.next()%len(fuzzValues)]
		}
		ds, err := dataset.New(make([]string, m), values, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		seeds := make([]int32, k) // repeats give duplicate modes
		for c := range seeds {
			seeds[c] = int32(in.next() % n)
		}
		s, err := NewSpaceFromSeeds(ds, seeds, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if in.next()%2 == 1 {
			// Recomputed modes mix members' values per attribute.
			assign := make([]int32, n)
			for i := range assign {
				assign[i] = int32(in.next() % k)
			}
			s.RecomputeCentroids(assign)
		}
		want := make([]int32, n)
		for i := range want {
			best, bestD := 0, s.Dissimilarity(i, 0)
			for c := 1; c < k; c++ {
				if d := s.Dissimilarity(i, c); d < bestD {
					best, bestD = c, d
				}
			}
			want[i] = int32(best)
		}
		for _, scalar := range []bool{false, true} {
			s.SetScalarKernels(scalar)
			scan := s.NearestScan()
			got := make([]int32, n)
			scan(0, n, got)
			halves := make([]int32, n)
			scan(n/2, n, halves)
			scan(0, n/2, halves)
			if !slices.Equal(got, want) || !slices.Equal(halves, want) {
				t.Fatalf("scalar=%v: scan %v, in halves %v, naive argmin %v", scalar, got, halves, want)
			}
		}
	})
}

// FuzzLoadModel feeds arbitrary bytes to LoadModel. Each input must
// either fail with an error or load a model whose every mode has M
// values and whose Predict answers an M-value row with a cluster in
// [0, K) — never load a model that panics later.
func FuzzLoadModel(f *testing.F) {
	var buf bytes.Buffer
	saved := &Model{K: 2, M: 3, Modes: []dataset.Value{1, 2, 3, 4, 5, 1<<32 - 1}}
	if err := saved.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	// K·M wraps to 0, matching an empty mode list.
	half := 1 << (bits.UintSize / 2)
	buf.Reset()
	if err := gob.NewEncoder(&buf).Encode(modelWire{Version: 1, K: half, M: half}); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		for c := 0; c < m.K; c++ {
			if got := len(m.Mode(c)); got != m.M {
				t.Fatalf("K=%d M=%d: Mode(%d) has %d values", m.K, m.M, c, got)
			}
		}
		for _, row := range [][]dataset.Value{make([]dataset.Value, m.M), m.Mode(m.K - 1)} {
			if c, _ := m.Predict(row); c < 0 || c >= m.K {
				t.Fatalf("K=%d M=%d: Predict returned cluster %d", m.K, m.M, c)
			}
		}
	})
}

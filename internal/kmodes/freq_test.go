package kmodes

import (
	"math/rand"
	"testing"

	"lshcluster/internal/dataset"
)

func TestFreqTableAddRemove(t *testing.T) {
	ft := NewFreqTable(2, 2)
	ft.Add(0, []dataset.Value{1, 5})
	ft.Add(0, []dataset.Value{1, 6})
	ft.Add(0, []dataset.Value{2, 6})
	mode := ft.Mode(0)
	if mode[0] != 1 || mode[1] != 6 {
		t.Fatalf("mode = %v, want [1 6]", mode)
	}
	if ft.Size(0) != 3 || ft.Size(1) != 0 {
		t.Fatalf("sizes = %d,%d", ft.Size(0), ft.Size(1))
	}
	ft.Remove(0, []dataset.Value{1, 6})
	// counts now: attr0 {1:1,2:1} → tie, smaller ID 1; attr1 {5:1,6:1} → 5.
	mode = ft.Mode(0)
	if mode[0] != 1 || mode[1] != 5 {
		t.Fatalf("mode after remove = %v, want [1 5]", mode)
	}
}

func TestFreqTableMove(t *testing.T) {
	ft := NewFreqTable(2, 1)
	ft.Add(0, []dataset.Value{7})
	ft.Add(0, []dataset.Value{7})
	ft.Add(0, []dataset.Value{9})
	ft.Move(0, 1, []dataset.Value{9})
	if ft.Mode(0)[0] != 7 || ft.Mode(1)[0] != 9 {
		t.Fatalf("modes = %v,%v", ft.Mode(0), ft.Mode(1))
	}
	if ft.Size(0) != 2 || ft.Size(1) != 1 {
		t.Fatalf("sizes = %d,%d", ft.Size(0), ft.Size(1))
	}
	// Move to the same cluster is a no-op.
	ft.Move(1, 1, []dataset.Value{9})
	if ft.Size(1) != 1 {
		t.Fatal("self-move changed size")
	}
}

func TestFreqTableEmptyClusterKeepsMode(t *testing.T) {
	ft := NewFreqTable(1, 1)
	ft.Add(0, []dataset.Value{4})
	ft.Remove(0, []dataset.Value{4})
	if ft.Mode(0)[0] != 4 {
		t.Fatalf("emptied cluster lost its mode: %v", ft.Mode(0))
	}
}

// TestFreqTableRefillAfterEmpty: an emptied cell keeps its mode, but
// no member holds it any more, so the next value added takes over even
// when its ID is larger.
func TestFreqTableRefillAfterEmpty(t *testing.T) {
	ft := NewFreqTable(1, 1)
	ft.Add(0, []dataset.Value{4})
	ft.Remove(0, []dataset.Value{4})
	ft.Add(0, []dataset.Value{9})
	if ft.Mode(0)[0] != 9 {
		t.Fatalf("refilled cell mode = %v, want 9", ft.Mode(0))
	}
}

func TestFreqTableSetMode(t *testing.T) {
	ft := NewFreqTable(1, 2)
	ft.SetMode(0, []dataset.Value{8, 9})
	if ft.Mode(0)[0] != 8 || ft.Mode(0)[1] != 9 {
		t.Fatal("SetMode did not install")
	}
	// First member overrides the seeded placeholder.
	ft.Add(0, []dataset.Value{3, 9})
	if ft.Mode(0)[0] != 3 || ft.Mode(0)[1] != 9 {
		t.Fatalf("mode = %v, want [3 9]", ft.Mode(0))
	}
}

func TestFreqTableArityPanics(t *testing.T) {
	ft := NewFreqTable(1, 2)
	for _, fn := range []func(){
		func() { ft.Add(0, []dataset.Value{1}) },
		func() { ft.Remove(0, []dataset.Value{1}) },
		func() { ft.SetMode(0, []dataset.Value{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected arity panic")
				}
			}()
			fn()
		}()
	}
}

// TestFreqTableMatchesBatchRecompute drives random moves and checks the
// incremental modes stay identical to Space.RecomputeCentroids — the
// invariant that lets the streaming clusterer reuse batch semantics.
func TestFreqTableMatchesBatchRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	const n, m, k = 120, 5, 6
	vals := make([]dataset.Value, n*m)
	for i := range vals {
		attr := i % m
		vals[i] = dataset.Value(attr*10 + rng.Intn(4) + 1)
	}
	ds, err := dataset.New(make([]string, m), vals, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	space, err := NewSpaceFromSeeds(ds, []int32{0, 1, 2, 3, 4, 5}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ft := NewFreqTable(k, m)
	assign := make([]int32, n)
	for i := 0; i < n; i++ {
		assign[i] = int32(rng.Intn(k))
		ft.Add(int(assign[i]), ds.Row(i))
	}
	check := func(step int) {
		t.Helper()
		space.RecomputeCentroids(assign)
		for c := 0; c < k; c++ {
			batch := space.Mode(c)
			incr := ft.Mode(c)
			for a := 0; a < m; a++ {
				if batch[a] != incr[a] {
					t.Fatalf("step %d cluster %d attr %d: batch %v incremental %v",
						step, c, a, batch[a], incr[a])
				}
			}
		}
	}
	check(0)
	for step := 1; step <= 400; step++ {
		i := rng.Intn(n)
		to := int32(rng.Intn(k))
		// Keep every cluster non-empty so KeepMode semantics (which
		// differ between seeded batch modes and incremental history)
		// never engage.
		if ft.Size(int(assign[i])) == 1 {
			continue
		}
		ft.Move(int(assign[i]), int(to), ds.Row(i))
		assign[i] = to
		if step%50 == 0 {
			check(step)
		}
	}
	check(401)
}

func TestFreqTableModelSnapshot(t *testing.T) {
	ft := NewFreqTable(1, 1)
	ft.Add(0, []dataset.Value{3})
	m := ft.Model()
	ft.Add(0, []dataset.Value{9})
	ft.Add(0, []dataset.Value{9})
	if m.Modes[0] != 3 {
		t.Fatal("model aliases live table")
	}
	if ft.Mode(0)[0] != 9 {
		t.Fatal("mode not updated")
	}
}

// TestFreqTableManyValues churns one cell through hundreds of distinct
// values — growing its table, and emptying slots in the middle of long
// probe runs — and checks the mode against a recount after every
// update.
func TestFreqTableManyValues(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ft := NewFreqTable(1, 1)
	counts := map[dataset.Value]int{}
	var members []dataset.Value
	for step := 0; step < 20000; step++ {
		if len(members) > 0 && rng.Intn(5) < 2+step/8000 {
			i := rng.Intn(len(members))
			v := members[i]
			members[i] = members[len(members)-1]
			members = members[:len(members)-1]
			ft.Remove(0, []dataset.Value{v})
			counts[v]--
		} else {
			v := dataset.Value(rng.Intn(600))
			if v%3 == 0 {
				v = ^v // IDs near 2^32−1
			}
			members = append(members, v)
			ft.Add(0, []dataset.Value{v})
			counts[v]++
		}
		best, want := 0, ft.Mode(0)[0]
		for v, n := range counts {
			if n > best || (n == best && n > 0 && v < want) {
				best, want = n, v
			}
		}
		if got := ft.Mode(0)[0]; got != want || ft.Size(0) != len(members) {
			t.Fatalf("step %d: mode %d size %d, recount %d size %d", step, got, ft.Size(0), want, len(members))
		}
	}
}

package trace

import (
	"sync"
	"testing"
)

var (
	nRoot  = Register("root")
	nChild = Register("child")
	nLeaf  = Register("leaf")
)

func TestSelfTimeNested(t *testing.T) {
	// root [0,100) ⊃ child [10,60) ⊃ leaf [20,30); child [70,80).
	spans := []Span{
		{Name: nRoot, Parent: -1, Start: 0, End: 100},
		{Name: nChild, Parent: 0, Start: 10, End: 60},
		{Name: nLeaf, Parent: 1, Start: 20, End: 30},
		{Name: nChild, Parent: 0, Start: 70, End: 80},
	}
	got := SelfTimes(spans)
	want := []int64{40, 40, 10, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestSelfTimeParallelChildrenCountOnce(t *testing.T) {
	// Two workers overlap inside the root: [10,50) and [30,70) cover
	// [10,70), so the root's self time is 100-60, not 100-80.
	spans := []Span{
		{Name: nRoot, Parent: -1, Start: 0, End: 100},
		{Name: nChild, Parent: 0, Start: 10, End: 50},
		{Name: nChild, Parent: 0, Start: 30, End: 70},
	}
	if got := SelfTimes(spans)[0]; got != 40 {
		t.Fatalf("root self = %d, want 40", got)
	}
}

func TestWallSharesSplitParallelTime(t *testing.T) {
	spans := []Span{
		{Name: nRoot, Parent: -1, Start: 0, End: 100},
		{Name: nChild, Parent: 0, Start: 10, End: 50},
		{Name: nChild, Parent: 0, Start: 30, End: 70},
		{Name: nLeaf, Parent: 2, Start: 40, End: 40}, // zero length
	}
	got := WallShares(spans)
	// [10,30) child1 alone, [30,50) split, [50,70) child2 alone.
	want := []int64{40, 30, 30, 0}
	var sum int64
	for i := range want {
		sum += got[i]
		if got[i] != want[i] {
			t.Errorf("span %d wall share = %d, want %d", i, got[i], want[i])
		}
	}
	if sum != 100 {
		t.Errorf("shares sum to %d, want the root's 100", sum)
	}
}

func TestRecorderMergesParallelBuffers(t *testing.T) {
	r := NewRecorder()
	main := r.NewBuffer(nil)
	main.Begin(nRoot)
	var wg sync.WaitGroup
	bufs := make([]*Buffer, 2)
	for g := range bufs {
		bufs[g] = r.NewBuffer(main)
	}
	for g := range bufs {
		wg.Add(1)
		go func(b *Buffer) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				b.Begin(nChild)
				b.Begin(nLeaf)
				b.End()
				b.End()
			}
		}(bufs[g])
	}
	wg.Wait()
	main.End()
	spans := r.Spans()
	if len(spans) != 1+2*200 {
		t.Fatalf("merged %d spans, want 401", len(spans))
	}
	for i, s := range spans[1:] {
		switch s.Name {
		case nChild:
			if s.Parent != 0 {
				t.Fatalf("worker root span %d has parent %d, want the main root", i+1, s.Parent)
			}
		case nLeaf:
			if spans[s.Parent].Name != nChild {
				t.Fatalf("leaf span %d parented to %v", i+1, spans[s.Parent].Name)
			}
		}
	}
	tot := Summarize(spans)
	var wall int64
	for _, x := range tot {
		wall += x.WallNs
	}
	if root := spans[0].End - spans[0].Start; wall != root {
		t.Fatalf("wall shares sum to %d, want the root's %d", wall, root)
	}
}

// Package trace records the spans the benchmark's decorators open around
// calls into the library, and turns them into per-layer times.
//
// A span has a name, a start, an end and a parent. Each goroutine that
// records spans owns one Buffer, so recording takes no lock; buffers are
// merged when the run ends. A span's self time is its duration minus the
// part of its interval that its children cover; children recorded by
// parallel goroutines may overlap, so the covered part is the length of
// the union of the child intervals, not the sum of their durations.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Name identifies a span kind. Names are registered once, at start-up.
type Name uint16

var names []string

// Register returns the Name for s, adding it to the table on first use.
// It is meant for package-level variable initialisers.
func Register(s string) Name {
	for i, have := range names {
		if have == s {
			return Name(i)
		}
	}
	names = append(names, s)
	return Name(len(names) - 1)
}

// String returns the registered name.
func (n Name) String() string { return names[n] }

// Span is one recorded interval. Times are nanoseconds since the
// recorder's epoch; Parent indexes the merged span list, -1 for a root.
type Span struct {
	Name       Name
	Parent     int32
	Start, End int64
}

// Recorder owns the buffers of one traced run.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*Buffer
}

// NewRecorder starts a recorder whose clock reads zero now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Now returns the recorder clock in nanoseconds.
func (r *Recorder) Now() int64 { return int64(time.Since(r.epoch)) }

// NewBuffer returns a buffer for one goroutine. Its root spans become
// children of the span parent currently has open (none when parent is
// nil or has nothing open). parent must not be recording concurrently.
func (r *Recorder) NewBuffer(parent *Buffer) *Buffer {
	b := &Buffer{rec: r, parentSpan: -1}
	if parent != nil && len(parent.open) > 0 {
		b.parentBuf = parent
		b.parentSpan = parent.open[len(parent.open)-1]
	}
	r.mu.Lock()
	r.bufs = append(r.bufs, b)
	r.mu.Unlock()
	return b
}

// Buffer holds the spans of one goroutine. It is not safe for
// concurrent use.
type Buffer struct {
	rec        *Recorder
	spans      []Span // Parent is buffer-local here; -1 = buffer root
	open       []int32
	parentBuf  *Buffer
	parentSpan int32
}

// Begin opens a span as a child of the innermost open span.
func (b *Buffer) Begin(n Name) {
	parent := int32(-1)
	if len(b.open) > 0 {
		parent = b.open[len(b.open)-1]
	}
	b.open = append(b.open, int32(len(b.spans)))
	b.spans = append(b.spans, Span{Name: n, Parent: parent, Start: b.rec.Now()})
}

// End closes the innermost open span.
func (b *Buffer) End() {
	i := b.open[len(b.open)-1]
	b.open = b.open[:len(b.open)-1]
	b.spans[i].End = b.rec.Now()
}

// Spans merges every buffer into one list with global parent indexes.
// Call it once recording has stopped.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := make(map[*Buffer]int32, len(r.bufs))
	var n int32
	for _, b := range r.bufs {
		base[b] = n
		n += int32(len(b.spans))
	}
	out := make([]Span, 0, n)
	for _, b := range r.bufs {
		off := base[b]
		for _, s := range b.spans {
			switch {
			case s.Parent >= 0:
				s.Parent += off
			case b.parentBuf != nil:
				s.Parent = base[b.parentBuf] + b.parentSpan
			}
			out = append(out, s)
		}
	}
	return out
}

// SelfTimes returns each span's duration minus the length of the union
// of its children's intervals, clipped to the span.
func SelfTimes(spans []Span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[int32(i)] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		self[i] = s.End - s.Start - unionLen(iv)
	}
	return self
}

// unionLen returns the total length covered by the intervals.
func unionLen(iv [][2]int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curLo, curHi int64
	started := false
	for _, x := range iv {
		if !started || x[0] > curHi {
			if started {
				total += curHi - curLo
			}
			curLo, curHi, started = x[0], x[1], true
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if started {
		total += curHi - curLo
	}
	return total
}

// Totals sums self time, duration and count per span name.
type Totals struct {
	Count  int64
	DurNs  int64
	SelfNs int64
	// WallNs is the span's share of wall time: each instant is split
	// evenly among the spans that are open and have no open child at
	// that instant, so the shares of all names add up to the roots'
	// wall time even where goroutines run in parallel.
	WallNs int64
}

// Summarize aggregates spans per name.
func Summarize(spans []Span) map[Name]*Totals {
	self := SelfTimes(spans)
	wall := WallShares(spans)
	out := make(map[Name]*Totals)
	for i, s := range spans {
		t := out[s.Name]
		if t == nil {
			t = &Totals{}
			out[s.Name] = t
		}
		t.Count++
		t.DurNs += s.End - s.Start
		t.SelfNs += self[i]
		t.WallNs += wall[i]
	}
	return out
}

// WallShares splits wall time among spans: between consecutive span
// boundaries, the elapsed time is divided evenly among the open spans
// that have no open child (the leaves of the open forest). A span that
// only waits on children running elsewhere therefore gets no share
// while they run.
func WallShares(spans []Span) []int64 {
	type event struct {
		t     int64
		span  int32
		start bool
	}
	ev := make([]event, 0, 2*len(spans))
	for i, s := range spans {
		ev = append(ev, event{s.Start, int32(i), true}, event{s.End, int32(i), false})
	}
	// Only the state after all events at one instant matters, but the
	// bookkeeping needs parents opened before their children and closed
	// after them: at equal times starts come first, in index order
	// (a parent always has the lower index), then ends in reverse.
	sort.Slice(ev, func(a, b int) bool {
		x, y := ev[a], ev[b]
		switch {
		case x.t != y.t:
			return x.t < y.t
		case x.start != y.start:
			return x.start
		case x.start:
			return x.span < y.span
		default:
			return x.span > y.span
		}
	})
	share := make([]int64, len(spans))
	openKids := make([]int32, len(spans))
	leaves := make(map[int32]struct{})
	var last int64
	for _, e := range ev {
		if dt := e.t - last; dt > 0 && len(leaves) > 0 {
			part, rem := dt/int64(len(leaves)), dt%int64(len(leaves))
			for l := range leaves {
				share[l] += part
			}
			// Hand the indivisible remainder to the lowest index so the
			// split stays deterministic.
			if rem > 0 {
				lowest := int32(-1)
				for l := range leaves {
					if lowest < 0 || l < lowest {
						lowest = l
					}
				}
				share[lowest] += rem
			}
		}
		last = e.t
		p := spans[e.span].Parent
		if e.start {
			leaves[e.span] = struct{}{}
			if p >= 0 {
				if openKids[p] == 0 {
					delete(leaves, p)
				}
				openKids[p]++
			}
			continue
		}
		delete(leaves, e.span)
		if p >= 0 {
			openKids[p]--
			if openKids[p] == 0 {
				leaves[p] = struct{}{}
			}
		}
	}
	return share
}

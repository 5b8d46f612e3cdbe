package core_test

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"lshcluster/internal/core"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kernel"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
)

// firstAssignSpace records the assignment the incremental engine starts
// from, which is the bootstrap's first assignment. Embedding keeps every
// capability of the K-Modes space, the nearest-mode scan included.
type firstAssignSpace struct {
	*kmodes.Space
	first []int32
}

func (s *firstAssignSpace) BeginIncremental(assign []int32, trackCost bool) {
	s.first = slices.Clone(assign)
	s.Space.BeginIncremental(assign, trackCost)
}

// TestFirstScanKnobMatrix runs K-Modes, exact and MinHash-accelerated,
// on datasets where most items sit at the same distance from several
// modes, so the first assignment is mostly tie-breaking. Under each
// TieBreak, every combination of ScalarKernels, EarlyAbandon, Workers
// {1, 2} and DisableParallelBootstrap must give the same run:
// assignments, final modes and per-iteration counters. Every run's
// first assignment must be the lowest-index argmin over Dissimilarity,
// whatever the TieBreak. The three-value dataset takes the posting
// scan; the binary one, mostly 0, makes the postings unselective and
// takes the per-mode loop.
func TestFirstScanKnobMatrix(t *testing.T) {
	for _, binary := range []bool{false, true} {
		t.Run(fmt.Sprintf("binary=%v", binary), func(t *testing.T) { testFirstScanKnobs(t, binary) })
	}
}

func testFirstScanKnobs(t *testing.T, binary bool) {
	const n, m, k = 480, 6, 48
	rng := rand.New(rand.NewSource(3))
	values := make([]dataset.Value, n*m)
	for i := range values {
		if binary {
			values[i] = dataset.Value(rng.Intn(10) / 9)
		} else {
			values[i] = dataset.Value(rng.Intn(3))
		}
	}
	ds, err := dataset.New(make([]string, m), values, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	newSpace := func() *kmodes.Space {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: k, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := newSpace()
	var modes []dataset.Value
	for c := 0; c < k; c++ {
		modes = append(modes, ref.Mode(c)...)
	}
	if kernel.NewPostings(modes, m).Selective() == binary {
		t.Fatalf("binary=%v: postings selective = %v", binary, !binary)
	}
	want := make([]int32, n)
	ties := 0
	for i := range want {
		best, bestD, tied := 0, ref.Dissimilarity(i, 0), false
		for c := 1; c < k; c++ {
			switch d := ref.Dissimilarity(i, c); {
			case d < bestD:
				best, bestD, tied = c, d, false
			case d == bestD:
				tied = true
			}
		}
		want[i] = int32(best)
		if tied {
			ties++
		}
	}
	if ties < n/2 {
		t.Fatalf("only %d of %d items tie for their nearest mode", ties, n)
	}
	for _, accel := range []bool{false, true} {
		for _, tb := range []core.TieBreak{core.TieBreakPreferCurrent, core.TieBreakLowestIndex} {
			var base *core.Result
			var basePrint []byte
			for knobs := 0; knobs < 16; knobs++ {
				opts := core.Options{
					TieBreak:      tb,
					EarlyAbandon:  knobs&2 != 0,
					Workers:       1 + knobs>>2&1,
					MaxIterations: 8,
					Oracles: core.Oracles{
						ScalarKernels:            knobs&1 != 0,
						DisableParallelBootstrap: knobs&8 != 0,
					},
				}
				if accel {
					mh, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 6, Rows: 2}, 9)
					if err != nil {
						t.Fatal(err)
					}
					opts.Accelerator, opts.Update = mh, core.UpdateDeferred
				}
				label := fmt.Sprintf("accel=%v/tb=%d/scalar=%v/abandon=%v/w=%d/serial=%v",
					accel, tb, opts.Oracles.ScalarKernels, opts.EarlyAbandon, opts.Workers, opts.Oracles.DisableParallelBootstrap)
				space := &firstAssignSpace{Space: newSpace()}
				res, err := core.Run(space, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !slices.Equal(space.first, want) {
					t.Fatalf("%s: first assignment is not the lowest-index argmin", label)
				}
				var buf bytes.Buffer
				if err := space.Model().Save(&buf); err != nil {
					t.Fatal(err)
				}
				if base == nil {
					base, basePrint = res, buf.Bytes()
					continue
				}
				assertSameRun(t, label, base, res, basePrint, buf.Bytes())
			}
		}
	}
}

// scanningSpace is a countingSpace with the nearest-scan capability,
// counting the items its scan assigns.
type scanningSpace struct {
	countingSpace
	scanned atomic.Int64
}

func (s *scanningSpace) NearestScan() func(lo, hi int, out []int32) {
	return func(lo, hi int, out []int32) {
		s.scanned.Add(int64(hi - lo))
		for i := lo; i < hi; i++ {
			out[i] = int32((i + 1) % s.k)
		}
	}
}

// TestNearestScanCancellation checks that the capability's first scan
// stays cancellable: the driver hands it one poll interval per call, so
// a context cancelled at the first in-scan poll stops each worker after
// one chunk, and no Dissimilarity call is made.
func TestNearestScanCancellation(t *testing.T) {
	const n, k = 40_000, 4
	for _, workers := range []int{1, 4} {
		space := &scanningSpace{countingSpace: countingSpace{n: n, k: k}}
		_, err := core.Run(space, core.Options{
			Workers: workers, SkipCost: true, MaxIterations: 2, Context: newCountdownCtx(1),
		})
		if err != context.Canceled {
			t.Fatalf("w=%d: err = %v, want context.Canceled", workers, err)
		}
		if got, budget := space.scanned.Load(), int64(workers)*1024; got == 0 || got > budget {
			t.Fatalf("w=%d: scan assigned %d items before cancellation, want 1…%d", workers, got, budget)
		}
		if calls := space.calls.Load(); calls != 0 {
			t.Fatalf("w=%d: %d Dissimilarity calls during the scan", workers, calls)
		}
	}
}

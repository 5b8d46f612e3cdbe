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
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/simhash"
)

// scanlessSpace lists the Space capabilities the driver probes for,
// apart from NearestScanner.
type scanlessSpace interface {
	core.Space
	core.IncrementalSpace
	core.ChangeReporter
	core.KernelConfigurable
}

// scanSpace is a scanlessSpace with its nearest scan, as the K-Modes
// and K-Means spaces are.
type scanSpace interface {
	scanlessSpace
	core.NearestScanner
}

// firstAssignSpace records the assignment the incremental engine starts
// from, which is the bootstrap's first assignment, and keeps every
// other capability of the space it wraps, the nearest scan included.
type firstAssignSpace struct {
	scanSpace
	first []int32
}

func (s *firstAssignSpace) BeginIncremental(assign []int32, trackCost bool) {
	s.first = slices.Clone(assign)
	s.scanSpace.BeginIncremental(assign, trackCost)
}

// hiddenScan forwards every capability of a space but its nearest
// scan, so core.Run makes the first assignment with the per-centroid
// scan over Dissimilarity (bestExact).
type hiddenScan struct{ scanlessSpace }

// firstScanInput is one input of TestFirstScanKnobMatrix.
type firstScanInput struct {
	n int
	// ref is a space on the input, for the reference argmin.
	ref core.Space
	// newRun returns a fresh space, with an accelerator over it when
	// accel, and a function that prints its final centroids.
	newRun func(accel bool) (space scanSpace, a core.Accelerator, fingerprint func() []byte)
}

// TestFirstScanKnobMatrix runs K-Modes, exact and MinHash-accelerated,
// and K-Means, exact and SimHash-accelerated, on inputs where most
// items sit at the same distance from several centroids, so the first
// assignment is mostly tie-breaking. Under each TieBreak, every
// combination of ScalarKernels, EarlyAbandon and Workers {1, 2} must
// give the same run: assignments, final
// centroids and per-iteration counters, and so must each of them with
// the space's nearest scan hidden, which makes the driver compare
// every centroid through Dissimilarity instead. Every run's first
// assignment must be the lowest-index argmin over Dissimilarity,
// whatever the TieBreak. The three-value K-Modes dataset takes the
// posting scan; the binary one, mostly 0, makes the postings
// unselective and takes the per-mode loop. The K-Means points lie on a
// 5×5 integer grid, so every squared distance is an exact small
// integer, and its 48 centroids repeat some of the 25 grid points.
func TestFirstScanKnobMatrix(t *testing.T) {
	for _, binary := range []bool{false, true} {
		t.Run(fmt.Sprintf("binary=%v", binary), func(t *testing.T) {
			testFirstScanKnobs(t, kmodesFirstScanInput(t, binary))
		})
	}
	t.Run("kmeans", func(t *testing.T) { testFirstScanKnobs(t, kmeansFirstScanInput(t)) })
}

func kmodesFirstScanInput(t *testing.T, binary bool) firstScanInput {
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
	return firstScanInput{n: n, ref: ref, newRun: func(accel bool) (scanSpace, core.Accelerator, func() []byte) {
		space := newSpace()
		var a core.Accelerator
		if accel {
			mh, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 6, Rows: 2}, 9)
			if err != nil {
				t.Fatal(err)
			}
			a = mh
		}
		fingerprint := func() []byte {
			var buf bytes.Buffer
			if err := space.Model().Save(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		return space, a, fingerprint
	}}
}

func kmeansFirstScanInput(t *testing.T) firstScanInput {
	const n, dim, k = 480, 2, 48
	rng := rand.New(rand.NewSource(4))
	pts := make([]float64, n*dim)
	for i := range pts {
		pts[i] = float64(rng.Intn(5))
	}
	newSpace := func() *kmeans.Space {
		s, err := kmeans.NewSpace(pts, dim, kmeans.Config{K: k, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	return firstScanInput{n: n, ref: newSpace(), newRun: func(accel bool) (scanSpace, core.Accelerator, func() []byte) {
		space := newSpace()
		var a core.Accelerator
		if accel {
			sh, err := simhash.NewAccelerator(space, lsh.Params{Bands: 6, Rows: 2}, 9)
			if err != nil {
				t.Fatal(err)
			}
			a = sh
		}
		return space, a, func() []byte { return kmeansFingerprint(space) }
	}}
}

func testFirstScanKnobs(t *testing.T, in firstScanInput) {
	want := make([]int32, in.n)
	ties := 0
	for i := range want {
		best, bestD, tied := 0, in.ref.Dissimilarity(i, 0), false
		for c := 1; c < in.ref.NumClusters(); c++ {
			switch d := in.ref.Dissimilarity(i, c); {
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
	if ties < in.n/2 {
		t.Fatalf("only %d of %d items tie for their nearest centroid", ties, in.n)
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
					Oracles:       core.Oracles{ScalarKernels: knobs&1 != 0},
				}
				inner, a, fingerprint := in.newRun(accel)
				if a != nil {
					opts.Accelerator, opts.Update = a, core.UpdateDeferred
				}
				space := &firstAssignSpace{scanSpace: inner}
				hide := knobs&8 != 0
				run := core.Space(space)
				if hide {
					run = hiddenScan{space}
				}
				if _, ok := run.(core.NearestScanner); ok == hide {
					t.Fatalf("hide=%v: the run space offers NearestScan = %v", hide, ok)
				}
				label := fmt.Sprintf("accel=%v/tb=%d/scalar=%v/abandon=%v/w=%d/hidden=%v",
					accel, tb, opts.Oracles.ScalarKernels, opts.EarlyAbandon, opts.Workers, hide)
				res, err := core.Run(run, opts)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if !slices.Equal(space.first, want) {
					t.Fatalf("%s: first assignment is not the lowest-index argmin", label)
				}
				if base == nil {
					base, basePrint = res, fingerprint()
					continue
				}
				assertSameRun(t, label, base, res, basePrint, fingerprint())
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
// a context cancelled at the first in-scan poll stops each set-up
// worker (one per GOMAXPROCS) after one chunk, and no Dissimilarity
// call is made.
func TestNearestScanCancellation(t *testing.T) {
	const n, k = 40_000, 4
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		space := &scanningSpace{countingSpace: countingSpace{n: n, k: k}}
		_, err := core.Run(space, core.Options{
			SkipCost: true, MaxIterations: 2, Context: newCountdownCtx(1),
		})
		if err != context.Canceled {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		if got, budget := space.scanned.Load(), int64(procs)*1024; got == 0 || got > budget {
			t.Fatalf("procs=%d: scan assigned %d items before cancellation, want 1…%d", procs, got, budget)
		}
		if calls := space.calls.Load(); calls != 0 {
			t.Fatalf("procs=%d: %d Dissimilarity calls during the scan", procs, calls)
		}
	}
}

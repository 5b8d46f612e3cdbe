package core_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"

	"lshcluster/internal/core"
)

// runWorkload builds the standard 600-item K-Modes space and MinHash
// accelerator pair the replay, worker and cancellation tests run over.
func runWorkload(t *testing.T) func() (core.Space, *core.MinHashAccelerator) {
	t.Helper()
	ds := bootstrapWorkload(t)
	return func() (core.Space, *core.MinHashAccelerator) {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		return s, a
	}
}

func runOnce(t *testing.T, mk func() (core.Space, *core.MinHashAccelerator), opts core.Options) (*core.Result, []byte) {
	t.Helper()
	space, accel := mk()
	opts.Accelerator = accel
	res, err := core.Run(space, opts)
	if err != nil {
		t.Fatal(err)
	}
	return res, kmodesFingerprint(t)(space)
}

// assertSameRun fails unless two runs agree on every assignment, the
// final modes and every per-iteration counter.
func assertSameRun(t *testing.T, label string, a, b *core.Result, printA, printB []byte) {
	t.Helper()
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("%s: assign[%d] = %d then %d", label, i, a.Assign[i], b.Assign[i])
		}
	}
	if !bytes.Equal(printA, printB) {
		t.Fatalf("%s: final modes differ", label)
	}
	if len(a.Stats.Iterations) != len(b.Stats.Iterations) {
		t.Fatalf("%s: %d iterations then %d", label, len(a.Stats.Iterations), len(b.Stats.Iterations))
	}
	for i := range a.Stats.Iterations {
		x, y := a.Stats.Iterations[i], b.Stats.Iterations[i]
		if x.Moves != y.Moves || x.Comparisons != y.Comparisons ||
			x.CandidatesTotal != y.CandidatesTotal || x.ActiveItems != y.ActiveItems {
			t.Fatalf("%s iteration %d: moves/comparisons/candidates/active %d/%d/%d/%d then %d/%d/%d/%d",
				label, i+1, x.Moves, x.Comparisons, x.CandidatesTotal, x.ActiveItems,
				y.Moves, y.Comparisons, y.CandidatesTotal, y.ActiveItems)
		}
	}
}

// TestShardedRunReplaysBitIdentically: a serial run must replay
// bit-identically — assignments, final modes and every per-iteration
// counter.
func TestShardedRunReplaysBitIdentically(t *testing.T) {
	mk := runWorkload(t)
	opts := core.Options{Workers: 1, MaxIterations: 6}
	resA, printA := runOnce(t, mk, opts)
	resB, printB := runOnce(t, mk, opts)
	assertSameRun(t, "replay", resA, resB, printA, printB)
}

// TestShardedDeferredWorkersMatchSerial is the concurrency check (run
// under -race in CI): four deferred pass workers share one index, each
// through its own querier. The run must complete and match the
// one-worker deferred run bit-identically.
func TestShardedDeferredWorkersMatchSerial(t *testing.T) {
	mk := runWorkload(t)
	opts := core.Options{Update: core.UpdateDeferred, MaxIterations: 5}
	opts.Workers = 1
	serial, serialPrint := runOnce(t, mk, opts)
	opts.Workers = 4
	par, parPrint := runOnce(t, mk, opts)
	assertSameRun(t, "workers=4 against workers=1", serial, par, serialPrint, parPrint)
}

// stallingAccel wraps a MinHash accelerator so that every block of
// shortlists a querier fetches stalls until the run context is done
// (or 30s pass): an accelerated pass stuck on a slow index. The first
// stall closes stalled.
type stallingAccel struct {
	*core.MinHashAccelerator
	ctx     context.Context
	stalled chan struct{}
	once    sync.Once
}

func (a *stallingAccel) NewQuerier() core.Querier {
	return &stallingQuerier{IndexQuerier: a.MinHashAccelerator.NewQuerier().(*core.IndexQuerier), a: a}
}

type stallingQuerier struct {
	*core.IndexQuerier
	a *stallingAccel
}

func (q *stallingQuerier) CandidatesBlock(items, assign []int32, emit func(pos int, shortlist []int32)) {
	q.a.once.Do(func() { close(q.a.stalled) })
	select {
	case <-q.a.ctx.Done():
	case <-time.After(30 * time.Second):
	}
	q.IndexQuerier.CandidatesBlock(items, assign, emit)
}

// TestShardedCancelledPassReturnsPromptly is the stalled-pass
// cancellation check: the first shortlist block of the first iteration
// stalls, another goroutine cancels the run context
// while it does, and Run must return context.Canceled without waiting
// any stall out.
func TestShardedCancelledPassReturnsPromptly(t *testing.T) {
	space, mh := runWorkload(t)()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	accel := &stallingAccel{MinHashAccelerator: mh, ctx: ctx, stalled: make(chan struct{})}
	go func() {
		select {
		case <-accel.stalled:
			time.Sleep(10 * time.Millisecond)
			cancel()
		case <-ctx.Done():
		}
	}()
	start := time.Now()
	_, err := core.Run(space, core.Options{
		Accelerator:   accel,
		MaxIterations: 50,
		Context:       ctx,
	})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	select {
	case <-accel.stalled:
	default:
		t.Fatal("run never reached a shortlist block")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("cancelled run blocked for %v on a stalled pass", elapsed)
	}
}

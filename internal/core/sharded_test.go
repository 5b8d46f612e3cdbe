package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// assertShardsEqual runs the same configuration at every given shard
// count, with Shards=1 (the unsharded oracle) as reference, and
// asserts bit-identical outcomes: assignments, per-iteration moves and
// costs, convergence, and final centroids. Each sharded count is
// additionally run in original item order (DisableReorder), where far
// more buckets span shards so the fan-out's key-probe branch does real
// work, and against the scalar kernels (ScalarKernels, checking the
// unrolled distance/signing loops) — both must also match the
// reference.
func assertShardsEqual(t *testing.T, mk func() (core.Space, core.Accelerator), fingerprint func(core.Space) []byte, opts core.Options, shardCounts []int) {
	t.Helper()
	run := func(shards int, mut func(*core.Options)) (*core.Result, []byte) {
		o := opts
		o.Shards = shards
		space, accel := mk()
		o.Accelerator = accel
		if mut != nil {
			mut(&o)
		}
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, fingerprint(space)
	}
	ref, refCentroids := run(1, nil)
	compare := func(label string, got *core.Result, gotCentroids []byte) {
		t.Helper()
		for i := range ref.Assign {
			if ref.Assign[i] != got.Assign[i] {
				t.Fatalf("%s: assign[%d] = %d, oracle %d", label, i, got.Assign[i], ref.Assign[i])
			}
		}
		if got.Stats.Converged != ref.Stats.Converged {
			t.Fatalf("%s: converged %v, oracle %v", label, got.Stats.Converged, ref.Stats.Converged)
		}
		if len(got.Stats.Iterations) != len(ref.Stats.Iterations) {
			t.Fatalf("%s: %d iterations, oracle %d",
				label, len(got.Stats.Iterations), len(ref.Stats.Iterations))
		}
		for i := range ref.Stats.Iterations {
			a, b := ref.Stats.Iterations[i], got.Stats.Iterations[i]
			if a.Moves != b.Moves {
				t.Fatalf("%s iteration %d: %d moves, oracle %d", label, i+1, b.Moves, a.Moves)
			}
			if a.Cost != b.Cost {
				t.Fatalf("%s iteration %d: cost %v, oracle %v", label, i+1, b.Cost, a.Cost)
			}
			if a.CandidatesTotal != b.CandidatesTotal {
				t.Fatalf("%s iteration %d: %d candidates, oracle %d",
					label, i+1, b.CandidatesTotal, a.CandidatesTotal)
			}
		}
		if !bytes.Equal(refCentroids, gotCentroids) {
			t.Fatalf("%s: final centroids differ from the unsharded oracle", label)
		}
	}
	for _, shards := range shardCounts {
		if shards == 1 {
			continue
		}
		got, gotCentroids := run(shards, nil)
		compare(fmt.Sprintf("shards=%d", shards), got, gotCentroids)
		if got.Stats.Shards != shards {
			t.Fatalf("shards=%d: stats recorded %d shards", shards, got.Stats.Shards)
		}
		// Every sharded run builds the foreign-emptiness bitmap, and
		// the bitmap answers some cross-shard resolutions without a
		// probe ("direct").
		if got.Stats.ForeignSlotBytes <= 0 {
			t.Fatalf("shards=%d: no foreign-emptiness bitmap bytes recorded", shards)
		}
		if got.Stats.CrossShardDirect <= 0 {
			t.Fatalf("shards=%d: no bitmap-answered fan-out resolutions recorded", shards)
		}
		origRun, origCentroids := run(shards, func(o *core.Options) { o.Oracles.DisableReorder = true })
		compare(fmt.Sprintf("shards=%d/original-order", shards), origRun, origCentroids)
		if origRun.Stats.CrossShardProbes <= 0 || origRun.Stats.CrossShardDirect <= 0 {
			t.Fatalf("shards=%d/original-order: fan-out recorded %d probes, %d bitmap-answered; want both > 0",
				shards, origRun.Stats.CrossShardProbes, origRun.Stats.CrossShardDirect)
		}
		scalarRun, scalarCentroids := run(shards, func(o *core.Options) { o.Oracles.ScalarKernels = true })
		compare(fmt.Sprintf("shards=%d/scalar-kernels", shards), scalarRun, scalarCentroids)
	}
	// The kernel oracle must hold on the unsharded reference path too.
	scalarRef, scalarRefCentroids := run(1, func(o *core.Options) { o.Oracles.ScalarKernels = true })
	compare("shards=1/scalar-kernels", scalarRef, scalarRefCentroids)
}

// TestShardInvarianceKModes is the headline shard-count equivalence
// matrix for MH-K-Modes: full runs must be bit-identical across
// Shards ∈ {1, 2, 4} for both worker counts.
func TestShardInvarianceKModes(t *testing.T) {
	ds := bootstrapWorkload(t)
	mk := func() (core.Space, core.Accelerator) {
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
	// boot=0 names the full-scan bootstrap, the only one.
	for _, workers := range []int{1, 4} {
		upd := core.UpdateImmediate
		if workers > 1 {
			upd = core.UpdateDeferred
		}
		t.Run(fmt.Sprintf("boot=0/w=%d", workers), func(t *testing.T) {
			assertShardsEqual(t, mk, kmodesFingerprint(t), core.Options{
				Update: upd, Workers: workers, MaxIterations: 15,
			}, []int{1, 2, 4})
		})
	}
}

// TestShardInvarianceKMeans covers the SimHash/K-Means instantiation
// of the same matrix.
func TestShardInvarianceKMeans(t *testing.T) {
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{
		Points: 800, Clusters: 40, Dim: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func() (core.Space, core.Accelerator) {
		s, err := kmeans.NewSpace(pts, 8, kmeans.Config{K: 40, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		a, err := simhash.NewAccelerator(s, lsh.Params{Bands: 8, Rows: 8}, 21)
		if err != nil {
			t.Fatal(err)
		}
		return s, a
	}
	fingerprint := func(s core.Space) []byte {
		var buf bytes.Buffer
		sp := s.(*kmeans.Space)
		for c := 0; c < sp.NumClusters(); c++ {
			fmt.Fprintf(&buf, "%x;", sp.Centroid(c))
		}
		return buf.Bytes()
	}
	// boot=0 names the full-scan bootstrap, the only one.
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("boot=0/w=%d", workers), func(t *testing.T) {
			assertShardsEqual(t, mk, fingerprint, core.Options{
				Update: core.UpdateDeferred, Workers: workers, MaxIterations: 15,
			}, []int{1, 2, 4})
		})
	}
}

// TestShardInvarianceSerialOracle crosses sharding with the serial
// bootstrap oracle: even the per-item sign+insert path must be
// shard-blind.
func TestShardInvarianceSerialOracle(t *testing.T) {
	ds := bootstrapWorkload(t)
	mk := func() (core.Space, core.Accelerator) {
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
	// boot=0 names the full-scan bootstrap, the only one.
	t.Run("boot=0", func(t *testing.T) {
		assertShardsEqual(t, mk, kmodesFingerprint(t), core.Options{
			MaxIterations: 12, Oracles: core.Oracles{DisableParallelBootstrap: true},
		}, []int{1, 4})
	})
}

// TestShardStatsRecorded checks the ShardStatsReporter plumbing: a
// sharded run records the shard count, one build time per shard, and
// (having fanned queries out across shards) a non-zero cross-shard
// merge time; the unsharded oracle records exactly one shard and no
// merge time.
func TestShardStatsRecorded(t *testing.T) {
	ds := bootstrapWorkload(t)
	run := func(shards int) *core.Result {
		s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		a, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 8, Rows: 4}, 7)
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Run(s, core.Options{
			Accelerator: a, Shards: shards, MaxIterations: 5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	st := run(4).Stats
	if st.Shards != 4 {
		t.Fatalf("Shards = %d, want 4", st.Shards)
	}
	if len(st.BootstrapBuildShards) != 4 {
		t.Fatalf("BootstrapBuildShards has %d entries, want 4", len(st.BootstrapBuildShards))
	}
	if st.CrossShardMerge <= 0 {
		t.Fatal("sharded run recorded no cross-shard merge time")
	}
	if st.ForeignSlotBytes <= 0 {
		t.Fatal("sharded run recorded no foreign-emptiness bitmap bytes")
	}
	if st.CrossShardDirect <= 0 {
		t.Fatal("sharded run recorded no bitmap-answered fan-out resolutions")
	}
	st = run(1).Stats
	if st.Shards != 1 {
		t.Fatalf("oracle Shards = %d, want 1", st.Shards)
	}
	if st.CrossShardMerge != 0 {
		t.Fatalf("oracle recorded cross-shard merge time %v", st.CrossShardMerge)
	}
	if st.ForeignSlotBytes != 0 || st.CrossShardProbes != 0 || st.CrossShardDirect != 0 {
		t.Fatalf("oracle recorded cross-shard fan-out state: %d bytes, %d probes, %d direct",
			st.ForeignSlotBytes, st.CrossShardProbes, st.CrossShardDirect)
	}
}

// TestShardsIgnoredWithoutCapability checks Options.Shards degrades to
// a no-op for accelerators without the ShardedIndexer capability.
func TestShardsIgnoredWithoutCapability(t *testing.T) {
	ds := bootstrapWorkload(t)
	s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(s, core.Options{
		Accelerator: &fixedShortlistAccel{k: 30}, Shards: 4, MaxIterations: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Shards != 0 {
		t.Fatalf("capability-less accelerator reported %d shards", res.Stats.Shards)
	}
}

// fixedShortlistAccel always shortlists every cluster (no sharding,
// no unindexed queries — the minimal Accelerator surface).
type fixedShortlistAccel struct {
	k   int
	buf []int32
}

func (a *fixedShortlistAccel) Reset(k int) error {
	a.k = k
	a.buf = make([]int32, k)
	for i := range a.buf {
		a.buf[i] = int32(i)
	}
	return nil
}
func (a *fixedShortlistAccel) Insert(int32) error { return nil }
func (a *fixedShortlistAccel) NewQuerier() core.Querier {
	return fixedShortlistQuerier{buf: a.buf}
}

type fixedShortlistQuerier struct{ buf []int32 }

func (q fixedShortlistQuerier) Candidates(int32, []int32) []int32 { return q.buf }

// shardedRunWorkload builds the standard 600-item K-Modes space and
// MinHash accelerator pair the sharded replay, worker and
// cancellation tests run over.
func shardedRunWorkload(t *testing.T) func() (core.Space, *core.MinHashAccelerator) {
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

func runSharded(t *testing.T, mk func() (core.Space, *core.MinHashAccelerator), opts core.Options) (*core.Result, []byte) {
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

// TestShardedRunReplaysBitIdentically: a serial run at S=4 must
// replay bit-identically — assignments, final modes, every
// per-iteration counter and the cross-shard fan-out counters (key
// probes, bitmap-answered resolutions, owner- and foreign-shard
// candidates).
func TestShardedRunReplaysBitIdentically(t *testing.T) {
	mk := shardedRunWorkload(t)
	opts := core.Options{Shards: 4, Workers: 1, MaxIterations: 6}
	resA, printA := runSharded(t, mk, opts)
	resB, printB := runSharded(t, mk, opts)
	assertSameRun(t, "replay", resA, resB, printA, printB)

	a, b := resA.Stats, resB.Stats
	if a.ShardForeignCands == 0 {
		t.Fatal("S=4 run fanned no candidates out across shards")
	}
	if a.CrossShardProbes != b.CrossShardProbes || a.CrossShardDirect != b.CrossShardDirect ||
		a.ShardLocalCands != b.ShardLocalCands || a.ShardForeignCands != b.ShardForeignCands {
		t.Fatalf("replay diverged: probes/direct/local/foreign %d/%d/%d/%d then %d/%d/%d/%d",
			a.CrossShardProbes, a.CrossShardDirect, a.ShardLocalCands, a.ShardForeignCands,
			b.CrossShardProbes, b.CrossShardDirect, b.ShardLocalCands, b.ShardForeignCands)
	}
}

// TestShardedDeferredWorkersMatchSerial is the concurrency check (run
// under -race in CI): four deferred pass workers share one S=4 index,
// each through its own querier. The run must complete, account its
// cross-shard fan-out, and match the one-worker deferred run
// bit-identically.
func TestShardedDeferredWorkersMatchSerial(t *testing.T) {
	mk := shardedRunWorkload(t)
	opts := core.Options{Shards: 4, Update: core.UpdateDeferred, MaxIterations: 5}
	opts.Workers = 1
	serial, serialPrint := runSharded(t, mk, opts)
	opts.Workers = 4
	par, parPrint := runSharded(t, mk, opts)
	if par.Stats.ShardForeignCands == 0 {
		t.Fatal("parallel S=4 run fanned no candidates out across shards")
	}
	assertSameRun(t, "workers=4 against workers=1", serial, par, serialPrint, parPrint)
}

// stallingAccel wraps a MinHash accelerator so that every block of
// shortlists a querier fetches stalls until the run context is done
// (or 30s pass): an accelerated pass stuck on slow shards. The first
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
// cancellation check at S=4: the first shortlist block of the
// first iteration stalls, another goroutine cancels the run context
// while it does, and Run must return context.Canceled without waiting
// any stall out.
func TestShardedCancelledPassReturnsPromptly(t *testing.T) {
	space, mh := shardedRunWorkload(t)()
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
		Shards:        4,
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

package lsh

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// noFaultPolicy keeps resilient-path tests deterministic: no retries,
// no hedging, generous deadline.
func noFaultPolicy() Policy {
	return Policy{RetryBudget: -1, DisableHedging: true, CallTimeout: 30 * time.Second}
}

// faultBackend wraps a ShardBackend with per-method scripted failures
// and an optional context-ignoring stall — the minimal in-package fault
// injector (the full chaos harness lives in internal/lsh/serve).
type faultBackend struct {
	inner ShardBackend
	// failMethod names the method to fail ("" = none, "*" = all).
	failMethod string
	// failFirst, when > 0, fails only the first N matching calls.
	failFirst int
	// stall sleeps this long before every call, ignoring the context —
	// the misbehaving-remote case the deadline guard must contain.
	stall time.Duration

	mu    sync.Mutex
	calls int
}

var errInjected = errors.New("injected backend failure")

func (f *faultBackend) roll(method string) error {
	if f.stall > 0 {
		time.Sleep(f.stall)
	}
	if f.failMethod != method && f.failMethod != "*" {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.failFirst > 0 && f.calls > f.failFirst {
		return nil
	}
	return errInjected
}

func (f *faultBackend) ItemKeys(ctx context.Context, locals []int32, keys []uint64) error {
	if err := f.roll("ItemKeys"); err != nil {
		return err
	}
	return f.inner.ItemKeys(ctx, locals, keys)
}

func (f *faultBackend) Candidates(ctx context.Context, keys []uint64, emit func(band int, bucket []int32)) error {
	if err := f.roll("Candidates"); err != nil {
		return err
	}
	return f.inner.Candidates(ctx, keys, emit)
}

func (f *faultBackend) CandidatesBlock(ctx context.Context, n int, keys []uint64, emit func(pos, band int, bucket []int32)) error {
	if err := f.roll("CandidatesBlock"); err != nil {
		return err
	}
	return f.inner.CandidatesBlock(ctx, n, keys, emit)
}

func (f *faultBackend) ReverseSpans(ctx context.Context, keys []uint64, spans []int32) error {
	if err := f.roll("ReverseSpans"); err != nil {
		return err
	}
	return f.inner.ReverseSpans(ctx, keys, spans)
}

func (f *faultBackend) Stats(ctx context.Context) (Stats, error) {
	if err := f.roll("Stats"); err != nil {
		return Stats{}, err
	}
	return f.inner.Stats(ctx)
}

// buildSharded constructs a populated index: frozen range partition or
// map-phase stride partition.
func buildSharded(t *testing.T, p Params, sets [][]uint64, shards int, stride bool) *Sharded {
	t.Helper()
	n := len(sets)
	var sh *Sharded
	var err error
	if stride {
		sh, err = NewShardedStream(p, 7, shards, n)
	} else {
		sh, err = NewSharded(p, 7, n, shards)
	}
	if err != nil {
		t.Fatal(err)
	}
	if stride {
		for i, s := range sets {
			if err := sh.Insert(int32(i), s); err != nil {
				t.Fatal(err)
			}
		}
	} else {
		keys := signKeysFor(sh, sets, 2)
		if err := sh.BuildFrozen(keys, n, 2); err != nil {
			t.Fatal(err)
		}
	}
	return sh
}

// TestBackendFanOutMatchesDirect is the resilient planner's
// bit-identity oracle: with all-local backends and zero faults, every
// query path — per-item, batched block sweep, by keys, by signature —
// must reproduce the direct fan-out's candidate stream exactly, for
// range and stride partitions at every shard count, with and without
// hedging armed.
func TestBackendFanOutMatchesDirect(t *testing.T) {
	const n = 240
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 21)
	probe := []uint64{100, 101, 102, 103, 104}
	for _, stride := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			for _, hedged := range []bool{false, true} {
				t.Run(fmt.Sprintf("stride=%v/s=%d/hedged=%v", stride, shards, hedged), func(t *testing.T) {
					sh := buildSharded(t, p, sets, shards, stride)
					q := sh.NewQuery()

					// Direct-path oracle, gathered before any backends attach.
					wantItems := make([][]int32, n)
					for i := 0; i < n; i++ {
						wantItems[i] = collectQueryCandidates(q, int32(i))
					}
					sig := make([]uint64, p.SignatureLen())
					sh.Scheme().Sign(probe, sig)
					var wantSig []int32
					q.CandidatesOfSignature(sig, func(o int32) { wantSig = append(wantSig, o) })

					pol := noFaultPolicy()
					var mirrors []ShardBackend
					if hedged {
						pol.DisableHedging = false
						pol.HedgeAfter = time.Nanosecond // hedge aggressively: results must not change
						mirrors = sh.LocalBackends()
					}
					if err := sh.AttachBackends(nil, sh.LocalBackends(), mirrors, pol); err != nil {
						t.Fatal(err)
					}
					defer sh.DetachBackends()
					if !sh.Resilient() {
						t.Fatal("Resilient() false after AttachBackends")
					}

					for i := 0; i < n; i++ {
						got := collectQueryCandidates(q, int32(i))
						if !reflect.DeepEqual(wantItems[i], got) {
							t.Fatalf("item %d: want %v, got %v", i, wantItems[i], got)
						}
						if partial, ownerDown := q.LastDegraded(); partial || ownerDown {
							t.Fatalf("item %d degraded (%v, %v) without faults", i, partial, ownerDown)
						}
					}
					var gotSig []int32
					q.CandidatesOfSignature(sig, func(o int32) { gotSig = append(gotSig, o) })
					if !reflect.DeepEqual(wantSig, gotSig) {
						t.Fatalf("of-signature: want %v, got %v", wantSig, gotSig)
					}
					for _, blockLen := range []int{1, 7, 64} {
						for lo := 0; lo < n; lo += blockLen {
							hi := min(lo+blockLen, n)
							blk := make([]int32, 0, hi-lo)
							for i := lo; i < hi; i++ {
								blk = append(blk, int32(i))
							}
							got := collectBatch(q, blk)
							for pos, item := range blk {
								if !reflect.DeepEqual(wantItems[item], got[pos]) {
									t.Fatalf("block item %d: want %v, got %v", item, wantItems[item], got[pos])
								}
								if partial, ownerDown := q.BlockDegraded(pos); partial || ownerDown {
									t.Fatalf("block item %d degraded without faults", item)
								}
							}
						}
					}
					if hedged {
						// Aggressive hedging must never under- or over-count
						// results; stats just record the races.
						st := sh.ResilienceStats()
						if st.FailedCalls != 0 || st.SkippedCalls != 0 || st.SkippedShards != 0 {
							t.Fatalf("failure counters nonzero without faults: %+v", st)
						}
					}
				})
			}
		}
	}
}

// TestBackendReverseMatchesDirect pins the reverse-collision expansion
// through backends against the direct path.
func TestBackendReverseMatchesDirect(t *testing.T) {
	const n = 200
	p := Params{Bands: 5, Rows: 3}
	sets := testSets(n, 5)
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			sh := buildSharded(t, p, sets, shards, false)
			sources := []int32{0, 3, 17, int32(n - 1)}

			direct := sh.NewReverse()
			if direct == nil {
				t.Fatal("NewReverse returned nil on a frozen index")
			}
			var want []int32
			for _, s := range sources {
				direct.AddSource(s)
			}
			direct.Emit(func(item int32) bool { want = append(want, item); return true })

			if err := sh.AttachBackends(nil, sh.LocalBackends(), nil, noFaultPolicy()); err != nil {
				t.Fatal(err)
			}
			defer sh.DetachBackends()
			rv := sh.NewReverse()
			var got []int32
			for _, s := range sources {
				rv.AddSource(s)
			}
			rv.Emit(func(item int32) bool { got = append(got, item); return true })
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("reverse emission: want %v, got %v", want, got)
			}
			if rv.Degraded() {
				t.Fatal("reverse view degraded without faults")
			}
		})
	}
}

// asSet folds a candidate enumeration into a multiplicity-free set.
func asSet(items []int32) map[int32]bool {
	out := make(map[int32]bool, len(items))
	for _, it := range items {
		out[it] = true
	}
	return out
}

// TestBackendErrorPropagation is the table-driven degradation contract:
// for every fan-out call site, a failing shard must surface as the
// right (partial, ownerDown) report, never as a wrong shortlist — what
// survives is always a subset of the oracle.
func TestBackendErrorPropagation(t *testing.T) {
	const n = 210
	const shards = 3
	p := Params{Bands: 5, Rows: 2}
	sets := testSets(n, 11)
	sh := buildSharded(t, p, sets, shards, false)
	q := sh.NewQuery()
	wantItems := make([][]int32, n)
	for i := 0; i < n; i++ {
		wantItems[i] = collectQueryCandidates(q, int32(i))
	}
	// ownedBy picks an inserted item owned by the given shard.
	ownedBy := func(s int) int32 {
		for i := 0; i < n; i++ {
			if t, _, ok := sh.part.locate(int32(i)); ok && t == s {
				return int32(i)
			}
		}
		t.Fatalf("no item owned by shard %d", s)
		return -1
	}
	const bad = 1 // the shard whose backend fails
	attach := func(method string) {
		backends := sh.LocalBackends()
		backends[bad] = &faultBackend{inner: backends[bad], failMethod: method}
		pol := noFaultPolicy()
		// Keep the breaker out of the way: these cases pin per-call
		// propagation, not the trip-after-failures policy (tested below).
		pol.DownAfter = 1 << 30
		if err := sh.AttachBackends(nil, backends, nil, pol); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("Candidates/foreign-shard-down", func(t *testing.T) {
		attach("Candidates")
		defer sh.DetachBackends()
		item := ownedBy(0)
		got := collectQueryCandidates(q, item)
		partial, ownerDown := q.LastDegraded()
		if !partial || ownerDown {
			t.Fatalf("degraded = (%v, %v), want (true, false)", partial, ownerDown)
		}
		want := asSet(wantItems[item])
		for _, g := range got {
			if !want[g] {
				t.Fatalf("item %d: spurious candidate %d", item, g)
			}
		}
	})
	t.Run("Candidates/owner-shard-down", func(t *testing.T) {
		attach("Candidates")
		defer sh.DetachBackends()
		item := ownedBy(bad)
		collectQueryCandidates(q, item)
		partial, ownerDown := q.LastDegraded()
		if !partial || !ownerDown {
			t.Fatalf("degraded = (%v, %v), want (true, true)", partial, ownerDown)
		}
	})
	t.Run("ItemKeys/owner-down", func(t *testing.T) {
		attach("ItemKeys")
		defer sh.DetachBackends()
		item := ownedBy(bad)
		got := collectQueryCandidates(q, item)
		partial, ownerDown := q.LastDegraded()
		if !partial || !ownerDown {
			t.Fatalf("degraded = (%v, %v), want (true, true)", partial, ownerDown)
		}
		if len(got) != 0 {
			t.Fatalf("unresolvable item emitted %v", got)
		}
		// Other shards' items resolve keys on their own shard: unaffected.
		other := ownedBy(0)
		got = collectQueryCandidates(q, other)
		if partial, ownerDown := q.LastDegraded(); partial || ownerDown {
			t.Fatalf("item %d degraded (%v, %v) by another shard's ItemKeys fault", other, partial, ownerDown)
		}
		if !reflect.DeepEqual(wantItems[other], got) {
			t.Fatalf("item %d: want %v, got %v", other, wantItems[other], got)
		}
	})
	t.Run("CandidatesBlock/block-degrades", func(t *testing.T) {
		attach("CandidatesBlock")
		defer sh.DetachBackends()
		blk := []int32{ownedBy(0), ownedBy(bad), ownedBy(2)}
		got := collectBatch(q, blk)
		for pos, item := range blk {
			partial, ownerDown := q.BlockDegraded(pos)
			if !partial {
				t.Fatalf("pos %d (item %d) not partial", pos, item)
			}
			owner, _, _ := sh.part.locate(item)
			if ownerDown != (owner == bad) {
				t.Fatalf("pos %d (item %d): ownerDown = %v, owner shard %d", pos, item, ownerDown, owner)
			}
			want := asSet(wantItems[item])
			for _, g := range got[pos] {
				if !want[g] {
					t.Fatalf("pos %d: spurious candidate %d", pos, g)
				}
			}
		}
	})
	t.Run("CandidatesOfKeys/partial-never-ownerDown", func(t *testing.T) {
		attach("Candidates")
		defer sh.DetachBackends()
		sig := make([]uint64, p.SignatureLen())
		sh.Scheme().Sign(sets[0], sig)
		q.CandidatesOfSignature(sig, func(int32) {})
		partial, ownerDown := q.LastDegraded()
		if !partial || ownerDown {
			t.Fatalf("degraded = (%v, %v), want (true, false): out-of-index queries have no owner", partial, ownerDown)
		}
	})
	t.Run("ReverseSpans/degrades-view", func(t *testing.T) {
		attach("ReverseSpans")
		defer sh.DetachBackends()
		rv := sh.NewReverse()
		rv.AddSource(ownedBy(0))
		if !rv.Degraded() {
			t.Fatal("reverse view not degraded after a ReverseSpans fault")
		}
		rv.Emit(func(int32) bool { return true })
		// A fresh cycle on a healed view resets the flag.
		sh.DetachBackends()
		if err := sh.AttachBackends(nil, sh.LocalBackends(), nil, noFaultPolicy()); err != nil {
			t.Fatal(err)
		}
		rv.AddSource(ownedBy(0))
		if rv.Degraded() {
			t.Fatal("degraded flag did not reset on the next cycle")
		}
	})
}

// TestBackendRetryRecovers pins the retry loop: a transient failure
// (first call fails, then the shard recovers) must be absorbed by the
// retry budget — identical results, Retries counted, nothing degraded.
func TestBackendRetryRecovers(t *testing.T) {
	const n = 120
	p := Params{Bands: 4, Rows: 2}
	sets := testSets(n, 3)
	sh := buildSharded(t, p, sets, 2, false)
	q := sh.NewQuery()
	want := collectQueryCandidates(q, 0)

	backends := sh.LocalBackends()
	backends[1] = &faultBackend{inner: backends[1], failMethod: "Candidates", failFirst: 1}
	pol := noFaultPolicy()
	pol.RetryBudget = 2
	pol.BackoffBase = time.Microsecond
	if err := sh.AttachBackends(nil, backends, nil, pol); err != nil {
		t.Fatal(err)
	}
	defer sh.DetachBackends()

	got := collectQueryCandidates(q, 0)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("retried query: want %v, got %v", want, got)
	}
	if partial, ownerDown := q.LastDegraded(); partial || ownerDown {
		t.Fatal("absorbed transient fault still degraded the query")
	}
	st := sh.ResilienceStats()
	if st.Retries != 1 {
		t.Fatalf("Retries = %d, want 1", st.Retries)
	}
	if st.FailedCalls != 0 || st.SkippedShards != 0 {
		t.Fatalf("absorbed fault counted as failure: %+v", st)
	}
}

// TestBackendTimeoutCounted pins the deadline guard: a backend that
// stalls past CallTimeout — ignoring its context entirely — fails the
// call as a timeout instead of blocking the planner.
func TestBackendTimeoutCounted(t *testing.T) {
	const n = 80
	p := Params{Bands: 4, Rows: 2}
	sets := testSets(n, 9)
	sh := buildSharded(t, p, sets, 2, false)
	q := sh.NewQuery()

	backends := sh.LocalBackends()
	backends[1] = &faultBackend{inner: backends[1], stall: 200 * time.Millisecond}
	pol := noFaultPolicy()
	pol.CallTimeout = 10 * time.Millisecond
	if err := sh.AttachBackends(nil, backends, nil, pol); err != nil {
		t.Fatal(err)
	}
	defer sh.DetachBackends()

	start := time.Now()
	collectQueryCandidates(q, 0)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled shard blocked the query for %v", elapsed)
	}
	if partial, _ := q.LastDegraded(); !partial {
		t.Fatal("timed-out shard did not degrade the query")
	}
	st := sh.ResilienceStats()
	if st.Timeouts == 0 {
		t.Fatalf("Timeouts = 0 after a stalled call: %+v", st)
	}
}

// TestBackendHedgeWins pins the hedge race: with a stalling primary and
// a healthy instant mirror, the mirror's result arrives first and the
// shortlist is exactly the oracle's.
func TestBackendHedgeWins(t *testing.T) {
	const n = 120
	p := Params{Bands: 4, Rows: 2}
	sets := testSets(n, 17)
	sh := buildSharded(t, p, sets, 2, false)
	q := sh.NewQuery()
	want := collectQueryCandidates(q, 0)

	backends := sh.LocalBackends()
	backends[1] = &faultBackend{inner: backends[1], stall: 300 * time.Millisecond}
	pol := Policy{
		RetryBudget: -1,
		CallTimeout: 10 * time.Second,
		HedgeAfter:  time.Millisecond,
	}
	if err := sh.AttachBackends(nil, backends, sh.LocalBackends(), pol); err != nil {
		t.Fatal(err)
	}
	defer sh.DetachBackends()

	start := time.Now()
	got := collectQueryCandidates(q, 0)
	elapsed := time.Since(start)
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("hedged query: want %v, got %v", want, got)
	}
	if partial, ownerDown := q.LastDegraded(); partial || ownerDown {
		t.Fatal("hedged query degraded")
	}
	if elapsed >= 300*time.Millisecond {
		t.Fatalf("hedge did not rescue the stalled call (%v)", elapsed)
	}
	st := sh.ResilienceStats()
	if st.HedgedCalls == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedge not recorded: %+v", st)
	}
}

// TestBackendBreakerShedsDeadShard pins the circuit breaker: a shard
// that fails past its budget goes down, later calls shed without an
// attempt, and the run's SkippedShards accounting names it.
func TestBackendBreakerShedsDeadShard(t *testing.T) {
	const n = 150
	p := Params{Bands: 4, Rows: 2}
	sets := testSets(n, 29)
	sh := buildSharded(t, p, sets, 3, false)
	q := sh.NewQuery()

	backends := sh.LocalBackends()
	dead := &faultBackend{inner: backends[2], failMethod: "*"}
	backends[2] = dead
	pol := noFaultPolicy()
	pol.DownAfter = 1
	pol.ProbeEvery = 1 << 30 // no recovery probes inside this test
	if err := sh.AttachBackends(nil, backends, nil, pol); err != nil {
		t.Fatal(err)
	}
	defer sh.DetachBackends()

	for i := 0; i < 20; i++ {
		collectQueryCandidates(q, int32(i))
		if partial, _ := q.LastDegraded(); !partial {
			t.Fatalf("item %d not degraded with a dead shard", i)
		}
	}
	st := sh.ResilienceStats()
	if st.SkippedShards != 1 || st.DownShards != 1 {
		t.Fatalf("SkippedShards/DownShards = %d/%d, want 1/1", st.SkippedShards, st.DownShards)
	}
	if st.SkippedCalls == 0 {
		t.Fatalf("breaker never shed a call: %+v", st)
	}
	dead.mu.Lock()
	attempts := dead.calls
	dead.mu.Unlock()
	if attempts >= 20 {
		t.Fatalf("dead shard attempted %d times; breaker not shedding", attempts)
	}
}

// TestBackendCancellationBeatsStall is the regression test for the
// cancelled-run guarantee: with an effectively unbounded CallTimeout
// and a backend that stalls ignoring its context, cancelling the run
// context must return the in-flight query promptly — the guard
// goroutine abandons the stalled call instead of waiting it out.
func TestBackendCancellationBeatsStall(t *testing.T) {
	const n = 80
	p := Params{Bands: 4, Rows: 2}
	sets := testSets(n, 41)
	sh := buildSharded(t, p, sets, 2, false)
	q := sh.NewQuery()

	backends := sh.LocalBackends()
	backends[1] = &faultBackend{inner: backends[1], stall: 3 * time.Second}
	ctx, cancel := context.WithCancel(context.Background())
	pol := noFaultPolicy()
	pol.CallTimeout = time.Hour
	if err := sh.AttachBackends(ctx, backends, nil, pol); err != nil {
		t.Fatal(err)
	}
	defer sh.DetachBackends()

	done := make(chan struct{})
	start := time.Now()
	go func() {
		collectQueryCandidates(q, 0)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled run still blocked on a stalled shard after 2s")
	}
	if elapsed := time.Since(start); elapsed >= 3*time.Second {
		t.Fatalf("query waited out the stall (%v) instead of honouring cancellation", elapsed)
	}
}

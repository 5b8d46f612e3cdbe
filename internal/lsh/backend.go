package lsh

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// ShardBackend is the serving boundary of one index shard: every method
// the cross-shard query planner needs, expressed as calls that can
// fail, time out, or be cancelled. The in-process localBackend is the
// zero-overhead default (and the bit-identity oracle); a chaos wrapper
// (internal/lsh/serve) and, in a future PR, a wire-level client
// implement the same contract.
//
// Contract notes:
//
//   - All item addressing is shard-local: ItemKeys resolves locals the
//     planner already routed (the partitioner — which shard owns which
//     global item — is coordinator metadata, not a backend concern).
//   - Emit callbacks run synchronously inside the call, band-ascending
//     (and, for CandidatesBlock, position-ascending within each band).
//     Emitted bucket slices are read-only views owned by the backend.
//     The planner copies nothing: it gathers them, replays them after
//     the call returns and hands them on, valid until the caller's
//     next query (Query.CandidatesBatch), so an in-process backend
//     must keep them alive (frozen storage does).
//   - A non-nil error means the results are unusable; the planner
//     never mixes buckets from a failed call into a shortlist.
type ShardBackend interface {
	// ItemKeys writes the band keys of the given shard-local items into
	// keys, len(locals)·Bands entries, item-major. Every local must be
	// inserted (the planner checks before calling).
	ItemKeys(ctx context.Context, locals []int32, keys []uint64) error
	// Candidates probes one item's band keys (len = Bands) and emits
	// each non-empty matching bucket as (band, global items).
	Candidates(ctx context.Context, keys []uint64, emit func(band int, bucket []int32)) error
	// CandidatesBlock probes n items' band keys (n·Bands, item-major)
	// and emits non-empty buckets band-major, position-ascending within
	// each band.
	CandidatesBlock(ctx context.Context, n int, keys []uint64, emit func(pos, band int, bucket []int32)) error
	// ReverseSpans resolves one source item's band keys (len = Bands)
	// to this shard's bucket slots, −1 where the shard has no matching
	// bucket — the reverse-collision marking half of the contract.
	ReverseSpans(ctx context.Context, keys []uint64, spans []int32) error
	// Stats reports the shard's bucket occupancy.
	Stats(ctx context.Context) (Stats, error)
}

// localBackend serves one in-process shard. Calls are sub-microsecond
// and cannot fail, so the ctx parameter is never consulted — deadlines
// and cancellation are enforced by the resilient call layer around the
// backend, which is what makes a stalled *remote* (or chaos-wrapped)
// shard unable to block a cancelled run.
type localBackend struct {
	ix    *Index
	bands int
}

// LocalBackends returns one in-process backend per shard, the
// zero-fault default the resilient planner is bit-identical over.
func (sh *Sharded) LocalBackends() []ShardBackend {
	out := make([]ShardBackend, len(sh.shards))
	for s, ix := range sh.shards {
		out[s] = &localBackend{ix: ix, bands: sh.params.Bands}
	}
	return out
}

func (l *localBackend) ItemKeys(_ context.Context, locals []int32, keys []uint64) error {
	if len(keys) != len(locals)*l.bands {
		return fmt.Errorf("lsh: ItemKeys buffer holds %d keys, want %d", len(keys), len(locals)*l.bands)
	}
	for i, local := range locals {
		for b := 0; b < l.bands; b++ {
			keys[i*l.bands+b] = l.ix.itemBandKey(local, b)
		}
	}
	return nil
}

func (l *localBackend) Candidates(_ context.Context, keys []uint64, emit func(band int, bucket []int32)) error {
	if len(keys) != l.bands {
		return fmt.Errorf("lsh: Candidates got %d keys, want %d", len(keys), l.bands)
	}
	for b, key := range keys {
		if bucket := l.ix.lookupBucket(b, key); len(bucket) > 0 {
			emit(b, bucket)
		}
	}
	return nil
}

func (l *localBackend) CandidatesBlock(_ context.Context, n int, keys []uint64, emit func(pos, band int, bucket []int32)) error {
	if len(keys) != n*l.bands {
		return fmt.Errorf("lsh: CandidatesBlock got %d keys for %d items", len(keys), n)
	}
	for b := 0; b < l.bands; b++ {
		for pos := 0; pos < n; pos++ {
			if bucket := l.ix.lookupBucket(b, keys[pos*l.bands+b]); len(bucket) > 0 {
				emit(pos, b, bucket)
			}
		}
	}
	return nil
}

func (l *localBackend) ReverseSpans(_ context.Context, keys []uint64, spans []int32) error {
	if len(keys) != l.bands || len(spans) != l.bands {
		return fmt.Errorf("lsh: ReverseSpans got %d keys / %d spans, want %d", len(keys), len(spans), l.bands)
	}
	fz := l.ix.frozen
	if fz == nil {
		return errors.New("lsh: ReverseSpans on an unfrozen shard")
	}
	for b, key := range keys {
		spans[b] = fz.tables[b].get(key)
	}
	return nil
}

func (l *localBackend) Stats(_ context.Context) (Stats, error) {
	return l.ix.Stats(), nil
}

// Policy bounds the resilient call layer. The zero value selects the
// defaults below; negative RetryBudget and HedgeAfter mean "none".
type Policy struct {
	// CallTimeout is the per-attempt deadline, derived as a child of
	// the run context so cancellation always wins.
	CallTimeout time.Duration
	// RetryBudget is how many times a failed call is retried (0 selects
	// DefaultRetryBudget, negative disables retries).
	RetryBudget int
	// BackoffBase is the first retry's backoff; each further retry
	// doubles it, jittered ±50%.
	BackoffBase time.Duration
	// HedgeAfter is the straggler threshold: an attempt still pending
	// after this long launches a mirror-backend hedge (first success
	// wins, the loser's context is cancelled). 0 selects
	// DefaultHedgeAfter; negative, DisableHedging, or a nil mirror set
	// disables hedging.
	HedgeAfter     time.Duration
	DisableHedging bool
	// DownAfter is how many consecutive exhausted calls mark a shard
	// down (0 selects DefaultDownAfter).
	DownAfter int
	// ProbeEvery re-probes a down shard every this many skipped calls,
	// so a recovered shard comes back (0 selects DefaultProbeEvery).
	ProbeEvery int
	// Seed drives the backoff jitter PRNG (deterministic runs).
	Seed uint64
}

// Resilient-call policy defaults.
const (
	DefaultCallTimeout = time.Second
	DefaultRetryBudget = 2
	DefaultBackoffBase = 200 * time.Microsecond
	DefaultHedgeAfter  = 5 * time.Millisecond
	DefaultDownAfter   = 1
	DefaultProbeEvery  = 64
)

// withDefaults resolves the zero-value conventions.
func (p Policy) withDefaults() Policy {
	if p.CallTimeout <= 0 {
		p.CallTimeout = DefaultCallTimeout
	}
	switch {
	case p.RetryBudget == 0:
		p.RetryBudget = DefaultRetryBudget
	case p.RetryBudget < 0:
		p.RetryBudget = 0
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = DefaultBackoffBase
	}
	switch {
	case p.HedgeAfter == 0:
		p.HedgeAfter = DefaultHedgeAfter
	case p.HedgeAfter < 0:
		p.DisableHedging = true
	}
	if p.DownAfter <= 0 {
		p.DownAfter = DefaultDownAfter
	}
	if p.ProbeEvery <= 0 {
		p.ProbeEvery = DefaultProbeEvery
	}
	return p
}

// errShardDown is the breaker's fast-skip error: the shard exhausted
// its retry budget recently and calls are being shed until a probe
// succeeds.
var errShardDown = errors.New("lsh: shard marked down, call skipped")

// shardHealth is the per-shard circuit-breaker state.
type shardHealth struct {
	// consec counts consecutive exhausted (post-retry) failures.
	consec atomic.Int32
	// down sheds calls without attempting them.
	down atomic.Bool
	// skips counts shed calls, to pace recovery probes.
	skips atomic.Int64
	// everFailed latches "this shard was skipped at least once" for the
	// run's SkippedShards accounting.
	everFailed atomic.Bool
}

// resilience is the fault-tolerance layer attached to a Sharded index:
// the backends the planner fans out over, the mirrors hedges race, the
// policy, and the run-wide failure accounting. All counters are atomic
// — parallel pass workers share one resilience.
type resilience struct {
	ctx      context.Context
	backends []ShardBackend
	mirrors  []ShardBackend
	pol      Policy

	health []shardHealth

	jmu  sync.Mutex
	jrng *rand.Rand

	retries      atomic.Int64
	timeouts     atomic.Int64
	hedged       atomic.Int64
	hedgeWins    atomic.Int64
	failedCalls  atomic.Int64
	skippedCalls atomic.Int64
}

// ResilienceStats is a snapshot of the fault-tolerance counters.
type ResilienceStats struct {
	// Retries counts re-attempted backend calls; Timeouts the attempts
	// that hit their per-call deadline.
	Retries, Timeouts int64
	// HedgedCalls counts mirror hedges launched past the straggler
	// threshold; HedgeWins how often the hedge finished first.
	HedgedCalls, HedgeWins int64
	// FailedCalls counts calls that exhausted their retry budget;
	// SkippedCalls those shed by the breaker without an attempt.
	FailedCalls, SkippedCalls int64
	// SkippedShards is how many distinct shards ever had a call fail
	// past its budget or shed — each one a measured recall-loss source.
	SkippedShards int
	// DownShards is how many shards the breaker currently holds down.
	DownShards int
}

// AttachBackends routes the planner's cross-shard fan-out through the
// given backends (one per shard) under the policy, with ctx bounding
// every call. mirrors, when non-nil (one per shard), serve hedged
// requests. With all-local backends and no faults the planner is
// bit-identical to the direct path; tests pin that.
func (sh *Sharded) AttachBackends(ctx context.Context, backends, mirrors []ShardBackend, pol Policy) error {
	if len(backends) != len(sh.shards) {
		return fmt.Errorf("lsh: %d backends for %d shards", len(backends), len(sh.shards))
	}
	if mirrors != nil && len(mirrors) != len(sh.shards) {
		return fmt.Errorf("lsh: %d mirror backends for %d shards", len(mirrors), len(sh.shards))
	}
	if sh.perm != nil {
		// The backend replay merges assume identity-ordered shard
		// buckets; callers that want backend routing build with
		// SetReorder(false) (core disables reordering whenever a
		// resilience config is present).
		return fmt.Errorf("lsh: backends cannot attach to a locality-reordered index")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	p := pol.withDefaults()
	sh.res = &resilience{
		ctx:      ctx,
		backends: backends,
		mirrors:  mirrors,
		pol:      p,
		health:   make([]shardHealth, len(backends)),
		jrng:     rand.New(rand.NewSource(int64(p.Seed))),
	}
	return nil
}

// DetachBackends restores the direct in-process fan-out.
func (sh *Sharded) DetachBackends() { sh.res = nil }

// Resilient reports whether a backend layer is attached.
func (sh *Sharded) Resilient() bool { return sh.res != nil }

// ResilienceStats snapshots the fault-tolerance counters (zero without
// attached backends).
func (sh *Sharded) ResilienceStats() ResilienceStats {
	r := sh.res
	if r == nil {
		return ResilienceStats{}
	}
	st := ResilienceStats{
		Retries:      r.retries.Load(),
		Timeouts:     r.timeouts.Load(),
		HedgedCalls:  r.hedged.Load(),
		HedgeWins:    r.hedgeWins.Load(),
		FailedCalls:  r.failedCalls.Load(),
		SkippedCalls: r.skippedCalls.Load(),
	}
	for s := range r.health {
		if r.health[s].everFailed.Load() {
			st.SkippedShards++
		}
		if r.health[s].down.Load() {
			st.DownShards++
		}
	}
	return st
}

// sleep blocks for d jittered ±50%, returning false if the run context
// was cancelled first.
func (r *resilience) sleep(d time.Duration) bool {
	r.jmu.Lock()
	j := d/2 + time.Duration(r.jrng.Int63n(int64(d)))
	r.jmu.Unlock()
	t := time.NewTimer(j)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-r.ctx.Done():
		return false
	}
}

// outcome carries one attempt's result across the gather channel.
type outcome[T any] struct {
	v     T
	err   error
	hedge bool
}

// runGuarded invokes do and delivers its result — or, if the attempt
// context expires first, the context error — to ch. The select is the
// cancellation guarantee of the whole layer: a backend that ignores
// its context (a stalled remote, a chaos stall) cannot block the
// caller past the deadline; its goroutine is abandoned and drains into
// the buffered channel.
func runGuarded[T any](ctx context.Context, b ShardBackend, do func(context.Context, ShardBackend) (T, error), ch chan<- outcome[T], hedge bool) {
	inner := make(chan outcome[T], 1)
	go func() {
		v, err := do(ctx, b)
		inner <- outcome[T]{v: v, err: err, hedge: hedge}
	}()
	select {
	case out := <-inner:
		ch <- out
	case <-ctx.Done():
		ch <- outcome[T]{err: ctx.Err(), hedge: hedge}
	}
}

// attemptOnce runs one deadline-bounded attempt against shard s's
// primary backend, racing a mirror hedge after the straggler threshold
// when hedging is armed. First success wins and the loser's context is
// cancelled.
func attemptOnce[T any](r *resilience, s int, do func(context.Context, ShardBackend) (T, error)) (T, error) {
	var zero T
	pctx, pcancel := context.WithTimeout(r.ctx, r.pol.CallTimeout)
	ch := make(chan outcome[T], 2)
	go runGuarded(pctx, r.backends[s], do, ch, false)
	if r.pol.DisableHedging || r.mirrors == nil {
		out := <-ch
		pcancel()
		return out.v, out.err
	}
	timer := time.NewTimer(r.pol.HedgeAfter)
	defer timer.Stop()
	defer pcancel()
	pending := 1
	hedged := false
	var lastErr error
	for {
		select {
		case out := <-ch:
			pending--
			if out.err == nil {
				if out.hedge {
					r.hedgeWins.Add(1)
				}
				// Returning runs the deferred cancels: the loser — the
				// straggling primary when the hedge won — is cancelled.
				return out.v, nil
			}
			lastErr = out.err
			if pending == 0 {
				return zero, lastErr
			}
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			r.hedged.Add(1)
			hctx, hcancel := context.WithTimeout(r.ctx, r.pol.CallTimeout)
			defer hcancel()
			go runGuarded(hctx, r.mirrors[s], do, ch, true)
			pending++
		}
	}
}

// callWithRetry wraps attemptOnce in the bounded-retry loop: jittered
// exponential backoff between attempts, run-context cancellation
// checked before every attempt and sleep.
func callWithRetry[T any](r *resilience, s int, do func(context.Context, ShardBackend) (T, error)) (T, error) {
	var zero T
	backoff := r.pol.BackoffBase
	var lastErr error
	for a := 0; a <= r.pol.RetryBudget; a++ {
		if err := r.ctx.Err(); err != nil {
			return zero, err
		}
		if a > 0 {
			r.retries.Add(1)
			if !r.sleep(backoff) {
				return zero, r.ctx.Err()
			}
			backoff *= 2
		}
		v, err := attemptOnce(r, s, do)
		if err == nil {
			return v, nil
		}
		if cerr := r.ctx.Err(); cerr != nil {
			return zero, cerr
		}
		if errors.Is(err, context.DeadlineExceeded) {
			r.timeouts.Add(1)
		}
		lastErr = err
	}
	return zero, lastErr
}

// resilientCall is the planner's single entry into a shard backend:
// breaker fast-skip for down shards (with paced recovery probes), then
// the retry/hedge machinery, then health bookkeeping. do must allocate
// its own result — hedged attempts run it concurrently against the
// primary and the mirror, and only the winner's value is returned.
func resilientCall[T any](r *resilience, s int, do func(context.Context, ShardBackend) (T, error)) (T, error) {
	var zero T
	h := &r.health[s]
	if h.down.Load() {
		if n := h.skips.Add(1); n%int64(r.pol.ProbeEvery) != 0 {
			r.skippedCalls.Add(1)
			return zero, errShardDown
		}
	}
	v, err := callWithRetry(r, s, do)
	if err == nil {
		h.consec.Store(0)
		h.down.Store(false)
		return v, nil
	}
	if r.ctx.Err() != nil {
		// The run was cancelled, not the shard failing: leave health be.
		return zero, err
	}
	r.failedCalls.Add(1)
	h.everFailed.Store(true)
	if int(h.consec.Add(1)) >= r.pol.DownAfter {
		h.down.Store(true)
	}
	return zero, err
}

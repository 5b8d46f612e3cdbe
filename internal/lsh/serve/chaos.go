// Package serve holds the shard-serving side of the fault-tolerance
// layer: the deterministic chaos backend the tests and soak runs
// inject faults with. It sits strictly above internal/lsh — everything
// here wraps lsh.ShardBackend implementations.
package serve

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"time"

	"lshcluster/internal/lsh"
)

// ChaosSpec is a parsed fault-injection script. The grammar
// (ParseChaosSpec) is a semicolon-separated clause list:
//
//	spec    := clause (';' clause)*
//	clause  := 'seed=' N | [ 'shard' INDEX '.' ] fault
//	fault   := 'err=' P            // inject an error with probability P
//	         | 'lat=' DUR['~'DUR]  // add latency DUR, plus uniform jitter
//	         | 'stall=' P ':' DUR  // with probability P, stall for DUR
//	         | 'dead'              // fail every call
//	         | 'failn=' N          // fail the first N calls, then recover
//
// A bare fault applies to every shard; a 'shardI.'-prefixed fault to
// shard I only, overriding the bare value for that field. Example:
//
//	seed=7;err=0.05;lat=300us~200us;shard2.dead;shard0.failn=10
//
// Injection is seeded and deterministic: each wrapped backend draws
// from its own PRNG derived from (seed, shard, salt), so a serial run
// over the same call sequence injects the same faults every time.
// Stalls and latency honour the call context — a cancelled caller
// never waits a stall out.
type ChaosSpec struct {
	seed uint64
	ops  []faultOp
}

// faultOp is one parsed clause, applied in order at Wrap time.
type faultOp struct {
	shard int // -1: every shard
	kind  faultKind
	p     float64
	d1    time.Duration
	d2    time.Duration
	n     int64
}

type faultKind int

const (
	faultErr faultKind = iota
	faultLat
	faultStall
	faultDead
	faultFailN
)

// shardFaults is the effective fault set of one wrapped shard.
type shardFaults struct {
	errRate            float64
	latBase, latJitter time.Duration
	stallRate          float64
	stallDur           time.Duration
	dead               bool
	failN              int64
}

// ParseChaosSpec parses the spec grammar above. The empty string is a
// valid spec injecting nothing (chaos plumbing without faults — the
// bit-identity configuration).
func ParseChaosSpec(spec string) (*ChaosSpec, error) {
	c := &ChaosSpec{}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if v, ok := strings.CutPrefix(clause, "seed="); ok {
			seed, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("chaos: bad seed %q: %v", v, err)
			}
			c.seed = seed
			continue
		}
		shard := -1
		fault := clause
		if rest, ok := strings.CutPrefix(clause, "shard"); ok {
			idx, f, found := strings.Cut(rest, ".")
			if !found {
				return nil, fmt.Errorf("chaos: clause %q: want shardI.fault", clause)
			}
			i, err := strconv.Atoi(idx)
			if err != nil || i < 0 {
				return nil, fmt.Errorf("chaos: bad shard index %q in %q", idx, clause)
			}
			shard, fault = i, f
		}
		op, err := parseFault(fault)
		if err != nil {
			return nil, err
		}
		op.shard = shard
		c.ops = append(c.ops, op)
	}
	return c, nil
}

func parseFault(fault string) (faultOp, error) {
	key, val, _ := strings.Cut(fault, "=")
	switch key {
	case "err":
		p, err := strconv.ParseFloat(val, 64)
		if err != nil || !validRate(p) {
			return faultOp{}, fmt.Errorf("chaos: bad error rate %q", val)
		}
		return faultOp{kind: faultErr, p: p}, nil
	case "lat":
		base, jitter, hasJitter := strings.Cut(val, "~")
		d1, err := time.ParseDuration(base)
		if err != nil || d1 < 0 {
			return faultOp{}, fmt.Errorf("chaos: bad latency %q", val)
		}
		var d2 time.Duration
		if hasJitter {
			if d2, err = time.ParseDuration(jitter); err != nil || d2 < 0 {
				return faultOp{}, fmt.Errorf("chaos: bad latency jitter %q", val)
			}
		}
		return faultOp{kind: faultLat, d1: d1, d2: d2}, nil
	case "stall":
		prob, dur, found := strings.Cut(val, ":")
		if !found {
			return faultOp{}, fmt.Errorf("chaos: stall wants P:DUR, got %q", val)
		}
		p, err := strconv.ParseFloat(prob, 64)
		if err != nil || !validRate(p) {
			return faultOp{}, fmt.Errorf("chaos: bad stall rate %q", prob)
		}
		d, err := time.ParseDuration(dur)
		if err != nil || d < 0 {
			return faultOp{}, fmt.Errorf("chaos: bad stall duration %q", dur)
		}
		return faultOp{kind: faultStall, p: p, d1: d}, nil
	case "dead":
		if fault != "dead" {
			return faultOp{}, fmt.Errorf("chaos: dead takes no value, got %q", fault)
		}
		return faultOp{kind: faultDead}, nil
	case "failn":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil || n < 0 {
			return faultOp{}, fmt.Errorf("chaos: bad failn count %q", val)
		}
		return faultOp{kind: faultFailN, n: n}, nil
	default:
		return faultOp{}, fmt.Errorf("chaos: unknown fault %q", fault)
	}
}

// validRate reports whether p is a probability. Written so that NaN,
// which fails every comparison, is rejected too.
func validRate(p float64) bool { return p >= 0 && p <= 1 }

// Seed returns the spec's PRNG seed.
func (c *ChaosSpec) Seed() uint64 { return c.seed }

// faultsFor resolves shard s's effective faults by applying the parsed
// clauses in order (bare clauses first-come, shard-specific ones
// override the matching field).
func (c *ChaosSpec) faultsFor(s int) shardFaults {
	var f shardFaults
	for _, op := range c.ops {
		if op.shard != -1 && op.shard != s {
			continue
		}
		switch op.kind {
		case faultErr:
			f.errRate = op.p
		case faultLat:
			f.latBase, f.latJitter = op.d1, op.d2
		case faultStall:
			f.stallRate, f.stallDur = op.p, op.d1
		case faultDead:
			f.dead = true
		case faultFailN:
			f.failN = op.n
		}
	}
	return f
}

// Wrap returns the backends wrapped in this spec's fault injection,
// one chaos Backend per shard. salt distinguishes independent
// replicas of the same fault environment — primaries and their hedge
// mirrors live under the same spec but draw from different PRNG
// streams (a mirror is a different machine in the same unreliable
// fleet, not a magically healthy one: a 'dead' shard is dead on its
// mirror too, so permanent failures stay visible as recall loss).
func (c *ChaosSpec) Wrap(backends []lsh.ShardBackend, salt uint64) []lsh.ShardBackend {
	out := make([]lsh.ShardBackend, len(backends))
	for s, b := range backends {
		out[s] = NewBackend(b, c.faultsFor(s), c.seed^(uint64(s)*0x9e3779b97f4a7c15+salt*0xbf58476d1ce4e5b9))
	}
	return out
}

// Backend wraps a ShardBackend with seeded, deterministic fault
// injection. Safe for concurrent use (draws are mutex-serialised);
// determinism holds for a serial call sequence, which is what the
// accounting tests pin.
type Backend struct {
	inner lsh.ShardBackend
	f     shardFaults

	mu    sync.Mutex
	rng   *rand.Rand
	calls int64

	injectedErrs   int64
	injectedStalls int64
}

// NewBackend wraps inner with the given faults and PRNG seed.
func NewBackend(inner lsh.ShardBackend, f shardFaults, seed uint64) *Backend {
	return &Backend{inner: inner, f: f, rng: rand.New(rand.NewSource(int64(seed)))}
}

// Calls returns how many calls reached this backend.
func (c *Backend) Calls() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.calls
}

// InjectedErrors returns how many calls failed by injection (dead and
// failn included).
func (c *Backend) InjectedErrors() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injectedErrs
}

// InjectedStalls returns how many calls stalled by injection.
func (c *Backend) InjectedStalls() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.injectedStalls
}

// roll draws this call's fate: fail-fast (dead, failn, err), injected
// delay (lat, stall), or clean pass-through. Draw order is fixed so a
// serial call sequence replays identically.
func (c *Backend) roll(ctx context.Context) error {
	c.mu.Lock()
	c.calls++
	call := c.calls
	if c.f.failN > 0 && call <= c.f.failN {
		c.injectedErrs++
		c.mu.Unlock()
		return fmt.Errorf("chaos: scripted failure %d/%d", call, c.f.failN)
	}
	if c.f.dead {
		c.injectedErrs++
		c.mu.Unlock()
		return fmt.Errorf("chaos: shard dead (call %d)", call)
	}
	injectErr := c.f.errRate > 0 && c.rng.Float64() < c.f.errRate
	var lat time.Duration
	if c.f.latBase > 0 || c.f.latJitter > 0 {
		lat = c.f.latBase
		if c.f.latJitter > 0 {
			lat += time.Duration(c.rng.Int63n(int64(c.f.latJitter)))
		}
	}
	stall := c.f.stallRate > 0 && c.rng.Float64() < c.f.stallRate
	if injectErr {
		c.injectedErrs++
	}
	if stall {
		c.injectedStalls++
	}
	c.mu.Unlock()

	if stall {
		if err := sleepCtx(ctx, c.f.stallDur); err != nil {
			return err
		}
	}
	if lat > 0 {
		if err := sleepCtx(ctx, lat); err != nil {
			return err
		}
	}
	if injectErr {
		return fmt.Errorf("chaos: injected error (call %d)", call)
	}
	return ctx.Err()
}

// sleepCtx sleeps d or until ctx is done, whichever is first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (c *Backend) ItemKeys(ctx context.Context, locals []int32, keys []uint64) error {
	if err := c.roll(ctx); err != nil {
		return err
	}
	return c.inner.ItemKeys(ctx, locals, keys)
}

func (c *Backend) Candidates(ctx context.Context, keys []uint64, emit func(band int, bucket []int32)) error {
	if err := c.roll(ctx); err != nil {
		return err
	}
	return c.inner.Candidates(ctx, keys, emit)
}

func (c *Backend) CandidatesBlock(ctx context.Context, n int, keys []uint64, emit func(pos, band int, bucket []int32)) error {
	if err := c.roll(ctx); err != nil {
		return err
	}
	return c.inner.CandidatesBlock(ctx, n, keys, emit)
}

func (c *Backend) ReverseSpans(ctx context.Context, keys []uint64, spans []int32) error {
	if err := c.roll(ctx); err != nil {
		return err
	}
	return c.inner.ReverseSpans(ctx, keys, spans)
}

func (c *Backend) Stats(ctx context.Context) (lsh.Stats, error) {
	if err := c.roll(ctx); err != nil {
		return lsh.Stats{}, err
	}
	return c.inner.Stats(ctx)
}

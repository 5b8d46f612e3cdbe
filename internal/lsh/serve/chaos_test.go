package serve

import (
	"context"
	"strings"
	"testing"
	"time"

	"lshcluster/internal/lsh"
)

// nopBackend is the do-nothing ShardBackend behind the chaos wrapper:
// these tests pin the injection layer, not the shard underneath.
type nopBackend struct{}

func (nopBackend) ItemKeys(context.Context, []int32, []uint64) error { return nil }
func (nopBackend) Candidates(context.Context, []uint64, func(int, []int32)) error {
	return nil
}
func (nopBackend) CandidatesBlock(context.Context, int, []uint64, func(int, int, []int32)) error {
	return nil
}
func (nopBackend) ReverseSpans(context.Context, []uint64, []int32) error { return nil }
func (nopBackend) Stats(context.Context) (lsh.Stats, error)              { return lsh.Stats{}, nil }

// validChaosSpecs and invalidChaosSpecs are TestParseChaosSpec's
// cases and FuzzParseChaosSpec's seed corpus.
var (
	validChaosSpecs = []string{
		"",
		"seed=7",
		"err=0.05",
		"err=0",
		"err=1",
		"lat=300us",
		"lat=300us~200us",
		"stall=0.01:50ms",
		"dead",
		"failn=10",
		"seed=7;err=0.05;lat=300us~200us;shard2.dead;shard0.failn=10",
		" seed=1 ; err=0.5 ",    // whitespace tolerated
		"err=0.05;;shard1.dead", // empty clause tolerated
		"shard3.stall=0.5:1ms",
	}
	invalidChaosSpecs = []string{
		"seed=abc",
		"seed=-1",
		"err=1.5",
		"err=-0.1",
		"err=x",
		"err=NaN", // fails both range comparisons, so must be caught apart
		"lat=banana",
		"lat=-3ms",
		"lat=1ms~banana",
		"stall=0.5",      // missing :DUR
		"stall=2:1ms",    // rate out of range
		"stall=nan:1ms",  // NaN rate
		"stall=0.5:-1ms", // negative duration
		"dead=1",         // dead takes no value
		"failn=-3",
		"failn=x",
		"bogus=1",
		"shardx.dead",  // non-numeric shard index
		"shard-1.dead", // negative shard index
		"shard2dead",   // missing dot (parses as unknown fault)
	}
)

func TestParseChaosSpec(t *testing.T) {
	for _, spec := range validChaosSpecs {
		if _, err := ParseChaosSpec(spec); err != nil {
			t.Errorf("ParseChaosSpec(%q) = %v, want nil", spec, err)
		}
	}
	for _, spec := range invalidChaosSpecs {
		if _, err := ParseChaosSpec(spec); err == nil {
			t.Errorf("ParseChaosSpec(%q) accepted, want error", spec)
		}
	}
}

// FuzzParseChaosSpec feeds arbitrary specs to the parser: it may
// reject them, but never panics, and every spec it accepts resolves,
// for every shard it names and a few it does not, to rates in [0,1]
// and non-negative durations and counts.
func FuzzParseChaosSpec(f *testing.F) {
	for _, spec := range validChaosSpecs {
		f.Add(spec)
	}
	for _, spec := range invalidChaosSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, err := ParseChaosSpec(spec)
		if err != nil {
			return
		}
		shards := []int{0, 1, 2, 3}
		for _, op := range c.ops {
			if op.shard >= 0 {
				shards = append(shards, op.shard)
			}
		}
		for _, s := range shards {
			f := c.faultsFor(s)
			if !(f.errRate >= 0 && f.errRate <= 1) || !(f.stallRate >= 0 && f.stallRate <= 1) {
				t.Fatalf("%q: shard %d rates err=%v stall=%v outside [0,1]", spec, s, f.errRate, f.stallRate)
			}
			if f.latBase < 0 || f.latJitter < 0 || f.stallDur < 0 || f.failN < 0 {
				t.Fatalf("%q: shard %d has a negative duration or count: %+v", spec, s, f)
			}
		}
	})
}

func TestChaosSeed(t *testing.T) {
	c, err := ParseChaosSpec("seed=42;err=0.1")
	if err != nil {
		t.Fatal(err)
	}
	if c.Seed() != 42 {
		t.Fatalf("Seed() = %d, want 42", c.Seed())
	}
}

// TestFaultsForOverride pins the clause-resolution semantics: a bare
// fault applies everywhere, a shardI. clause overrides that field for
// its shard only.
func TestFaultsForOverride(t *testing.T) {
	c, err := ParseChaosSpec("err=0.5;lat=1ms;shard1.err=0;shard1.dead;shard2.failn=4")
	if err != nil {
		t.Fatal(err)
	}
	f0 := c.faultsFor(0)
	if f0.errRate != 0.5 || f0.latBase != time.Millisecond || f0.dead || f0.failN != 0 {
		t.Fatalf("shard0 faults = %+v", f0)
	}
	f1 := c.faultsFor(1)
	if f1.errRate != 0 || !f1.dead || f1.latBase != time.Millisecond {
		t.Fatalf("shard1 faults = %+v", f1)
	}
	f2 := c.faultsFor(2)
	if f2.errRate != 0.5 || f2.failN != 4 || f2.dead {
		t.Fatalf("shard2 faults = %+v", f2)
	}
}

// callSequence drives n serial Candidates calls and records which fail.
func callSequence(b *Backend, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = b.Candidates(context.Background(), nil, nil) != nil
	}
	return out
}

// TestChaosDeterminism pins the seeded-injection contract: the same
// (faults, seed) over the same serial call sequence injects the same
// faults, and a different seed draws a different stream.
func TestChaosDeterminism(t *testing.T) {
	c, err := ParseChaosSpec("seed=9;err=0.3")
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	a := callSequence(NewBackend(nopBackend{}, c.faultsFor(0), 9), n)
	b := callSequence(NewBackend(nopBackend{}, c.faultsFor(0), 9), n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at call %d", i)
		}
	}
	other := callSequence(NewBackend(nopBackend{}, c.faultsFor(0), 10), n)
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds injected identical fault sequences")
	}
}

// TestChaosWrapSaltsAreIndependent pins the primary/mirror split: the
// same spec wrapped under different salts draws independent streams,
// so a hedge mirror does not fail in lockstep with its primary.
func TestChaosWrapSaltsAreIndependent(t *testing.T) {
	c, err := ParseChaosSpec("seed=5;err=0.4")
	if err != nil {
		t.Fatal(err)
	}
	inner := []lsh.ShardBackend{nopBackend{}, nopBackend{}}
	prim := c.Wrap(inner, 0)
	mirr := c.Wrap(inner, 1)
	const n = 200
	for s := range inner {
		a := callSequence(prim[s].(*Backend), n)
		b := callSequence(mirr[s].(*Backend), n)
		same := true
		for i := range a {
			if a[i] != b[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("shard %d: mirror injection stream mirrors the primary's", s)
		}
	}
}

func TestChaosFailNThenRecover(t *testing.T) {
	c, err := ParseChaosSpec("failn=3")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBackend(nopBackend{}, c.faultsFor(0), 1)
	for i := 1; i <= 3; i++ {
		err := b.Candidates(context.Background(), nil, nil)
		if err == nil || !strings.Contains(err.Error(), "scripted failure") {
			t.Fatalf("call %d: err = %v, want scripted failure", i, err)
		}
	}
	for i := 4; i <= 10; i++ {
		if err := b.Candidates(context.Background(), nil, nil); err != nil {
			t.Fatalf("call %d after recovery: %v", i, err)
		}
	}
	if got := b.InjectedErrors(); got != 3 {
		t.Fatalf("InjectedErrors = %d, want 3", got)
	}
	if got := b.Calls(); got != 10 {
		t.Fatalf("Calls = %d, want 10", got)
	}
}

func TestChaosDeadAlwaysFails(t *testing.T) {
	c, err := ParseChaosSpec("dead")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBackend(nopBackend{}, c.faultsFor(0), 1)
	for i := 0; i < 50; i++ {
		err := b.ItemKeys(context.Background(), nil, nil)
		if err == nil || !strings.Contains(err.Error(), "shard dead") {
			t.Fatalf("call %d: err = %v, want shard dead", i, err)
		}
	}
	if got := b.InjectedErrors(); got != 50 {
		t.Fatalf("InjectedErrors = %d, want 50", got)
	}
}

// TestChaosErrRateBallpark sanity-checks the error rate: 5% over 1000
// draws must land in a generous band around 50.
func TestChaosErrRateBallpark(t *testing.T) {
	c, err := ParseChaosSpec("seed=1;err=0.05")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBackend(nopBackend{}, c.faultsFor(0), 1)
	for i := 0; i < 1000; i++ {
		b.Candidates(context.Background(), nil, nil)
	}
	if got := b.InjectedErrors(); got < 15 || got > 120 {
		t.Fatalf("InjectedErrors = %d over 1000 calls at 5%%, want ~50", got)
	}
}

// TestChaosStallHonoursContext is the stall half of the cancellation
// guarantee: a scripted one-hour stall returns as soon as the caller's
// context is cancelled.
func TestChaosStallHonoursContext(t *testing.T) {
	c, err := ParseChaosSpec("stall=1:1h")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBackend(nopBackend{}, c.faultsFor(0), 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	callErr := b.Candidates(ctx, nil, nil)
	if callErr == nil {
		t.Fatal("stalled call returned nil error after cancellation")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("stalled call held for %v past cancellation", elapsed)
	}
	if got := b.InjectedStalls(); got != 1 {
		t.Fatalf("InjectedStalls = %d, want 1", got)
	}
}

func TestChaosLatencyDelays(t *testing.T) {
	c, err := ParseChaosSpec("lat=10ms")
	if err != nil {
		t.Fatal(err)
	}
	b := NewBackend(nopBackend{}, c.faultsFor(0), 1)
	start := time.Now()
	if err := b.Candidates(context.Background(), nil, nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 10*time.Millisecond {
		t.Fatalf("latency injection waited only %v", elapsed)
	}
}

package serve

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"lshcluster/internal/lsh"
)

// slowShard is a scriptable shard backend for server tests: it emits
// one fixed bucket per band, optionally delays or fails, and tracks
// its concurrent-call high-water mark (the backpressure witness).
type slowShard struct {
	shard int
	bands int
	delay time.Duration
	fail  bool

	mu        sync.Mutex
	inflight  int
	highWater int
}

func (s *slowShard) enter() {
	s.mu.Lock()
	s.inflight++
	if s.inflight > s.highWater {
		s.highWater = s.inflight
	}
	s.mu.Unlock()
}

func (s *slowShard) leave() {
	s.mu.Lock()
	s.inflight--
	s.mu.Unlock()
}

func (s *slowShard) HighWater() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.highWater
}

func (s *slowShard) Candidates(ctx context.Context, keys []uint64, emit func(band int, bucket []int32)) error {
	s.enter()
	defer s.leave()
	if s.delay > 0 {
		if err := sleepCtx(ctx, s.delay); err != nil {
			return err
		}
	}
	if s.fail {
		return errors.New("scripted shard failure")
	}
	for b := 0; b < s.bands; b++ {
		emit(b, []int32{int32(s.shard * 100), int32(s.shard*100 + b)})
	}
	return nil
}

func (s *slowShard) ItemKeys(context.Context, []int32, []uint64) error { return nil }
func (s *slowShard) CandidatesBlock(context.Context, int, []uint64, func(int, int, []int32)) error {
	return nil
}
func (s *slowShard) ReverseSpans(context.Context, []uint64, []int32) error { return nil }
func (s *slowShard) Stats(context.Context) (lsh.Stats, error)              { return lsh.Stats{}, nil }

func newShards(n, bands int) ([]*slowShard, []lsh.ShardBackend) {
	shards := make([]*slowShard, n)
	backends := make([]lsh.ShardBackend, n)
	for i := range shards {
		shards[i] = &slowShard{shard: i, bands: bands}
		backends[i] = shards[i]
	}
	return shards, backends
}

type emitted struct {
	band   int
	bucket []int32
}

// TestServerEmitOrder pins the merge contract: whatever order shards
// respond in, the gathered buckets come out band-major in ascending
// shard order.
func TestServerEmitOrder(t *testing.T) {
	const bands = 3
	shards, backends := newShards(3, bands)
	shards[0].delay = 10 * time.Millisecond // slowest shard must still emit first
	srv := NewServer(backends, bands, 2)
	var got []emitted
	skipped, err := srv.Candidates(context.Background(), make([]uint64, bands), func(band int, bucket []int32) {
		got = append(got, emitted{band, bucket})
	})
	if err != nil || skipped != 0 {
		t.Fatalf("skipped=%d err=%v", skipped, err)
	}
	var want []emitted
	for b := 0; b < bands; b++ {
		for s := 0; s < 3; s++ {
			want = append(want, emitted{b, []int32{int32(s * 100), int32(s*100 + b)}})
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("emission order:\nwant %v\ngot  %v", want, got)
	}
}

// TestServerBackpressure pins the in-flight gate: with many concurrent
// clients against a slow shard, the shard never sees more than
// `inflight` concurrent calls.
func TestServerBackpressure(t *testing.T) {
	const bands = 2
	const inflight = 2
	const clients = 8
	shards, backends := newShards(2, bands)
	for _, s := range shards {
		s.delay = 5 * time.Millisecond
	}
	srv := NewServer(backends, bands, inflight)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for q := 0; q < 3; q++ {
				if _, err := srv.Candidates(context.Background(), make([]uint64, bands), func(int, []int32) {}); err != nil {
					t.Errorf("query failed: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, s := range shards {
		if hw := s.HighWater(); hw > inflight {
			t.Fatalf("shard %d saw %d concurrent calls, gate is %d", i, hw, inflight)
		}
	}
	rep := srv.Report()
	for i := range rep {
		if rep[i].Calls != clients*3 {
			t.Fatalf("shard %d Calls = %d, want %d", i, rep[i].Calls, clients*3)
		}
	}
}

// TestServerSkipsFailedShard pins graceful degradation: a failing
// shard is skipped and counted, the others still serve in order.
func TestServerSkipsFailedShard(t *testing.T) {
	const bands = 2
	shards, backends := newShards(3, bands)
	shards[1].fail = true
	srv := NewServer(backends, bands, 1)
	var got []emitted
	skipped, err := srv.Candidates(context.Background(), make([]uint64, bands), func(band int, bucket []int32) {
		got = append(got, emitted{band, bucket})
	})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Fatalf("skipped = %d, want 1", skipped)
	}
	var want []emitted
	for b := 0; b < bands; b++ {
		for _, s := range []int{0, 2} {
			want = append(want, emitted{b, []int32{int32(s * 100), int32(s*100 + b)}})
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("partial emission:\nwant %v\ngot  %v", want, got)
	}
	rep := srv.Report()
	if rep[1].Errors != 1 || rep[0].Errors != 0 || rep[2].Errors != 0 {
		t.Fatalf("error accounting: %+v", rep)
	}
}

// TestServerStragglerAccounting pins the straggler ledger: the
// consistently slowest shard accumulates the straggler count and leads
// Slowest().
func TestServerStragglerAccounting(t *testing.T) {
	const bands = 2
	const queries = 5
	shards, backends := newShards(3, bands)
	shards[2].delay = 15 * time.Millisecond
	srv := NewServer(backends, bands, 2)
	for q := 0; q < queries; q++ {
		if _, err := srv.Candidates(context.Background(), make([]uint64, bands), func(int, []int32) {}); err != nil {
			t.Fatal(err)
		}
	}
	rep := srv.Report()
	if rep[2].Stragglers != queries {
		t.Fatalf("shard 2 Stragglers = %d, want %d (report: %+v)", rep[2].Stragglers, queries, rep)
	}
	if rep[2].Max < 15*time.Millisecond || rep[2].Mean < 15*time.Millisecond {
		t.Fatalf("shard 2 latency accounting: %+v", rep[2])
	}
	if order := srv.Slowest(); order[0] != 2 {
		t.Fatalf("Slowest() = %v, want shard 2 first", order)
	}
}

// TestServerCancelledContext pins the cancellation path: a cancelled
// query returns the context error instead of a silent partial result.
func TestServerCancelledContext(t *testing.T) {
	const bands = 2
	shards, backends := newShards(2, bands)
	for _, s := range shards {
		s.delay = time.Hour // sleepCtx returns on cancellation
	}
	srv := NewServer(backends, bands, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	skipped, err := srv.Candidates(ctx, make([]uint64, bands), func(int, []int32) {})
	if err == nil {
		t.Fatal("cancelled query returned nil error")
	}
	if skipped != 2 {
		t.Fatalf("skipped = %d, want 2", skipped)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled query blocked for %v", elapsed)
	}
}

// TestServerInflightFloor pins the inflight < 1 → 1 normalisation.
func TestServerInflightFloor(t *testing.T) {
	_, backends := newShards(1, 1)
	srv := NewServer(backends, 1, 0)
	if got, err := srv.Candidates(context.Background(), make([]uint64, 1), func(int, []int32) {}); err != nil || got != 0 {
		t.Fatalf("skipped=%d err=%v", got, err)
	}
}

// Example-style smoke: a chaos-wrapped fleet behind the server — the
// cmd serve demo's composition — serves partial results under faults.
func TestServerOverChaosBackends(t *testing.T) {
	const bands = 2
	_, backends := newShards(3, bands)
	spec, err := ParseChaosSpec("seed=3;shard1.dead")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(spec.Wrap(backends, 0), bands, 2)
	for q := 0; q < 4; q++ {
		skipped, err := srv.Candidates(context.Background(), make([]uint64, bands), func(int, []int32) {})
		if err != nil {
			t.Fatal(err)
		}
		if skipped != 1 {
			t.Fatalf("query %d: skipped = %d, want 1 (dead shard)", q, skipped)
		}
	}
	rep := srv.Report()
	if rep[1].Errors != 4 {
		t.Fatalf("dead shard Errors = %d, want 4: %+v", rep[1].Errors, fmt.Sprintf("%+v", rep))
	}
}

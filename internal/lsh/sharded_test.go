package lsh

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// signKeysFor computes the SignAll arena for sets through a scheme-
// compatible signer (what the accelerators' SignAll does, minus
// dataset plumbing).
func signKeysFor(sh *Sharded, sets [][]uint64, workers int) []uint64 {
	scheme := sh.Scheme()
	return SignAll(sh.Params(), len(sets), workers, func() SignFunc {
		return func(item int32, sig []uint64) {
			scheme.Sign(sets[item], sig)
		}
	}, nil)
}

// singleReference builds the unsharded oracle: one Index with every
// set inserted in ascending order.
func singleReference(t *testing.T, p Params, seed uint64, sets [][]uint64, freeze bool) *Index {
	t.Helper()
	ix := mustIndex(t, p, seed, len(sets))
	for i, s := range sets {
		if err := ix.Insert(int32(i), s); err != nil {
			t.Fatal(err)
		}
	}
	if freeze {
		ix.Freeze()
	}
	return ix
}

// TestShardCuts pins the partitioner contract: cuts are monotone, cover
// [0, n) exactly, depend only on (n, S), and locate agrees with them
// for every item.
func TestShardCuts(t *testing.T) {
	for _, n := range []int{0, 1, 5, 17, 100, 1001} {
		for _, s := range []int{1, 2, 3, 4, 7} {
			if s > n && n > 0 {
				continue
			}
			cuts := ShardCuts(n, s)
			if len(cuts) != s+1 || cuts[0] != 0 || cuts[s] != int32(n) {
				t.Fatalf("n=%d s=%d: cuts %v", n, s, cuts)
			}
			if !reflect.DeepEqual(cuts, ShardCuts(n, s)) {
				t.Fatalf("n=%d s=%d: cuts not deterministic", n, s)
			}
			part := partition{n: n, s: s, cuts: cuts}
			for i := 0; i < n; i++ {
				shard, local, ok := part.locate(int32(i))
				if !ok {
					t.Fatalf("n=%d s=%d: item %d not located", n, s, i)
				}
				if int32(i) < cuts[shard] || int32(i) >= cuts[shard+1] {
					t.Fatalf("n=%d s=%d: item %d located in shard %d owning [%d,%d)",
						n, s, i, shard, cuts[shard], cuts[shard+1])
				}
				if local != int32(i)-cuts[shard] {
					t.Fatalf("n=%d s=%d: item %d local %d, want %d", n, s, i, local, int32(i)-cuts[shard])
				}
			}
			if _, _, ok := part.locate(int32(n)); ok && n > 0 {
				t.Fatalf("n=%d s=%d: out-of-range item located", n, s)
			}
			if _, _, ok := part.locate(-1); ok {
				t.Fatalf("n=%d s=%d: negative item located", n, s)
			}
		}
	}
}

// TestShardedBuildDeterministic pins per-shard frozen-array
// determinism: for a fixed (n, S) and key arena, every shard's frozen
// arrays are byte-identical whether the sharded index was built
// directly from the arena (BuildFrozen, any worker count) or through
// the map phase (Insert in ascending order, then Freeze) — the
// shard-level analogue of TestBuildFrozenMatchesInsertFreeze.
func TestShardedBuildDeterministic(t *testing.T) {
	const n = 230
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 13)
	for _, shards := range []int{2, 3, 4} {
		ref, err := NewSharded(p, 7, n, shards)
		if err != nil {
			t.Fatal(err)
		}
		keys := signKeysFor(ref, sets, 2)
		for i, set := range sets {
			if err := ref.Insert(int32(i), set); err != nil {
				t.Fatal(err)
			}
		}
		ref.Freeze()
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("s=%d/w=%d", shards, workers), func(t *testing.T) {
				sh, err := NewSharded(p, 7, n, shards)
				if err != nil {
					t.Fatal(err)
				}
				if err := sh.BuildFrozen(keys, n, workers); err != nil {
					t.Fatal(err)
				}
				if sh.NumShards() != shards {
					t.Fatalf("NumShards = %d, want %d", sh.NumShards(), shards)
				}
				if got := sh.NumInserted(); got != n {
					t.Fatalf("NumInserted = %d, want %d", got, n)
				}
				if !sh.Frozen() {
					t.Fatal("not frozen after BuildFrozen")
				}
				if bt := sh.BuildTimes(); len(bt) != shards {
					t.Fatalf("BuildTimes has %d entries, want %d", len(bt), shards)
				}
				for s := 0; s < shards; s++ {
					assertFrozenIdentical(t, ref.shards[s], sh.shards[s])
				}
			})
		}
	}
}

// collectQueryCandidates drains Query.Candidates for one item.
func collectQueryCandidates(q *Query, item int32) []int32 {
	var out []int32
	q.Candidates(item, func(other int32) { out = append(out, other) })
	return out
}

// collectBatch runs one CandidatesBatch sweep over blk and returns each
// position's candidate stream. It records the bucket slices during the
// sweep and reads them only after the sweep returns, so every caller
// also checks the slice-lifetime contract: buckets stay valid until
// the next call on the same Query.
func collectBatch(q *Query, blk []int32) [][]int32 {
	buckets := make([][][]int32, len(blk))
	q.CandidatesBatch(blk, func(pos int, bucket []int32, _ int32) {
		buckets[pos] = append(buckets[pos], bucket)
	})
	got := make([][]int32, len(blk))
	for pos, bs := range buckets {
		for _, b := range bs {
			got[pos] = append(got[pos], b...)
		}
	}
	return got
}

// mustPanicUnfrozen fails unless fn panics with the multi-shard
// query precondition (every shard frozen).
func mustPanicUnfrozen(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if err, _ := r.(error); !errors.Is(err, errUnfrozenQuery) {
			t.Fatalf("%s on unfrozen shards: recovered %v, want the frozen-shards precondition panic", what, r)
		}
	}()
	fn()
}

// TestShardedQueriesMatchSingle is the planner's merge-semantics
// oracle: for every shard count, the per-item and batched block query
// paths must reproduce the single-index candidate stream exactly (same
// items, same enumeration order). A single shard is queried on either
// layout, and by signature too (the stream's query). Several shards
// are queried only once frozen: on unfrozen shards both paths must
// panic with the precondition, and after Freeze they must match the
// oracle like a BuildFrozen index.
func TestShardedQueriesMatchSingle(t *testing.T) {
	const n = 260
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 21)
	probe := []uint64{100, 101, 102, 103, 104}
	for _, frozen := range []bool{false, true} {
		ref := singleReference(t, p, 7, sets, frozen)
		refKeys := signKeysFor(&Sharded{params: p, shards: []*Index{ref}, single: ref}, sets, 1)
		for _, shards := range []int{1, 2, 3, 4} {
			t.Run(fmt.Sprintf("frozen=%v/s=%d", frozen, shards), func(t *testing.T) {
				sh, err := NewSharded(p, 7, n, shards)
				if err != nil {
					t.Fatal(err)
				}
				if frozen {
					if err := sh.BuildFrozen(refKeys, n, 2); err != nil {
						t.Fatal(err)
					}
				} else {
					for i, s := range sets {
						if err := sh.Insert(int32(i), s); err != nil {
							t.Fatal(err)
						}
					}
				}
				q := sh.NewQuery()
				if !frozen && shards > 1 {
					mustPanicUnfrozen(t, "Candidates", func() { q.Candidates(0, func(int32) {}) })
					mustPanicUnfrozen(t, "CandidatesBatch", func() { q.CandidatesBatch([]int32{0, 1}, func(int, []int32, int32) {}) })
					sh.Freeze()
				}
				for i := 0; i < n; i++ {
					want := collectCandidates(ref, int32(i))
					got := collectQueryCandidates(q, int32(i))
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("item %d candidates: want %v, got %v", i, want, got)
					}
				}
				// Unknown items are silent, not panics.
				if got := collectQueryCandidates(q, int32(n+5)); got != nil {
					t.Fatalf("out-of-range item returned %v", got)
				}
				// Batched block sweep: concatenated buckets per position
				// must reproduce per-item enumeration.
				for _, blockLen := range []int{1, 7, 64} {
					for lo := 0; lo < n; lo += blockLen {
						hi := min(lo+blockLen, n)
						blk := make([]int32, 0, hi-lo)
						for i := lo; i < hi; i++ {
							blk = append(blk, int32(i))
						}
						got := collectBatch(q, blk)
						for pos, item := range blk {
							want := collectCandidates(ref, item)
							if !reflect.DeepEqual(want, got[pos]) {
								t.Fatalf("block item %d: want %v, got %v", item, want, got[pos])
							}
						}
					}
				}
				// Blocks containing uninserted items skip them silently.
				q.CandidatesBatch([]int32{3, int32(n + 9)}, func(pos int, bucket []int32, _ int32) {
					if pos != 0 {
						t.Fatalf("uninserted item produced a bucket at pos %d", pos)
					}
				})
				if shards == 1 {
					// The single shard answers an out-of-index signature
					// like the oracle.
					sig := make([]uint64, p.SignatureLen())
					sh.Scheme().Sign(probe, sig)
					var wantSig, gotSig []int32
					ref.CandidatesOfSignature(sig, func(o int32) { wantSig = append(wantSig, o) })
					sh.single.CandidatesOfSignature(sig, func(o int32) { gotSig = append(gotSig, o) })
					if !reflect.DeepEqual(wantSig, gotSig) {
						t.Fatalf("of-signature: want %v, got %v", wantSig, gotSig)
					}
				} else if sh.MergeTime() <= 0 {
					t.Fatal("cross-shard queries recorded no merge time")
				}
			})
		}
	}
}

// TestShardedReverseMatchesSingle checks the cross-shard reverse view
// emits exactly the single-index collision set for any source set
// (order is not part of the contract; the consumer dedupes).
func TestShardedReverseMatchesSingle(t *testing.T) {
	const n = 220
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 17)
	ref := singleReference(t, p, 7, sets, true)
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			sh, err := NewSharded(p, 7, n, shards)
			if err != nil {
				t.Fatal(err)
			}
			for i, s := range sets {
				if err := sh.Insert(int32(i), s); err != nil {
					t.Fatal(err)
				}
			}
			sh.Freeze()
			rv := sh.NewReverse()
			if rv == nil {
				t.Fatal("NewReverse returned nil on a frozen sharded index")
			}
			refRv := ref.NewReverse()
			for _, sources := range [][]int32{{0}, {3, 77, 150}, {n - 1, 0, 42}} {
				want := map[int32]bool{}
				got := map[int32]bool{}
				for _, s := range sources {
					refRv.AddSource(s)
					rv.AddSource(s)
				}
				refRv.Emit(func(it int32) bool { want[it] = true; return true })
				rv.Emit(func(it int32) bool { got[it] = true; return true })
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("sources %v: want %d items, got %d (sets differ)", sources, len(want), len(got))
				}
			}
			// Early stop still resets all marks for reuse.
			rv.AddSource(5)
			rv.Emit(func(int32) bool { return false })
			count := 0
			rv.AddSource(5)
			rv.Emit(func(int32) bool { count++; return true })
			if count == 0 {
				t.Fatal("reverse view not reusable after an early-stopped Emit")
			}
		})
	}
}

// buildSharded constructs a frozen range-sharded index over sets.
func buildSharded(t *testing.T, p Params, sets [][]uint64, shards int) *Sharded {
	t.Helper()
	sh, err := NewSharded(p, 7, len(sets), shards)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.BuildFrozen(signKeysFor(sh, sets, 2), len(sets), 2); err != nil {
		t.Fatal(err)
	}
	return sh
}

// TestShardedFanOutMatchesUnsharded pins both fan-out paths of the
// planner — per-item and batched block sweep — to the candidate stream
// of one unsharded index at every shard count. hedged=true issues
// every query twice, from two Query handles racing on separate
// goroutines over the same index (the concurrent use the Query
// contract allows); each must reproduce the stream exactly. The
// stride=false prefix names the range partition, the only one.
func TestShardedFanOutMatchesUnsharded(t *testing.T) {
	const n = 240
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 21)
	ref := singleReference(t, p, 7, sets, true)
	wantItems := make([][]int32, n)
	for i := range wantItems {
		wantItems[i] = collectCandidates(ref, int32(i))
	}
	for _, shards := range []int{1, 2, 4} {
		for _, hedged := range []bool{false, true} {
			t.Run(fmt.Sprintf("stride=false/s=%d/hedged=%v", shards, hedged), func(t *testing.T) {
				sh := buildSharded(t, p, sets, shards)
				check := func(q *Query) error {
					for i := 0; i < n; i++ {
						if got := collectQueryCandidates(q, int32(i)); !reflect.DeepEqual(wantItems[i], got) {
							return fmt.Errorf("item %d: want %v, got %v", i, wantItems[i], got)
						}
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
									return fmt.Errorf("block item %d: want %v, got %v", item, wantItems[item], got[pos])
								}
							}
						}
					}
					return nil
				}
				errs := make([]error, 1)
				if hedged {
					errs = make([]error, 2)
				}
				var wg sync.WaitGroup
				for h := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						errs[h] = check(sh.NewQuery())
					}()
				}
				wg.Wait()
				for h, err := range errs {
					if err != nil {
						t.Fatalf("query handle %d: %v", h, err)
					}
				}
			})
		}
	}
}

// TestShardedReverseEmitsSourceUnion pins the reverse-collision view
// to the fan-out: the items it emits for a source set are exactly
// the union of the sources' Query.Candidates streams (collision is
// symmetric, and every item shares its own buckets), and a second view
// over the same index replays the identical emission order.
func TestShardedReverseEmitsSourceUnion(t *testing.T) {
	const n = 200
	p := Params{Bands: 5, Rows: 3}
	sets := testSets(n, 5)
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("s=%d", shards), func(t *testing.T) {
			sh := buildSharded(t, p, sets, shards)
			sources := []int32{0, 3, 17, int32(n - 1)}

			q := sh.NewQuery()
			want := map[int32]bool{}
			for _, s := range sources {
				for _, it := range collectQueryCandidates(q, s) {
					want[it] = true
				}
			}
			emit := func() []int32 {
				rv := sh.NewReverse()
				if rv == nil {
					t.Fatal("NewReverse returned nil on a frozen index")
				}
				for _, s := range sources {
					rv.AddSource(s)
				}
				var out []int32
				rv.Emit(func(item int32) bool { out = append(out, item); return true })
				return out
			}
			first := emit()
			got := map[int32]bool{}
			for _, it := range first {
				got[it] = true
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("reverse emission: %d distinct items, direct fan-out %d (sets differ)", len(got), len(want))
			}
			if again := emit(); !reflect.DeepEqual(first, again) {
				t.Fatalf("reverse emission not replayable: %v then %v", first, again)
			}
		})
	}
}

// TestShardedInsertErrors pins routing validation: items outside the
// partitioned range are rejected, duplicates are rejected by the
// owning shard, and BuildFrozen enforces the arena shape.
func TestShardedInsertErrors(t *testing.T) {
	p := Params{Bands: 2, Rows: 2}
	sets := testSets(8, 3)
	sh, err := NewSharded(p, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh.Insert(8, sets[0]); err == nil {
		t.Fatal("out-of-range insert accepted")
	}
	if err := sh.Insert(-1, sets[0]); err == nil {
		t.Fatal("negative insert accepted")
	}
	if err := sh.Insert(3, sets[3]); err != nil {
		t.Fatal(err)
	}
	if err := sh.Insert(3, sets[3]); err == nil {
		t.Fatal("duplicate insert accepted")
	}
	sh2, err := NewSharded(p, 1, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sh2.BuildFrozen(make([]uint64, 3), 8, 1); err == nil {
		t.Fatal("wrong arena length accepted")
	}
	if err := sh2.BuildFrozen(make([]uint64, 4*p.Bands), 4, 1); err == nil {
		t.Fatal("wrong item count accepted")
	}
}

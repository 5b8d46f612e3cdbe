package lsh

import (
	"testing"
)

// buildTestIndex builds n test sets into a frozen index, or files them
// into a build-phase one.
func buildTestIndex(t *testing.T, n int, frozen bool) *Index {
	t.Helper()
	p := Params{Bands: 6, Rows: 3}
	sets := testSets(n, 9)
	if frozen {
		return buildFrozenIndex(t, p, 41, sets, 2)
	}
	ix := mustIndex(t, p, 41)
	fileItems(t, ix, sets, span(0, n))
	return ix
}

// TestCandidatesBatchMatchesCandidates pins the batch sweep's per-item
// contract: for every block position, concatenating the emitted
// slices reproduces Candidates' enumeration — the item itself, then
// its shared buckets: same items, same order — even though the sweep
// itself is band-major.
func TestCandidatesBatchMatchesCandidates(t *testing.T) {
	const n = 300
	ix := buildTestIndex(t, n, true)
	for _, blockLen := range []int{1, 5, 64} {
		for lo := 0; lo < n; lo += blockLen {
			hi := min(lo+blockLen, n)
			blk := make([]int32, 0, hi-lo)
			for i := lo; i < hi; i++ {
				blk = append(blk, int32(i))
			}
			got := make([][]int32, len(blk))
			ix.CandidatesBatch(blk, func(pos int, bucket []int32, _ int32) {
				got[pos] = append(got[pos], bucket...)
			})
			for pos, item := range blk {
				want := collectCandidates(ix, item)
				if len(want) == 0 || want[0] != item || len(got[pos]) != len(want) {
					t.Fatalf("item %d: batch %d candidates, per-item %d",
						item, len(got[pos]), len(want))
				}
				for j := range want {
					if got[pos][j] != want[j] {
						t.Fatalf("item %d candidate %d: batch %d, per-item %d",
							item, j, got[pos][j], want[j])
					}
				}
			}
		}
	}
	// Uninserted items are skipped, not reported empty-bucketed.
	ix2 := buildTestIndex(t, 10, true)
	calls := 0
	ix2.CandidatesBatch([]int32{3, 1000}, func(pos int, bucket []int32, _ int32) {
		if pos != 0 {
			t.Fatalf("uninserted item produced a bucket at pos %d", pos)
		}
		calls++
	})
	if calls == 0 {
		t.Fatal("inserted item produced no buckets")
	}
}

// TestCandidatesOfSignatureMatchesOfSet pins that signing externally
// and querying by signature reproduces CandidatesOfSet exactly — the
// contract the streaming clusterer's sign-once path relies on.
func TestCandidatesOfSignatureMatchesOfSet(t *testing.T) {
	ix := buildTestIndex(t, 200, false)
	probe := []uint64{100, 101, 102, 103}
	want := collectOfSet(ix, probe)
	sig := ix.Scheme().Sign(probe, make([]uint64, ix.Params().SignatureLen()))
	var got []int32
	ix.CandidatesOfSignature(sig, func(other int32) { got = append(got, other) })
	if len(got) != len(want) {
		t.Fatalf("by-signature %d candidates, by-set %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("candidate %d: by-signature %d, by-set %d", i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on signature length mismatch")
		}
	}()
	ix.CandidatesOfSignature(sig[:3], func(int32) {})
}

// TestReverseMatchesSymmetricCollisions pins the reverse view's
// contract: the set of items emitted for a source set equals the union
// of the sources' candidate enumerations, and bucket-level dedup never
// drops an item.
func TestReverseMatchesSymmetricCollisions(t *testing.T) {
	const n = 300
	if buildTestIndex(t, n, false).NewReverse() != nil {
		t.Fatal("NewReverse on an unfrozen index must return nil")
	}
	ix := buildTestIndex(t, n, true)
	rev := ix.NewReverse()
	if rev == nil {
		t.Fatal("NewReverse returned nil on a frozen index")
	}
	sources := []int32{3, 50, 51, 120}
	want := map[int32]bool{}
	for _, s := range sources {
		for _, other := range collectCandidates(ix, s) {
			want[other] = true
		}
	}
	for round := 0; round < 2; round++ { // second round: marks were reset
		got := map[int32]bool{}
		for _, s := range sources {
			rev.AddSource(s)
		}
		rev.AddSource(10_000) // uninserted: ignored
		rev.Emit(func(item int32) bool {
			got[item] = true
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("round %d: reverse emitted %d distinct items, want %d", round, len(got), len(want))
		}
		for item := range want {
			if !got[item] {
				t.Fatalf("round %d: reverse missed item %d", round, item)
			}
		}
	}
	// Early stop still resets the view.
	rev.AddSource(sources[0])
	emitted := 0
	rev.Emit(func(item int32) bool {
		emitted++
		return false
	})
	if emitted != 1 {
		t.Fatalf("early-stopped Emit delivered %d items, want 1", emitted)
	}
	rev.Emit(func(item int32) bool {
		t.Fatalf("reset view emitted item %d", item)
		return false
	})
}

package lsh

import (
	"slices"
	"testing"
)

// testParams is the banding of buildTestIndex.
var testParams = Params{Bands: 6, Rows: 3}

// buildTestIndex builds n test sets into a frozen index.
func buildTestIndex(t *testing.T, n int) *Index {
	t.Helper()
	return buildFrozenIndex(t, testParams, 41, testSets(n, 9), 2)
}

// TestCandidatesBatchMatchesCandidates pins the batch sweep's per-item
// contract: for every block position, concatenating the emitted
// slices reproduces Candidates' enumeration — the item itself, then
// its shared buckets: same items, same order — even though the sweep
// itself is band-major.
func TestCandidatesBatchMatchesCandidates(t *testing.T) {
	const n = 300
	ix := buildTestIndex(t, n)
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
	ix2 := buildTestIndex(t, 10)
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

// TestCandidatesOfSignatureMatchesOfSet pins the streaming clusterer's
// sign-once path to the batch signing: a band table's Probe of a
// signature signed by the caller reports, band by band, exactly the
// items whose SignAll band key is the set's, and a signature of the
// wrong length is rejected.
func TestCandidatesOfSignatureMatchesOfSet(t *testing.T) {
	const n = 200
	sets := testSets(n, 9)
	ix := buildTestIndex(t, n)
	// An out-of-index set: item 3's with one value replaced.
	probe := append(slices.Clone(sets[3][:11]), 9999)
	keys := bandKeysOf(ix, append(slices.Clone(sets), probe))
	bt := mustBandTable(t, testParams)
	fileItems(t, bt, ix.Scheme(), sets, span(0, n))
	var want []int32
	for b := 0; b < testParams.Bands; b++ {
		for i := 0; i < n; i++ {
			if keys[i*testParams.Bands+b] == keys[n*testParams.Bands+b] {
				want = append(want, int32(i))
			}
		}
	}
	sig := ix.Scheme().Sign(probe, make([]uint64, testParams.SignatureLen()))
	if got := probeAll(t, bt, sig); len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("by-signature %v, by SignAll keys %v", got, want)
	}
	if err := bt.Probe(sig[:3], nil); err == nil {
		t.Fatal("Probe of a 3-long signature accepted")
	}
}

// TestReverseMatchesSymmetricCollisions pins the reverse view's
// contract: the set of items emitted for a source set equals the union
// of the sources' candidate enumerations, and bucket-level dedup never
// drops an item.
func TestReverseMatchesSymmetricCollisions(t *testing.T) {
	const n = 300
	if mustIndex(t, testParams, 41).NewReverse() != nil {
		t.Fatal("NewReverse on an unbuilt index must return nil")
	}
	ix := buildTestIndex(t, n)
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

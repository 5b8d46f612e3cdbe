package lsh

import (
	"math/rand"
	"reflect"
	"testing"
)

// CandidatesOfSet MinHashes a value set, inserted or not, and reports
// the build-phase items colliding with it, with Candidates' duplication
// semantics.
func (ix *Index) CandidatesOfSet(presentValues []uint64, fn func(other int32)) {
	ix.CandidatesOfSignature(ix.scheme.Sign(presentValues, ix.sigBuf), fn)
}

// CandidatesOfSignature reports the build-phase items colliding with a
// precomputed signature, band by band, each bucket in ascending ID
// order: QueryInsert's reference. The frozen layout keeps no band keys,
// so a frozen index cannot answer it.
func (ix *Index) CandidatesOfSignature(sig []uint64, fn func(other int32)) {
	if len(sig) != ix.params.SignatureLen() {
		panic("lsh: CandidatesOfSignature signature length mismatch")
	}
	if ix.frozen != nil {
		panic("lsh: CandidatesOfSignature on a frozen index")
	}
	if ix.runs == nil {
		return // nothing inserted yet (build storage is lazy)
	}
	for b := 0; b < ix.params.Bands; b++ {
		for _, other := range ix.buildBucket(b, ix.bandKey(sig, b)) {
			fn(other)
		}
	}
}

// bandKeysOf signs sets through ix's scheme into a SignAll key arena,
// keys[item·Bands+band].
func bandKeysOf(ix *Index, sets [][]uint64) []uint64 {
	return SignAll(ix.Params(), len(sets), 1, setSigner(ix, sets), nil)
}

// bruteCandidates lists what Candidates(item) must report, by brute
// force: band by band, every inserted item whose key in that band is
// item's, in ascending ID order.
func bruteCandidates(keys []uint64, bands int, inserted []bool, item int) []int32 {
	var out []int32
	for b := 0; b < bands; b++ {
		for other, ok := range inserted {
			if ok && keys[other*bands+b] == keys[item*bands+b] {
				out = append(out, int32(other))
			}
		}
	}
	return out
}

// assertBuildPhase checks the unfrozen index's Candidates and
// CandidatesBatch for every item against bruteCandidates (nothing for
// an item never inserted).
func assertBuildPhase(t *testing.T, ix *Index, keys []uint64, inserted []bool) {
	t.Helper()
	if ix.Frozen() {
		t.Fatal("index frozen before the build-phase check")
	}
	bands := ix.Params().Bands
	block := make([]int32, len(inserted))
	batch := make([][]int32, len(inserted))
	for i := range inserted {
		block[i] = int32(i)
	}
	ix.CandidatesBatch(block, func(pos int, bucket []int32, _ int32) {
		batch[pos] = append(batch[pos], bucket...)
	})
	for i, ok := range inserted {
		var want []int32
		if ok {
			want = bruteCandidates(keys, bands, inserted, i)
		}
		if got := collectCandidates(ix, int32(i)); !reflect.DeepEqual(got, want) {
			t.Fatalf("item %d: Candidates %v, brute force %v", i, got, want)
		}
		if !reflect.DeepEqual(batch[i], want) {
			t.Fatalf("item %d: CandidatesBatch %v, brute force %v", i, batch[i], want)
		}
	}
}

// assertFreezeMatchesBuildFrozen freezes ix, which holds every item of
// [0, n) under keys, and compares the layout byte for byte with
// BuildFrozen over the same keys.
func assertFreezeMatchesBuildFrozen(t *testing.T, ix *Index, keys []uint64, n int) {
	t.Helper()
	ix.Freeze()
	ref := mustIndex(t, ix.Params(), 1, n)
	if err := ref.BuildFrozen(keys, n, 2); err != nil {
		t.Fatal(err)
	}
	assertFrozenIdentical(t, ref, ix)
}

// TestBuildPhaseRunGrowsPastThousand files 1,100 identical sets, with a
// distinct set between each pair, so every band's shared run doubles
// past 1,024 members while the singleton runs keep landing between its
// moves in the arena.
func TestBuildPhaseRunGrowsPastThousand(t *testing.T) {
	const shared = 1100
	p := Params{Bands: 3, Rows: 2}
	ix := mustIndex(t, p, 5, 0)
	sets := make([][]uint64, 2*shared)
	for i := range sets {
		if i%2 == 0 {
			sets[i] = []uint64{1, 2, 3, 4, 5}
		} else {
			sets[i] = []uint64{uint64(1000 + 3*i), uint64(1001 + 3*i), uint64(1002 + 3*i)}
		}
	}
	inserted := make([]bool, len(sets))
	for i, s := range sets {
		if err := ix.Insert(int32(i), s); err != nil {
			t.Fatal(err)
		}
		inserted[i] = true
	}
	if st := ix.Stats(); st.MaxBucketLen < shared {
		t.Fatalf("largest bucket holds %d items, want ≥ %d", st.MaxBucketLen, shared)
	}
	keys := bandKeysOf(ix, sets)
	assertBuildPhase(t, ix, keys, inserted)
	assertFreezeMatchesBuildFrozen(t, ix, keys, len(sets))
}

// TestBuildPhaseTableDoubles checks every query right after the insert
// that doubles band 0's key table, then again once all items are in.
func TestBuildPhaseTableDoubles(t *testing.T) {
	p := Params{Bands: 4, Rows: 2}
	ix := mustIndex(t, p, 9, 0)
	sets := testSets(400, 21)
	keys := bandKeysOf(ix, sets)
	inserted := make([]bool, len(sets))
	doubled := false
	for i, s := range sets {
		before := len(ix.runs)
		if before > 0 {
			before = len(ix.runs[0].cells)
		}
		if err := ix.Insert(int32(i), s); err != nil {
			t.Fatal(err)
		}
		inserted[i] = true
		if before > 0 && len(ix.runs[0].cells) == 2*before && !doubled {
			doubled = true
			assertBuildPhase(t, ix, keys, inserted)
		}
	}
	if !doubled {
		t.Fatalf("band 0's table never doubled (%d cells)", len(ix.runs[0].cells))
	}
	assertBuildPhase(t, ix, keys, inserted)
	assertFreezeMatchesBuildFrozen(t, ix, keys, len(sets))
}

// TestBuildPhaseOutOfOrderInserts files a shuffled permutation of the
// items: runs must still list ascending IDs at every step, and Freeze
// must not depend on the insertion order.
func TestBuildPhaseOutOfOrderInserts(t *testing.T) {
	p := Params{Bands: 5, Rows: 2}
	ix := mustIndex(t, p, 3, 0)
	sets := testSets(300, 8)
	keys := bandKeysOf(ix, sets)
	inserted := make([]bool, len(sets))
	for step, i := range rand.New(rand.NewSource(4)).Perm(len(sets)) {
		if err := ix.Insert(int32(i), sets[i]); err != nil {
			t.Fatal(err)
		}
		inserted[i] = true
		if step == len(sets)/2 {
			assertBuildPhase(t, ix, keys, inserted)
		}
	}
	assertBuildPhase(t, ix, keys, inserted)
	assertFreezeMatchesBuildFrozen(t, ix, keys, len(sets))
}

// TestQueryInsertReportsBucketsBeforeFiling pins QueryInsert against
// CandidatesOfSignature followed by InsertSignature on a twin index,
// and checks that a rejected call leaves the index unchanged.
func TestQueryInsertReportsBucketsBeforeFiling(t *testing.T) {
	p := Params{Bands: 6, Rows: 2}
	ix := mustIndex(t, p, 7, 0)
	twin := mustIndex(t, p, 7, 0)
	sig := make([]uint64, p.SignatureLen())
	for i, s := range testSets(250, 13) {
		ix.Scheme().Sign(s, sig)
		var want, got []int32
		twin.CandidatesOfSignature(sig, func(o int32) { want = append(want, o) })
		if err := twin.InsertSignature(int32(i), sig); err != nil {
			t.Fatal(err)
		}
		if err := ix.QueryInsert(int32(i), sig, func(bucket []int32) { got = append(got, bucket...) }); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("item %d: QueryInsert reported %v, CandidatesOfSignature %v", i, got, want)
		}
	}
	before := ix.Stats()
	called := false
	for _, bad := range []struct {
		item int32
		sig  []uint64
	}{{-1, sig}, {3, sig}, {300, sig[:1]}} {
		if err := ix.QueryInsert(bad.item, bad.sig, func([]int32) { called = true }); err == nil {
			t.Fatalf("QueryInsert(%d, %d-long signature) accepted", bad.item, len(bad.sig))
		}
	}
	if called || ix.Stats() != before || ix.NumInserted() != 250 {
		t.Fatalf("rejected calls changed the index: fn called %v, stats %+v → %+v", called, before, ix.Stats())
	}
}

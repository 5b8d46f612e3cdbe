package lsh

import (
	"reflect"
	"testing"
)

// TestSignAllMatchesInsertKeys pins the arena contents: SignAll must
// compute, item-major, exactly the band keys a BandTable's Probe of
// each item's signature looks up, independent of the worker count.
func TestSignAllMatchesInsertKeys(t *testing.T) {
	const n = 150
	p := Params{Bands: 10, Rows: 3}
	sets := testSets(n, 21)
	scheme := testScheme(p, 13)
	bt := mustBandTable(t, p)
	want := make([]uint64, 0, n*p.Bands)
	sig := make([]uint64, p.SignatureLen())
	for _, s := range sets {
		if err := bt.Probe(scheme.Sign(s, sig), nil); err != nil {
			t.Fatal(err)
		}
		want = append(want, bt.keys...)
	}
	for _, workers := range []int{1, 3, 8} {
		got := SignAll(p, n, workers, setSigner(scheme, sets), nil)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("workers=%d: SignAll keys differ from the per-item band keys", workers)
		}
	}
}

// TestSignAllConcurrentMemo exercises the parallel signing path the
// accelerator uses — a shared, pre-filled memo read by every worker —
// under the race detector, and checks the keys are identical to
// direct serial signing. This is the concurrent-signing regression
// test for the shared-sigBuf hazard: the parallel path must share no
// signing scratch.
func TestSignAllConcurrentMemo(t *testing.T) {
	const n, maxVal = 400, 64
	p := Params{Bands: 8, Rows: 4}
	sets := testSets(n, 77)
	for i := range sets {
		for j := range sets[i] {
			sets[i][j] %= maxVal // keep IDs inside the memo table
		}
	}
	scheme := testScheme(p, 41)
	memo := scheme.NewMemo(maxVal)
	memo.Fill(4)

	serial := SignAll(p, n, 1, func() SignFunc {
		return func(item int32, sig []uint64) { scheme.Sign(sets[item], sig) }
	}, nil)
	parallel := SignAll(p, n, 8, func() SignFunc {
		return func(item int32, sig []uint64) { memo.Sign(sets[item], sig) }
	}, nil)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("memoized parallel keys differ from direct serial keys")
	}
}

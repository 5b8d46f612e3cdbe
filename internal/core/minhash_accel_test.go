package core

import (
	"math"
	"slices"
	"testing"

	"lshcluster/internal/dataset"
	"lshcluster/internal/lsh"
)

// memoGateDataset returns n items of m attributes whose values cycle
// through 1…maxVal, so the largest value ID is maxVal.
func memoGateDataset(t *testing.T, n, m int, maxVal dataset.Value) *dataset.Dataset {
	t.Helper()
	names := make([]string, m)
	for j := range names {
		names[j] = string(rune('a' + j))
	}
	values := make([]dataset.Value, n*m)
	for i := range values {
		values[i] = 1 + dataset.Value(i)%maxVal
	}
	ds, err := dataset.New(names, values, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestMinHashMemoGate pins when the accelerator signs through the
// hash-column memo: values must repeat (memoMinReuse) and the column
// table must fit in the band-key arena, (maxVal+1)·Rows ≤ n. Bulk
// signing releases the memo, and its arena equals lsh.SignAll's with a
// direct Scheme.Sign signer whether the memo was on or off.
func TestMinHashMemoGate(t *testing.T) {
	for _, tc := range []struct {
		name   string
		n, m   int
		maxVal dataset.Value
		p      lsh.Params
		memo   bool
	}{
		// 200 values × 5 rows = 1,000 = n: exactly at the arena bound.
		{"dense", 1000, 6, 199, lsh.Params{Bands: 4, Rows: 5}, true},
		// 201 values × 5 rows = 1,005 > n, though each value recurs ~30 times.
		{"past-arena", 1000, 6, 200, lsh.Params{Bands: 4, Rows: 5}, false},
		// 400 values × 2 rows fits the arena, but each value recurs 2.5 times.
		{"low-reuse", 1000, 1, 399, lsh.Params{Bands: 3, Rows: 2}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ds := memoGateDataset(t, tc.n, tc.m, tc.maxVal)
			a, err := NewMinHashAccelerator(ds, tc.p, 17)
			if err != nil {
				t.Fatal(err)
			}
			if err := a.Reset(8); err != nil {
				t.Fatal(err)
			}
			if got := a.memo != nil; got != tc.memo {
				t.Fatalf("memo enabled = %v, want %v", got, tc.memo)
			}
			if err := a.SignAll(2, nil); err != nil {
				t.Fatal(err)
			}
			if a.memo != nil {
				t.Fatal("memo still held after SignAll")
			}
			scheme := a.scheme
			want := lsh.SignAll(tc.p, tc.n, 1, func() lsh.SignFunc {
				var set []uint64
				return func(item int32, sig []uint64) {
					set = ds.PresentValues(int(item), set[:0])
					scheme.Sign(set, sig)
				}
			}, nil)
			if !slices.Equal(a.presigned, want) {
				t.Fatal("presigned arena differs from direct signing")
			}
		})
	}
}

// TestMinHashAcceleratorRejectsWrappingBanding: a banding whose
// Bands·Rows wraps around an int is refused when the accelerator is
// made, before any signature buffer is sized from it.
func TestMinHashAcceleratorRejectsWrappingBanding(t *testing.T) {
	ds := memoGateDataset(t, 10, 2, 5)
	const big = math.MaxInt>>1 + 1 // 1<<62 on 64-bit platforms; ×4 wraps to 0
	for _, p := range []lsh.Params{{Bands: big, Rows: 4}, {Bands: math.MaxInt, Rows: 2}} {
		if _, err := NewMinHashAccelerator(ds, p, 1); err == nil {
			t.Errorf("NewMinHashAccelerator(%d bands, %d rows) succeeded, want error", p.Bands, p.Rows)
		}
	}
}

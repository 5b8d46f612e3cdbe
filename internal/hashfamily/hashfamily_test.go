package hashfamily

import (
	"math/big"
	"testing"
	"testing/quick"
)

func TestMulMod61AgainstBig(t *testing.T) {
	p := new(big.Int).SetUint64(MersennePrime61)
	check := func(a, b uint64) bool {
		a %= MersennePrime61
		b %= MersennePrime61
		got := MulMod61(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, p)
		return got == want.Uint64()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestMulMod61Edges(t *testing.T) {
	p := MersennePrime61
	cases := []struct {
		a, b, want uint64
	}{
		{0, 0, 0},
		{1, 1, 1},
		{p - 1, 1, p - 1},
		{p - 1, p - 1, 1}, // (−1)·(−1) ≡ 1
		{2, p - 1, p - 2}, // 2·(−1) ≡ −2
	}
	for _, c := range cases {
		if got := MulMod61(c.a, c.b); got != c.want {
			t.Errorf("MulMod61(%d,%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestAddMod61(t *testing.T) {
	p := MersennePrime61
	if got := AddMod61(p-1, 1); got != 0 {
		t.Errorf("AddMod61(p-1,1) = %d, want 0", got)
	}
	if got := AddMod61(p-1, p-1); got != p-2 {
		t.Errorf("AddMod61(p-1,p-1) = %d, want %d", got, p-2)
	}
	if got := AddMod61(0, 0); got != 0 {
		t.Errorf("AddMod61(0,0) = %d, want 0", got)
	}
}

// TestMulAddMod61 pins the fused multiply-add against big-integer
// arithmetic and against AddMod61(MulMod61(a, x), b), on random inputs
// below the prime and on the edges where a partial sum lands on or
// next to a multiple of the prime.
func TestMulAddMod61(t *testing.T) {
	p := MersennePrime61
	bp := new(big.Int).SetUint64(p)
	agree := func(a, x, b uint64) bool {
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(x))
		want.Add(want, new(big.Int).SetUint64(b))
		want.Mod(want, bp)
		got := MulAddMod61(a, x, b)
		return got == want.Uint64() && got == AddMod61(MulMod61(a, x), b)
	}
	check := func(a, x, b uint64) bool { return agree(a%p, x%p, b%p) }
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
	edges := []uint64{0, 1, 2, 7, 8, 1 << 58, 1<<60 - 1, 1 << 60, p - 8, p - 2, p - 1}
	for _, a := range edges {
		for _, x := range edges {
			for _, b := range edges {
				if !agree(a, x, b) {
					t.Errorf("MulAddMod61(%d, %d, %d) = %d, want %d", a, x, b,
						MulAddMod61(a, x, b), AddMod61(MulMod61(a, x), b))
				}
			}
		}
	}
}

func TestFuncHashInRange(t *testing.T) {
	fam := New(16, 42)
	check := func(x uint64, i uint8) bool {
		f := fam.At(int(i) % fam.Size())
		return f.Hash(x) < MersennePrime61
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFamilyDeterminism(t *testing.T) {
	a := New(32, 7)
	b := New(32, 7)
	for i := 0; i < 32; i++ {
		if a.At(i) != b.At(i) {
			t.Fatalf("function %d differs across identically seeded families", i)
		}
	}
	c := New(32, 8)
	same := 0
	for i := 0; i < 32; i++ {
		if a.At(i) == c.At(i) {
			same++
		}
	}
	if same == 32 {
		t.Fatal("families with different seeds are identical")
	}
}

func TestFamilyMultiplierNonZero(t *testing.T) {
	fam := New(256, 99)
	for i := 0; i < fam.Size(); i++ {
		if fam.At(i).A == 0 {
			t.Fatalf("function %d has zero multiplier", i)
		}
		if fam.At(i).A >= MersennePrime61 {
			t.Fatalf("function %d multiplier out of range", i)
		}
		if fam.At(i).B >= MersennePrime61 {
			t.Fatalf("function %d offset out of range", i)
		}
	}
}

func TestHashAllMatchesAt(t *testing.T) {
	fam := New(20, 123)
	dst := make([]uint64, 20)
	for x := uint64(0); x < 100; x++ {
		fam.HashAll(x*2654435761, dst)
		for i := range dst {
			if want := fam.At(i).Hash(x * 2654435761); dst[i] != want {
				t.Fatalf("HashAll[%d](%d) = %d, want %d", i, x, dst[i], want)
			}
		}
	}
}

func TestHashAllLengthPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong dst length")
		}
	}()
	New(4, 1).HashAll(10, make([]uint64, 3))
}

func TestNewNegativeSize(t *testing.T) {
	if fam := New(-3, 1); fam.Size() != 0 {
		t.Fatalf("Size = %d, want 0", fam.Size())
	}
}

// TestUniformity checks that a single hash function spreads sequential keys
// roughly uniformly over a small number of buckets. The tolerance is loose:
// this is a smoke test against catastrophic structure, not a chi-square test.
func TestUniformity(t *testing.T) {
	fam := New(1, 2024)
	f := fam.At(0)
	const buckets = 16
	const n = 1 << 14
	var counts [buckets]int
	for x := uint64(0); x < n; x++ {
		counts[f.Hash(x)%buckets]++
	}
	want := n / buckets
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("bucket %d holds %d keys, expected near %d", i, c, want)
		}
	}
}

func TestMix64Distinct(t *testing.T) {
	seen := make(map[uint64]uint64, 4096)
	for x := uint64(0); x < 4096; x++ {
		h := Mix64(x)
		if prev, dup := seen[h]; dup {
			t.Fatalf("Mix64 collision between %d and %d", prev, x)
		}
		seen[h] = x
	}
}

func TestSplitMix64KnownSequence(t *testing.T) {
	// Reference values for seed 0 from the public-domain splitmix64.c.
	want := []uint64{
		0xe220a8397b1dcdaf,
		0x6e789e6aa1b965f4,
		0x06c45d188009454f,
	}
	g := NewSplitMix64(0)
	for i, w := range want {
		if got := g.Next(); got != w {
			t.Fatalf("SplitMix64[%d] = %#x, want %#x", i, got, w)
		}
	}
}

func BenchmarkHashAll128(b *testing.B) {
	fam := New(128, 1)
	dst := make([]uint64, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fam.HashAll(uint64(i), dst)
	}
}

package lsh

import (
	"math/rand"
	"testing"

	"lshcluster/internal/minhash"
)

// byteAt cycles through the fuzz payload, defaulting to 0 on an empty
// one, so derived inputs are total functions of the corpus entry.
func byteAt(data []byte, i int) byte {
	if len(data) == 0 {
		return 0
	}
	return data[i%len(data)]
}

// fuzzSets derives n value sets from raw fuzz bytes, shaped like
// testSets (small overlapping universes so bucket collisions occur)
// but with sizes, bases and values all under the fuzzer's control.
func fuzzSets(n int, data []byte) [][]uint64 {
	sets := make([][]uint64, n)
	for i := range sets {
		size := 1 + int(byteAt(data, i*31))%12
		base := uint64(byteAt(data, i*7+1)%8) * 100
		set := make([]uint64, size)
		for j := range set {
			set[j] = base + uint64(byteAt(data, i*13+j*3+2)%40)
		}
		sets[i] = set
	}
	return sets
}

// setSignerFor adapts sets to a SignAll signer through the index
// scheme, as the accelerators do.
func setSignerFor(scheme *minhash.Scheme, sets [][]uint64) func() SignFunc {
	return func() SignFunc {
		return func(item int32, sig []uint64) {
			scheme.Sign(sets[item], sig)
		}
	}
}

// FuzzBuildFrozenIdentity fuzzes the layout identity: for any banding
// shape, item count, scheme seed, signed value sets and worker count,
// building the frozen index directly from the presigned key arena
// (BuildFrozen) must reproduce, byte for byte, the frozen arrays of
// inserting every item — in an order shuffled by the scheme seed — and
// freezing.
func FuzzBuildFrozenIdentity(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint16(17), uint64(7), []byte("seed-corpus"))
	f.Add(uint8(1), uint8(1), uint16(1), uint64(0), []byte{})
	f.Add(uint8(20), uint8(5), uint16(120), uint64(42), []byte{0xff, 0x00, 0x7f})
	f.Add(uint8(8), uint8(4), uint16(100), uint64(3), []byte("collide collide"))
	f.Fuzz(func(t *testing.T, bands, rows uint8, n uint16, seed uint64, data []byte) {
		p := Params{Bands: 1 + int(bands)%12, Rows: 1 + int(rows)%6}
		nn := 1 + int(n)%150
		workers := 1 + int(byteAt(data, 0))%4
		sets := fuzzSets(nn, data)

		ref, err := NewIndex(p, seed, nn)
		if err != nil {
			t.Fatal(err)
		}
		for _, i := range rand.New(rand.NewSource(int64(seed))).Perm(nn) {
			if err := ref.Insert(int32(i), sets[i]); err != nil {
				t.Fatal(err)
			}
		}
		ref.Freeze()

		ix, err := NewIndex(p, seed, nn)
		if err != nil {
			t.Fatal(err)
		}
		keys := SignAll(p, nn, workers, setSignerFor(ix.Scheme(), sets), nil)
		if err := ix.BuildFrozen(keys, nn, workers); err != nil {
			t.Fatal(err)
		}
		assertFrozenIdentical(t, ref, ix)
	})
}

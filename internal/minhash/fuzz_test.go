package minhash

import (
	"encoding/binary"
	"math"
	"testing"
)

// decodeSignSet turns fuzz bytes into a set of at most 200 element IDs.
// Each element starts with a class byte: an ID near 0, an ID at or just
// above memoLimit, an ID whose low 64 bits come from the next eight
// bytes (at or above memoLimit, up to 2^64−1), or a repeat of an
// earlier element. IDs in [256, memoLimit) are never produced, so a
// lazy memo's table stays small.
func decodeSignSet(data []byte) []uint64 {
	var set []uint64
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) > 0 && len(set) < 200 {
		switch class := next(); class % 4 {
		case 0:
			set = append(set, uint64(next()))
		case 1:
			set = append(set, memoLimit+uint64(next()))
		case 2:
			var word [8]byte
			n := copy(word[:], data)
			data = data[n:]
			set = append(set, binary.LittleEndian.Uint64(word[:])|memoLimit)
		default:
			if len(set) == 0 {
				set = append(set, uint64(class))
			} else {
				set = append(set, set[int(next())%len(set)])
			}
		}
	}
	return set
}

// signSetBytes encodes count elements cycling through the four classes
// of decodeSignSet, for seed inputs.
func signSetBytes(count int) []byte {
	var data []byte
	for i := 0; i < count; i++ {
		switch i % 4 {
		case 0:
			data = append(data, 0, byte(i))
		case 1:
			data = append(data, 1, byte(255-i))
		case 2:
			data = append(data, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, byte(0xf8+i%8))
		default:
			data = append(data, 3, byte(i*7))
		}
	}
	return data
}

// FuzzSign checks Scheme.Sign, a lazy memo and a partly filled memo
// against a naive reference: for each function, the plain minimum of
// Func.Hash over the set, and EmptySlot for an empty set. Sets cross the
// 64-element chunk of the function-major loop, repeat elements, and mix
// IDs near 0, IDs at or above memoLimit (hashed uncached) and IDs up to
// 2^64−1.
func FuzzSign(f *testing.F) {
	f.Add(uint8(99), uint64(7), uint8(10), []byte{})
	f.Add(uint8(0), uint64(1), uint8(0), signSetBytes(1))
	f.Add(uint8(29), uint64(2), uint8(40), signSetBytes(63))
	f.Add(uint8(63), uint64(3), uint8(128), signSetBytes(64))
	f.Add(uint8(64), uint64(4), uint8(200), signSetBytes(65))
	f.Add(uint8(129), uint64(5), uint8(255), signSetBytes(129))
	f.Add(uint8(99), uint64(6), uint8(1), signSetBytes(200))
	f.Add(uint8(17), uint64(math.MaxUint64), uint8(3), []byte{2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0, 0, 3, 0})
	f.Fuzz(func(t *testing.T, sigLen uint8, seed uint64, tableLen uint8, data []byte) {
		n := 1 + int(sigLen)%130
		set := decodeSignSet(data)
		s := NewScheme(n, seed)
		want := make([]uint64, n)
		for i := range want {
			want[i] = EmptySlot
			for _, x := range set {
				want[i] = min(want[i], s.fam.At(i).Hash(x))
			}
		}
		filled := s.NewMemo(int(tableLen))
		filled.Fill(2)
		for _, signer := range []struct {
			name string
			sign func(set, dst []uint64) []uint64
		}{
			{"Scheme.Sign", s.Sign},
			{"lazy memo", s.NewMemo(0).Sign},
			{"filled memo", filled.Sign},
		} {
			got := make([]uint64, n)
			for i := range got {
				got[i] = uint64(i) // Sign must overwrite whatever dst held
			}
			signer.sign(set, got)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s, %d elements, signature length %d: position %d = %d, want %d",
						signer.name, len(set), n, i, got[i], want[i])
				}
			}
		}
	})
}

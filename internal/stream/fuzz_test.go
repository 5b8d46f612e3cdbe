package stream

import (
	"math/rand"
	"slices"
	"testing"

	"lshcluster/internal/dataset"
	"lshcluster/internal/kernel"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/minhash"
)

// naiveStream is the reference the Clusterer must reproduce: each band
// a Go map from band key to the IDs filed under it, the shortlist built
// band-major over ascending IDs in first-appearance order, the full
// scan when that shortlist is empty, a plain masked mismatch count, and
// a kmodes.FreqTable for the evolving modes.
type naiveStream struct {
	p       lsh.Params
	scheme  *minhash.Scheme
	k, m    int
	buckets []map[uint64][]int32
	freq    *kmodes.FreqTable
	assign  []int32
	stats   Stats
}

func newNaiveStream(p lsh.Params, seed uint64, modes []dataset.Value, m int) *naiveStream {
	k := len(modes) / m
	r := &naiveStream{
		p:       p,
		scheme:  minhash.NewScheme(p.SignatureLen(), seed),
		k:       k,
		m:       m,
		buckets: make([]map[uint64][]int32, p.Bands),
		freq:    kmodes.NewFreqTable(k, m),
	}
	for b := range r.buckets {
		r.buckets[b] = map[uint64][]int32{}
	}
	for cl := 0; cl < k; cl++ {
		r.freq.SetMode(cl, modes[cl*m:(cl+1)*m])
	}
	return r
}

func (r *naiveStream) add(row []dataset.Value, present []bool) int {
	var values []uint64
	for a, v := range row {
		if present == nil || present[a] {
			values = append(values, uint64(v))
		}
	}
	keys := lsh.SignAll(r.p, 1, 1, func() lsh.SignFunc {
		return func(_ int32, sig []uint64) { r.scheme.Sign(values, sig) }
	}, nil)

	var short []int32
	seen := map[int32]bool{}
	for b, key := range keys {
		for _, other := range r.buckets[b][key] {
			if cl := r.assign[other]; !seen[cl] {
				seen[cl] = true
				short = append(short, cl)
			}
		}
	}
	if len(short) == 0 {
		r.stats.FullScans++
		for cl := 0; cl < r.k; cl++ {
			short = append(short, int32(cl))
		}
	}
	r.stats.CandidatesTotal += int64(len(short))

	best, bestD := -1, r.m+1
	for _, cl := range short {
		mode := r.freq.Mode(int(cl))
		d := 0
		for a := range row {
			if (present == nil || present[a]) && row[a] != mode[a] {
				d++
			}
		}
		r.stats.Comparisons++
		if d < bestD {
			best, bestD = int(cl), d
		}
	}

	item := int32(len(r.assign))
	for b, key := range keys {
		r.buckets[b][key] = append(r.buckets[b][key], item)
	}
	r.assign = append(r.assign, int32(best))
	r.freq.AddMasked(best, row, present)
	r.stats.Items++
	return best
}

// FuzzStreamMatchesNaive checks the streaming clusterer against
// naiveStream over fuzzed banding shapes, seeds, cluster counts and
// presence masks. Each attribute draws from a few values, so many items
// share band keys: buckets grow past several powers of two (and move in
// the arena) while the band tables double mid-stream. The draws can
// also give every attribute the same value range, so that two
// attributes share value IDs (postings keyed by value alone would
// count a match across attributes), and can start every mode alike, so
// that every posting list holds all k clusters and the first fallbacks
// walk the postings at their longest, shorter as the modes part. Every
// Add must pick the reference's cluster; the counters and the final
// modes must match too, and the postings must list exactly the final
// modes.
func FuzzStreamMatchesNaive(f *testing.F) {
	f.Add(uint8(4), uint8(2), uint8(5), uint16(300), uint64(1), []byte("masks"))
	f.Add(uint8(1), uint8(1), uint8(1), uint16(64), uint64(0), []byte{})
	f.Add(uint8(7), uint8(3), uint8(3), uint16(500), uint64(9), []byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add(uint8(2), uint8(1), uint8(6), uint16(450), uint64(42), []byte{0xff})
	// Shared value IDs, fallbacks through the postings.
	f.Add(uint8(4), uint8(2), uint8(7), uint16(400), uint64(5), []byte{2, 3, 0, 1, 1, 1, 2, 0})
	// Modes alike: fallbacks through postings that list every cluster.
	f.Add(uint8(5), uint8(2), uint8(7), uint16(470), uint64(11), []byte{3, 3, 0, 2, 0, 0, 1, 2})
	f.Fuzz(func(t *testing.T, bands, rows, k uint8, n uint16, seed uint64, data []byte) {
		at := func(i int) byte {
			if len(data) == 0 {
				return 1
			}
			return data[i%len(data)]
		}
		p := lsh.Params{Bands: 1 + int(bands)%8, Rows: 1 + int(rows)%4}
		kk := 1 + int(k)%8
		m := 2 + int(at(0))%5
		domain := 2 + int(at(1))%4
		items := 32 + int(n)%480
		shared, alike := at(4)%2 == 1, at(5)%3 == 0
		rng := rand.New(rand.NewSource(int64(seed)))
		value := func(a int) dataset.Value {
			if shared {
				return dataset.Value(rng.Intn(domain))
			}
			return dataset.Value(a*domain + rng.Intn(domain))
		}

		modes := make([]dataset.Value, kk*m)
		for i := range modes {
			if alike && i >= m {
				modes[i] = modes[i%m]
			} else {
				modes[i] = value(i % m)
			}
		}
		c, err := New(Config{Params: p, Seed: seed, InitialModes: modes, NumAttrs: m})
		if err != nil {
			t.Fatal(err)
		}
		c.scalar = at(2)%2 == 1
		ref := newNaiveStream(p, seed, modes, m)

		row := make([]dataset.Value, m)
		mask := make([]bool, m)
		for i := 0; i < items; i++ {
			for a := range row {
				row[a] = value(a)
			}
			present := mask
			if at(3+i)%4 == 0 {
				present = nil
			} else {
				for a := range mask {
					mask[a] = at(5+i*m+a)%3 != 0
				}
			}
			got, err := c.Add(row, present)
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.add(row, present); got != want {
				t.Fatalf("item %d: Add chose cluster %d, reference %d", i, got, want)
			}
		}
		if c.Stats() != ref.stats {
			t.Fatalf("stats %+v, reference %+v", c.Stats(), ref.stats)
		}
		for cl := 0; cl < kk; cl++ {
			got, want := c.Mode(cl), ref.freq.Mode(cl)
			for a := range want {
				if got[a] != want[a] {
					t.Fatalf("cluster %d mode %v, reference %v", cl, got, want)
				}
			}
		}
		assertPostings(t, c.post, ref.freq)
	})
}

// assertPostings checks p against the modes of freq: each attribute's
// list of each value holds exactly the clusters whose mode holds that
// value there, and no other list is filed.
func assertPostings(t *testing.T, p *modePostings, freq *kmodes.FreqTable) {
	t.Helper()
	want := map[uint64][]int32{}
	for cl := 0; cl < p.k; cl++ {
		for a, v := range freq.Mode(cl) {
			want[kernel.PairKey(a, v)] = append(want[kernel.PairKey(a, v)], int32(cl))
		}
	}
	filed := 0
	for _, cell := range p.cells {
		if cell.n == 0 {
			continue
		}
		filed++
		a := int(cell.key >> 32)
		var got []int32
		for cl := cell.head; cl >= 0; cl = p.next[int(cl)*p.m+a] {
			got = append(got, cl)
		}
		slices.Sort(got)
		if w := want[cell.key]; !slices.Equal(got, w) || int(cell.n) != len(w) {
			t.Fatalf("attribute %d value %d lists %v (length %d), the modes %v", a, uint32(cell.key), got, cell.n, w)
		}
	}
	if filed != len(want) {
		t.Fatalf("%d lists filed, the modes hold %d", filed, len(want))
	}
}

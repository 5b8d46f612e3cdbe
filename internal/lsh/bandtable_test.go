package lsh

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lshcluster/internal/minhash"
)

func mustBandTable(t testing.TB, p Params) *BandTable {
	t.Helper()
	bt, err := NewBandTable(p)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// bucketOf returns band b's bucket filed under key: empty when absent,
// and a copy, so it outlives later filing.
func (t *BandTable) bucketOf(b int, key uint64) []int32 {
	tb := &t.tables[b]
	switch c := tb.cells[tb.find(key)]; {
	case c.n == 1:
		return []int32{c.ref}
	case c.n > 1:
		return slices.Clone(t.arena[c.ref : c.ref+c.n])
	}
	return nil
}

// probeAll returns the buckets a Probe of sig reports, concatenated.
func probeAll(t testing.TB, bt *BandTable, sig []uint64) []int32 {
	t.Helper()
	var got []int32
	if err := bt.Probe(sig, func(bucket []int32) { got = append(got, bucket...) }); err != nil {
		t.Fatal(err)
	}
	return got
}

// fileSet files v under set's band keys, signed through scheme: a Probe
// without a callback, then a File.
func fileSet(bt *BandTable, scheme *minhash.Scheme, v int32, set []uint64) error {
	if err := bt.Probe(scheme.Sign(set, make([]uint64, bt.params.SignatureLen())), nil); err != nil {
		return err
	}
	bt.File(v)
	return nil
}

// fileItems files the items of order, signed from sets through scheme,
// into bt, each item's ID as its value.
func fileItems(t testing.TB, bt *BandTable, scheme *minhash.Scheme, sets [][]uint64, order []int) {
	t.Helper()
	for _, i := range order {
		if err := fileSet(bt, scheme, int32(i), sets[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// bandKeysOf signs sets through testScheme(p, seed) into a SignAll
// key arena, keys[item·Bands+band].
func bandKeysOf(p Params, seed uint64, sets [][]uint64) []uint64 {
	return SignAll(p, len(sets), 1, setSigner(testScheme(p, seed), sets), nil)
}

// bruteBuckets lists item's bucket in every band, by brute force: the
// items of [0, n) whose key in that band is item's, in ascending ID
// order.
func bruteBuckets(keys []uint64, bands, n, item int) [][]int32 {
	out := make([][]int32, bands)
	for b := range out {
		for other := 0; other < n; other++ {
			if keys[other*bands+b] == keys[item*bands+b] {
				out[b] = append(out[b], int32(other))
			}
		}
	}
	return out
}

// bruteCandidates lists what Candidates(item) must report on the
// index of items [0, n), by brute force: item itself, then band by
// band each of its buckets that holds another item.
func bruteCandidates(keys []uint64, bands, n, item int) []int32 {
	out := []int32{int32(item)}
	for _, bucket := range bruteBuckets(keys, bands, n, item) {
		if len(bucket) > 1 {
			out = append(out, bucket...)
		}
	}
	return out
}

// bandTableStats counts bt's buckets the way Stats counts the frozen
// layout of items items: every filed bucket, those of one value
// included.
func bandTableStats(bt *BandTable, items int) Stats {
	st := Stats{Bands: bt.params.Bands, Items: items}
	singles, total := 0, 0
	for _, tb := range bt.tables {
		for _, c := range tb.cells {
			if c.n == 0 {
				continue
			}
			st.Buckets++
			total += int(c.n)
			st.MaxBucketLen = max(st.MaxBucketLen, int(c.n))
			if c.n == 1 {
				singles++
			}
		}
	}
	if st.Buckets > 0 {
		st.MeanBucketLen = float64(total) / float64(st.Buckets)
		st.SingletonShare = float64(singles) / float64(st.Buckets)
	}
	return st
}

// assertBandTableFiled checks bt, into which the items of order were
// filed in that order, each item's ID as its value, by brute force:
// under each band key of every filed item it holds the filed items
// with that key, in filing order.
func assertBandTableFiled(t *testing.T, bt *BandTable, keys []uint64, order []int) {
	t.Helper()
	bands := bt.params.Bands
	for _, i := range order {
		for b := 0; b < bands; b++ {
			var want []int32
			for _, j := range order {
				if keys[j*bands+b] == keys[i*bands+b] {
					want = append(want, int32(j))
				}
			}
			if got := bt.bucketOf(b, keys[i*bands+b]); !slices.Equal(got, want) {
				t.Fatalf("item %d band %d: band table files %v, brute force %v", i, b, got, want)
			}
		}
	}
}

// assertBandTableMatchesFrozen checks the band table bt, into which
// the items of order were filed in that order, each item's ID as its
// value, against the frozen index fz over the same band keys: under
// each key of every filed item, bt holds exactly the items of the
// item's frozen bucket, or only the item itself where its frozen slot
// is −1, in the order they were filed. Filed in ascending order, that
// is the frozen bucket element for element.
func assertBandTableMatchesFrozen(t testing.TB, bt *BandTable, fz *Index, keys []uint64, order []int) {
	t.Helper()
	bands := fz.Params().Bands
	rank := make([]int, fz.NumInserted())
	for r, i := range order {
		rank[i] = r
	}
	for _, i := range order {
		for b := 0; b < bands; b++ {
			want := []int32{int32(i)}
			if slot := fz.frozen.slots[i*bands+b]; slot >= 0 {
				want = slices.Clone(fz.frozen.items[fz.frozen.offsets[slot]:fz.frozen.offsets[slot+1]])
				slices.SortStableFunc(want, func(x, y int32) int { return rank[x] - rank[y] })
			}
			if got := bt.bucketOf(b, keys[i*bands+b]); !slices.Equal(got, want) {
				t.Fatalf("item %d band %d: band table files %v, frozen bucket in filing order %v", i, b, got, want)
			}
		}
	}
}

// assertMatchesBuildFrozen builds the frozen index of keys, whose items
// [0, n) bt holds in ascending order, and checks bt's buckets against
// it.
func assertMatchesBuildFrozen(t *testing.T, bt *BandTable, keys []uint64, n int) {
	t.Helper()
	fz, err := BuildFrozen(bt.params, keys, n, 2)
	if err != nil {
		t.Fatal(err)
	}
	assertBandTableMatchesFrozen(t, bt, fz, keys, span(0, n))
}

// TestBuildPhaseRunGrowsPastThousand files 1,100 identical sets, with a
// distinct set between each pair, so every band's shared run doubles
// past 1,024 values while the runs of two keep landing between its
// moves in the arena.
func TestBuildPhaseRunGrowsPastThousand(t *testing.T) {
	const shared = 1100
	p := Params{Bands: 3, Rows: 2}
	bt := mustBandTable(t, p)
	sets := make([][]uint64, 2*shared)
	for i := range sets {
		if i%2 == 0 {
			sets[i] = []uint64{1, 2, 3, 4, 5}
		} else {
			sets[i] = []uint64{uint64(1000 + 3*i), uint64(1001 + 3*i), uint64(1002 + 3*i)}
		}
	}
	fileItems(t, bt, testScheme(p, 5), sets, span(0, len(sets)))
	if st := bandTableStats(bt, len(sets)); st.MaxBucketLen < shared {
		t.Fatalf("largest bucket holds %d values, want ≥ %d", st.MaxBucketLen, shared)
	}
	keys := bandKeysOf(p, 5, sets)
	assertBandTableFiled(t, bt, keys, span(0, len(sets)))
	assertMatchesBuildFrozen(t, bt, keys, len(sets))
}

// TestBuildPhaseTableDoubles checks every bucket right after the File
// that doubles band 0's table, then again once all items are in.
func TestBuildPhaseTableDoubles(t *testing.T) {
	p := Params{Bands: 4, Rows: 2}
	scheme := testScheme(p, 9)
	bt := mustBandTable(t, p)
	sets := testSets(400, 21)
	keys := bandKeysOf(p, 9, sets)
	doubled := false
	for i, s := range sets {
		before := len(bt.tables[0].cells)
		if err := fileSet(bt, scheme, int32(i), s); err != nil {
			t.Fatal(err)
		}
		if len(bt.tables[0].cells) == 2*before && !doubled {
			doubled = true
			assertBandTableFiled(t, bt, keys, span(0, i+1))
		}
	}
	if !doubled {
		t.Fatalf("band 0's table never doubled (%d cells)", len(bt.tables[0].cells))
	}
	assertBandTableFiled(t, bt, keys, span(0, len(sets)))
	assertMatchesBuildFrozen(t, bt, keys, len(sets))
}

// TestBuildPhaseOutOfOrderInserts files a shuffled permutation of the
// items, each as its own value: halfway, every bucket must list the
// filed items that hold its key in the order they were filed, and at
// the end, the frozen bucket's items in that order.
func TestBuildPhaseOutOfOrderInserts(t *testing.T) {
	const n = 300
	p := Params{Bands: 5, Rows: 2}
	sets := testSets(n, 8)
	fz := buildFrozenIndex(t, p, 3, sets, 2)
	keys := bandKeysOf(p, 3, sets)
	scheme := testScheme(p, 3)
	bt := mustBandTable(t, p)
	order := rand.New(rand.NewSource(4)).Perm(n)
	fileItems(t, bt, scheme, sets, order[:n/2])
	assertBandTableFiled(t, bt, keys, order[:n/2])
	fileItems(t, bt, scheme, sets, order[n/2:])
	assertBandTableMatchesFrozen(t, bt, fz, keys, order)
}

// TestDoubleInsertRejected files every item's value a second time
// under the same keys: a bucket already holding the value refuses it,
// whether it keeps its one value inline or its values in a run, so the
// table is left as it was.
func TestDoubleInsertRejected(t *testing.T) {
	p := Params{Bands: 6, Rows: 2}
	scheme := testScheme(p, 7)
	bt := mustBandTable(t, p)
	sets := testSets(250, 13)
	for i, s := range sets {
		if err := fileSet(bt, scheme, int32(i%20), s); err != nil {
			t.Fatal(err)
		}
	}
	before := bandTableStats(bt, 0)
	for i, s := range sets {
		if err := fileSet(bt, scheme, int32(i%20), s); err != nil {
			t.Fatal(err)
		}
	}
	if after := bandTableStats(bt, 0); after != before || before.MaxBucketLen < 2 || before.SingletonShare == 0 {
		t.Fatalf("refiling held values changed the table: stats %+v → %+v", before, after)
	}
}

// TestProbeReportsBucketsBeforeFiling pins Probe against the buckets
// filed under the signature's band keys, looked up before the File that
// follows it, and checks that a rejected Probe leaves the table
// unchanged and allows no File, even after a successful Probe whose
// File never came.
func TestProbeReportsBucketsBeforeFiling(t *testing.T) {
	p := Params{Bands: 6, Rows: 2}
	scheme := testScheme(p, 7)
	bt := mustBandTable(t, p)
	sig := make([]uint64, p.SignatureLen())
	sets := testSets(250, 13)
	for i, s := range sets {
		scheme.Sign(s, sig)
		var want []int32
		for b := 0; b < p.Bands; b++ {
			want = append(want, bt.bucketOf(b, bandKeyOf(p, sig, b))...)
		}
		if got := probeAll(t, bt, sig); !reflect.DeepEqual(got, want) {
			t.Fatalf("item %d: Probe reported %v, the buckets hold %v", i, got, want)
		}
		bt.File(int32(i % 20))
	}
	// A successful Probe that no File used: the rejected Probes below
	// must still leave nothing to File.
	probeAll(t, bt, sig)
	before := bandTableStats(bt, 0)
	called := false
	if err := bt.Probe(sig[:1], func([]int32) { called = true }); err == nil {
		t.Fatal("Probe of a 1-long signature accepted")
	}
	saved := bt.maxRun
	bt.maxRun = math.MaxInt32/int32(2*p.Bands) + 1
	if err := bt.Probe(sig, func([]int32) { called = true }); err == nil {
		t.Fatal("Probe with no room to file within int32 run offsets accepted")
	}
	bt.maxRun = saved
	if after := bandTableStats(bt, 0); called || after != before {
		t.Fatalf("rejected Probes changed the table: fn called %v, stats %+v → %+v", called, before, after)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("File after a rejected Probe did not panic")
		}
	}()
	bt.File(0)
}

package lsh

import (
	"testing"

	"lshcluster/internal/minhash"
)

// benchSets is a larger testSets variant for construction benchmarks:
// overlapping sets so buckets have realistic occupancy.
func benchSets(n int) [][]uint64 {
	return testSets(n, 12345)
}

// benchCluster is the value a band-table benchmark files for a
// benchSets item: the set's value group, one of the eight ranges
// testSets draws a set from, much as the stream files an item's
// cluster.
func benchCluster(set []uint64) int32 { return int32(set[0] / 100) }

// BenchmarkBuildPhaseInsert measures a band table end to end, as the
// stream files items: per-item signing, then a Probe (without a
// callback) and a File of the item's group, for n items.
func BenchmarkBuildPhaseInsert(b *testing.B) {
	const n = 20000
	p := Params{Bands: 10, Rows: 2}
	sets := benchSets(n)
	scheme := minhash.NewScheme(p.SignatureLen(), 7)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt, err := NewBandTable(p)
		if err != nil {
			b.Fatal(err)
		}
		for _, set := range sets {
			if err := fileSet(bt, scheme, benchCluster(set), set); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuildPhaseFile isolates the filing half of a band table —
// presigned signatures, the stream's Probe (without a callback) and
// File — for n items into tables and an arena that grow from empty.
// The batch path never files into a band table (BuildFrozen).
func BenchmarkBuildPhaseFile(b *testing.B) {
	const n = 20000
	p := Params{Bands: 10, Rows: 2}
	sets := benchSets(n)
	scheme := minhash.NewScheme(p.SignatureLen(), 7)
	sl := p.SignatureLen()
	sigs := make([]uint64, n*sl)
	for item := 0; item < n; item++ {
		scheme.Sign(sets[item], sigs[item*sl:(item+1)*sl])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt, err := NewBandTable(p)
		if err != nil {
			b.Fatal(err)
		}
		for item := 0; item < n; item++ {
			if err := bt.Probe(sigs[item*sl:(item+1)*sl], nil); err != nil {
				b.Fatal(err)
			}
			bt.File(benchCluster(sets[item]))
		}
	}
}

// benchBuildFrozen measures the batch construction pipeline end to
// end — SignAll + BuildFrozen — at the given worker count.
func benchBuildFrozen(b *testing.B, workers int) {
	const n = 20000
	p := Params{Bands: 10, Rows: 2}
	sets := benchSets(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildFrozenIndex(b, p, 7, sets, workers)
	}
}

func BenchmarkBuildFrozenDirect1(b *testing.B) { benchBuildFrozen(b, 1) }
func BenchmarkBuildFrozenDirect4(b *testing.B) { benchBuildFrozen(b, 4) }

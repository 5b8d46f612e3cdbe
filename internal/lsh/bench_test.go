package lsh

import "testing"

// benchSets is a larger testSets variant for construction benchmarks:
// overlapping sets so buckets have realistic occupancy.
func benchSets(n int) [][]uint64 {
	return testSets(n, 12345)
}

// BenchmarkBuildPhaseInsert measures the build phase end to end, as
// the stream files items: per-item signing plus probe-and-file
// (QueryInsert, without a query callback) for n items.
func BenchmarkBuildPhaseInsert(b *testing.B) {
	const n = 20000
	p := Params{Bands: 10, Rows: 2}
	sets := benchSets(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := NewIndex(p, 7)
		if err != nil {
			b.Fatal(err)
		}
		fileItems(b, ix, sets, span(0, n))
	}
}

// BenchmarkBuildPhaseFile isolates the filing half of the build phase
// — presigned signatures, the stream's per-item probe-and-file
// (QueryInsert) without a query callback — for n items into band
// tables and an arena that grow from empty. The batch path never files
// into the build phase (BuildFrozen).
func BenchmarkBuildPhaseFile(b *testing.B) {
	const n = 20000
	p := Params{Bands: 10, Rows: 2}
	sets := benchSets(n)
	seedIx, err := NewIndex(p, 7)
	if err != nil {
		b.Fatal(err)
	}
	sl := p.SignatureLen()
	sigs := make([]uint64, n*sl)
	for item := 0; item < n; item++ {
		seedIx.Scheme().Sign(sets[item], sigs[item*sl:(item+1)*sl])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := NewIndex(p, 7)
		if err != nil {
			b.Fatal(err)
		}
		for item := 0; item < n; item++ {
			if err := ix.QueryInsert(int32(item), sigs[item*sl:(item+1)*sl], nil); err != nil {
				b.Fatal(err)
			}
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

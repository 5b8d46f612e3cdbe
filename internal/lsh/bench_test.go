package lsh

import "testing"

// benchSets is a larger testSets variant for construction benchmarks:
// overlapping sets so buckets have realistic occupancy.
func benchSets(n int) [][]uint64 {
	return testSets(n, 12345)
}

// BenchmarkBuildPhaseInsert measures the build phase end to end:
// per-item signing plus filing (Insert) for n items.
func BenchmarkBuildPhaseInsert(b *testing.B) {
	const n = 20000
	p := Params{Bands: 10, Rows: 2}
	sets := benchSets(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := NewIndex(p, 7, n)
		if err != nil {
			b.Fatal(err)
		}
		for item := 0; item < n; item++ {
			if err := ix.Insert(int32(item), sets[item]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBuildPhaseFile isolates the filing half of the build phase
// — presigned signatures, InsertSignature only, the stream's per-item
// probe-and-file (QueryInsert) without a query callback — for n items
// into band tables and an arena pre-sized from the n capacity hint.
// The batch path never files into the build phase (BuildFrozen).
func BenchmarkBuildPhaseFile(b *testing.B) {
	const n = 20000
	p := Params{Bands: 10, Rows: 2}
	sets := benchSets(n)
	seedIx, err := NewIndex(p, 7, n)
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
		ix, err := NewIndex(p, 7, n)
		if err != nil {
			b.Fatal(err)
		}
		for item := 0; item < n; item++ {
			if err := ix.InsertSignature(int32(item), sigs[item*sl:(item+1)*sl]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchBuildFrozen measures the batch construction pipeline end to
// end — SignAll + BuildFrozen — against the serial oracle of per-item
// Insert followed by Freeze, at the given worker count.
func benchBuildFrozen(b *testing.B, workers int, direct bool) {
	const n = 20000
	p := Params{Bands: 10, Rows: 2}
	sets := benchSets(n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := NewIndex(p, 7, n)
		if err != nil {
			b.Fatal(err)
		}
		if direct {
			keys := SignAll(p, n, workers, setSigner(ix, sets), nil)
			if err := ix.BuildFrozen(keys, n, workers); err != nil {
				b.Fatal(err)
			}
		} else {
			for item := 0; item < n; item++ {
				if err := ix.Insert(int32(item), sets[item]); err != nil {
					b.Fatal(err)
				}
			}
			ix.Freeze()
		}
	}
}

func BenchmarkBuildInsertFreezeSerial(b *testing.B) { benchBuildFrozen(b, 1, false) }
func BenchmarkBuildFrozenDirect1(b *testing.B)      { benchBuildFrozen(b, 1, true) }
func BenchmarkBuildFrozenDirect4(b *testing.B)      { benchBuildFrozen(b, 4, true) }

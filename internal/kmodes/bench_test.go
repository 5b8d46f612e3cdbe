package kmodes

import (
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
)

func benchSpace(b *testing.B, n, k, m int) (*Space, *dataset.Dataset) {
	b.Helper()
	ds, err := datagen.Generate(datagen.Config{
		Items: n, Clusters: k, Attrs: m, Domain: 40000, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSpace(ds, Config{K: k, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return s, ds
}

func BenchmarkDissimilarity100Attrs(b *testing.B) {
	s, _ := benchSpace(b, 500, 50, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Dissimilarity(i%500, i%50)
	}
}

func BenchmarkBoundedDissimilarity100Attrs(b *testing.B) {
	s, _ := benchSpace(b, 500, 50, 100)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.BoundedDissimilarity(i%500, i%50, 10)
	}
}

func BenchmarkRecomputeCentroids(b *testing.B) {
	s, ds := benchSpace(b, 2000, 200, 50)
	assign := make([]int32, ds.NumItems())
	for i := range assign {
		assign[i] = int32(i % 200)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RecomputeCentroids(assign)
	}
}

func BenchmarkFreqTableMove(b *testing.B) { benchFreqTableMove(b, 1000, 100, 50) }

// BenchmarkFreqTableMoveFewClusters moves items between k = 10 clusters
// of 10,000 members over a domain of 40,000, where each cell holds
// thousands of distinct values: an update must not cost in proportion
// to them.
func BenchmarkFreqTableMoveFewClusters(b *testing.B) { benchFreqTableMove(b, 100_000, 10, 24) }

func benchFreqTableMove(b *testing.B, n, k, m int) {
	ds, err := datagen.Generate(datagen.Config{
		Items: n, Clusters: k, Attrs: m, Domain: 40000, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	ft := NewFreqTable(k, m)
	for i := 0; i < n; i++ {
		ft.Add(i%k, ds.Row(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item := i % n
		from := item % k
		to := (item + 1) % k
		ft.Move(from, to, ds.Row(item))
		ft.Move(to, from, ds.Row(item))
	}
}

// BenchmarkFreqTableBuild prices BeginIncremental's table build, one
// Add per item, on the kmodes-cold shape: 100k items × 24 attributes
// over a domain of 200, k = 1000, from the exact first assignment.
func BenchmarkFreqTableBuild(b *testing.B) {
	ds, err := datagen.Generate(datagen.Config{
		Items: 100_000, Clusters: 1000, Attrs: 24, Domain: 200, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSpace(ds, Config{K: 1000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	assign := make([]int32, ds.NumItems())
	s.NearestScan()(0, len(assign), assign)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BeginIncremental(assign, false)
	}
}

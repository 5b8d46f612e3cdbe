package stream

import (
	"testing"

	"lshcluster/internal/core"
	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
)

// BenchmarkStreamAdd measures Add at the shape of perfbench's
// stream-ingest workload, on fewer items: 1,000 modes trained by batch
// MH-K-Modes on 20,000 items of 24 attributes over a domain of 20,000,
// then the next 20,000 items added, one at a time, to a clusterer built
// from the trained model (20 bands of 3 rows) afresh in each op. It
// reports the mean time per Add and the share of Adds whose shortlist
// is empty, which take the fallback.
func BenchmarkStreamAdd(b *testing.B) {
	const train, adds, k, m = 20_000, 20_000, 1000, 24
	p := lsh.Params{Bands: 20, Rows: 3}
	all, err := datagen.Generate(datagen.Config{Items: train + adds, Clusters: k, Attrs: m, Domain: 20_000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ds, err := dataset.New(all.AttrNames(), all.Values()[:train*m], all.Labels()[:train], nil)
	if err != nil {
		b.Fatal(err)
	}
	space, err := kmodes.NewSpace(ds, kmodes.Config{K: k, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	acc, err := core.NewMinHashAccelerator(ds, p, 1)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := core.Run(space, core.Options{Accelerator: acc, Workers: 2, Update: core.UpdateDeferred}); err != nil {
		b.Fatal(err)
	}
	model := space.Model()
	var st Stats
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := FromModel(model, p, 1)
		if err != nil {
			b.Fatal(err)
		}
		for j := train; j < train+adds; j++ {
			if _, err := c.Add(all.Row(j), nil); err != nil {
				b.Fatal(err)
			}
		}
		st = c.Stats()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*adds), "ns/add")
	b.ReportMetric(float64(st.FullScans)/float64(st.Items), "fallback/add")
}

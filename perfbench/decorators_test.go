package main

import (
	"reflect"
	"slices"
	"testing"

	"lshcluster/internal/core"
	"lshcluster/internal/datagen"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/simhash"
)

// capabilities are the optional core interfaces core.Run probes for.
// A decorator must implement each one exactly when the value it wraps
// does, or the traced run would take another path than the untraced one.
var capabilities = []reflect.Type{
	reflect.TypeFor[core.BulkIndexer](),
	reflect.TypeFor[core.Freezer](),
	reflect.TypeFor[core.ShardedIndexer](),
	reflect.TypeFor[core.ForeignSlotConfigurer](),
	reflect.TypeFor[core.ReorderConfigurer](),
	reflect.TypeFor[core.ReorderMapper](),
	reflect.TypeFor[core.IndexPersister](),
	reflect.TypeFor[core.ResilienceConfigurer](),
	reflect.TypeFor[core.ShardStatsReporter](),
	reflect.TypeFor[core.ReverseQuerier](),
	reflect.TypeFor[core.UnindexedQuerier](),
	reflect.TypeFor[core.KernelConfigurable](),
	reflect.TypeFor[core.BlockQuerier](),
	reflect.TypeFor[core.DegradedQuerier](),
	reflect.TypeFor[core.DegradedReverse](),
	reflect.TypeFor[core.IncrementalSpace](),
	reflect.TypeFor[core.ChangeReporter](),
	reflect.TypeFor[core.Seeder](),
}

func TestDecoratorCapabilityParity(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{Items: 300, Clusters: 10, Attrs: 8, Domain: 20, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	params := lsh.Params{Bands: 4, Rows: 2}
	km, err := kmodes.NewSpace(ds, kmodes.Config{K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mh, err := core.NewMinHashAccelerator(ds, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{Points: 300, Clusters: 10, Dim: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	kn, err := kmeans.NewSpace(pts, 4, kmeans.Config{K: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sh, err := simhash.NewAccelerator(kn, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A built index is needed for the querier and reverse view.
	if err := mh.Reset(10); err != nil {
		t.Fatal(err)
	}
	if err := mh.SignAll(1, nil); err != nil {
		t.Fatal(err)
	}
	if err := mh.BuildFrozen(1); err != nil {
		t.Fatal(err)
	}
	iq, ok := mh.NewQuerier().(*core.IndexQuerier)
	if !ok {
		t.Fatalf("NewQuerier returned %T, want *core.IndexQuerier", mh.NewQuerier())
	}
	rv, ok := mh.NewReverse().(*lsh.ShardedReverse)
	if !ok {
		t.Fatalf("NewReverse returned %T, want *lsh.ShardedReverse", mh.NewReverse())
	}

	tr := newTracer()
	pairs := []struct {
		plain, decorated any
	}{
		{mh, &tracedMinHash{MinHashAccelerator: mh, t: tr}},
		{sh, &tracedSimHash{Accelerator: sh, t: tr}},
		{km, &tracedKModes{Space: km, t: tr}},
		{kn, &tracedKMeans{Space: kn, t: tr}},
		{iq, &tracedQuerier{IndexQuerier: iq, buf: tr.main}},
		{rv, &tracedReverse{ShardedReverse: rv, t: tr}},
	}
	for _, p := range pairs {
		pt, dt := reflect.TypeOf(p.plain), reflect.TypeOf(p.decorated)
		for _, c := range capabilities {
			if pt.Implements(c) != dt.Implements(c) {
				t.Errorf("%v implements %v: %v, but its decorator %v: %v",
					pt, c, pt.Implements(c), dt, dt.Implements(c))
			}
		}
	}
}

// TestTracedRunMatchesUntraced checks, at a small scale, that decorating
// a run changes nothing it computes, for both accelerators and both a
// parallel and an immediate-update run.
func TestTracedRunMatchesUntraced(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{Items: 3000, Clusters: 60, Attrs: 12, Domain: 40, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, opts := range []core.Options{
		{Workers: 2, Update: core.UpdateDeferred, Shards: 2},
		{Shards: 2},
	} {
		runKM := func(tr *tracer) []int32 {
			space, acc, _, _, err := newKModes(ds, 60, lsh.Params{Bands: 8, Rows: 3}, 2, tr)
			if err != nil {
				t.Fatal(err)
			}
			o := opts
			o.Accelerator = acc
			res, err := core.Run(space, o)
			if err != nil {
				t.Fatal(err)
			}
			return res.Assign
		}
		tr := newTracer()
		if got, want := runKM(tr), runKM(nil); !slices.Equal(got, want) {
			t.Errorf("K-Modes %+v: traced assignment differs from untraced", opts)
		}
		if tr.positions() == 0 {
			t.Errorf("K-Modes %+v: traced run recorded no shortlist queries", opts)
		}
	}

	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{Points: 2000, Clusters: 40, Dim: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	runKN := func(tr *tracer) []int32 {
		space, err := kmeans.NewSpace(pts, 8, kmeans.Config{K: 40, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := simhash.NewAccelerator(space, lsh.Params{Bands: 6, Rows: 6}, 2)
		if err != nil {
			t.Fatal(err)
		}
		var s core.Space = space
		var a core.Accelerator = acc
		if tr != nil {
			s, a = &tracedKMeans{Space: space, t: tr}, &tracedSimHash{Accelerator: acc, t: tr}
		}
		res, err := core.Run(s, core.Options{Accelerator: a})
		if err != nil {
			t.Fatal(err)
		}
		return res.Assign
	}
	if got, want := runKN(newTracer()), runKN(nil); !slices.Equal(got, want) {
		t.Error("K-Means: traced assignment differs from untraced")
	}
}

package core_test

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"lshcluster/internal/kmeans"
	"lshcluster/internal/lsh"
	"lshcluster/internal/runstats"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// fullPassStats are the runstats fields an oracle that evaluates all n
// items every pass changes by design: the work the active-set filter
// exists to skip.
var fullPassStats = []string{"Comparisons", "CandidatesTotal", "AvgShortlist", "ActiveItems", "SkippedItems"}

// TestOraclesMatchDefault runs every core.Oracles switch alone, and all
// four together, against the default configuration: on a small MinHash
// K-Modes input and a small SimHash K-Means input, at Workers 1
// (immediate updates) and 2 (deferred), and with the deprecated
// Options.Shards at 1 and 3, which Run ignores. Each run
// must reproduce the default's assignment, final centroids and every
// non-timing runstats field, apart from the work counters its oracle
// changes by design (listed with each oracle).
//
// The default K-Modes run saves its index; the DisableMmap run
// warm-starts from it with a heap load (so its WarmStart differs, and is
// checked on its own). Every other run runs without IndexDir. K-Means
// runs never persist: the SimHash accelerator has no dataset
// fingerprint.
func TestOraclesMatchDefault(t *testing.T) {
	oracles := []struct {
		name    string
		o       core.Oracles
		changes []string
	}{
		{"ScalarKernels", core.Oracles{ScalarKernels: true}, nil},
		{"DisableIncremental", core.Oracles{DisableIncremental: true}, fullPassStats},
		{"DisableActiveFilter", core.Oracles{DisableActiveFilter: true}, fullPassStats},
		{"DisableMmap", core.Oracles{DisableMmap: true}, nil},
		{"all", core.Oracles{
			ScalarKernels: true, DisableIncremental: true, DisableActiveFilter: true,
			DisableMmap: true,
		}, fullPassStats},
	}
	inputs := []struct {
		name     string
		mk       func() (core.Space, core.Accelerator)
		print    func(core.Space) []byte
		persists bool
	}{
		{"kmodes", func() (core.Space, core.Accelerator) {
			return persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
		}, kmodesFingerprint(t), true},
		{"kmeans", oracleKMeansInput(t), kmeansFingerprint, false},
	}
	for _, in := range inputs {
		for _, w := range []struct {
			workers int
			update  core.UpdateMode
		}{{1, core.UpdateImmediate}, {2, core.UpdateDeferred}} {
			for _, shards := range []int{1, 3} {
				t.Run(fmt.Sprintf("%s/w=%d/s=%d", in.name, w.workers, shards), func(t *testing.T) {
					run := func(o core.Options) (*core.Result, []byte) {
						space, accel := in.mk()
						o.Accelerator = accel
						o.Update, o.Workers, o.MaxIterations = w.update, w.workers, 12
						o = core.WithShards(o, shards)
						res, err := core.Run(space, o)
						if err != nil {
							t.Fatal(err)
						}
						return res, in.print(space)
					}
					dir := ""
					if in.persists {
						dir = t.TempDir()
					}
					want, wantPrint := run(core.Options{IndexDir: dir})
					for _, or := range oracles {
						o := core.Options{Oracles: or.o}
						if or.o == (core.Oracles{DisableMmap: true}) {
							o.IndexDir = dir
						}
						got, gotPrint := run(o)
						if o.IndexDir != "" {
							if !got.Stats.WarmStart || got.Stats.MmapBytes != 0 {
								t.Fatalf("%s: WarmStart %v, %d mapped bytes; want a warm heap load",
									or.name, got.Stats.WarmStart, got.Stats.MmapBytes)
							}
							got.Stats.WarmStart = want.Stats.WarmStart
						}
						if !slices.Equal(got.Assign, want.Assign) {
							t.Fatalf("%s: assignment differs from the default run", or.name)
						}
						if !bytes.Equal(gotPrint, wantPrint) {
							t.Fatalf("%s: final centroids differ from the default run", or.name)
						}
						if diff := statsDiff(want.Stats, got.Stats, or.changes); diff != "" {
							t.Fatalf("%s: runstats differ from the default run:\n%s", or.name, diff)
						}
					}
				})
			}
		}
	}
}

// oracleKMeansInput returns a small SimHash-accelerated K-Means maker.
func oracleKMeansInput(t *testing.T) func() (core.Space, core.Accelerator) {
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{Points: 600, Clusters: 20, Dim: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return func() (core.Space, core.Accelerator) {
		s, err := kmeans.NewSpace(pts, 8, kmeans.Config{K: 20, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		a, err := simhash.NewAccelerator(s, lsh.Params{Bands: 8, Rows: 8}, 21)
		if err != nil {
			t.Fatal(err)
		}
		return s, a
	}
}

func kmeansFingerprint(s core.Space) []byte {
	var buf bytes.Buffer
	sp := s.(*kmeans.Space)
	for c := 0; c < sp.NumClusters(); c++ {
		fmt.Fprintf(&buf, "%x;", sp.Centroid(c))
	}
	return buf.Bytes()
}

// statsDiff lists the non-timing fields of two runs' statistics that
// differ, iterations included, skipping the fields named in changes.
// Every time.Duration field is a timing; everything else, including
// fields added later, is compared.
func statsDiff(want, got runstats.Run, changes []string) string {
	w, g := statFields(want), statFields(got)
	var diffs []string
	for path, wv := range w {
		field := path[strings.LastIndex(path, ".")+1:]
		if gv := g[path]; gv != wv && !slices.Contains(changes, field) {
			diffs = append(diffs, fmt.Sprintf("  %s: default %s, oracle %s", path, wv, gv))
		}
	}
	slices.Sort(diffs)
	return strings.Join(diffs, "\n")
}

// statFields flattens r into one formatted value per non-timing field,
// keyed by its path ("Iterations[2].Moves"); a slice also records its
// length, so runs of different lengths differ.
func statFields(r runstats.Run) map[string]string {
	out := map[string]string{}
	var walk func(path string, v reflect.Value)
	walk = func(path string, v reflect.Value) {
		switch {
		case v.Type() == reflect.TypeFor[time.Duration](), v.Type() == reflect.TypeFor[[]time.Duration]():
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				walk(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
		case v.Kind() == reflect.Slice:
			out[path+".len"] = fmt.Sprint(v.Len())
			for i := 0; i < v.Len(); i++ {
				walk(fmt.Sprintf("%s[%d]", path, i), v.Index(i))
			}
		default:
			out[path] = fmt.Sprint(v.Interface())
		}
	}
	walk("Run", reflect.ValueOf(r))
	return out
}

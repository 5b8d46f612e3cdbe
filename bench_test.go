// Benchmarks: one per table and figure of the paper's evaluation (run
// the figure's full workload at a small scale), plus ablation benches
// for the design choices called out in DESIGN.md and micro-benchmarks of
// the hot paths. Regenerating the paper's actual numbers is
// cmd/experiments' job; these benches track the cost of each experiment
// and the effect of each design knob.
package lshcluster

import (
	"io"
	"math/rand"
	"sync"
	"testing"

	"lshcluster/internal/core"
	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
	"lshcluster/internal/experiments"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/minhash"
	"lshcluster/internal/simhash"
)

// benchScale keeps figure benches fast while preserving the comparative
// shape; cmd/experiments defaults to 10× this.
const benchScale = 0.005

func benchFigure(b *testing.B, fig int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		suite := experiments.NewSuite(experiments.Config{
			Scale: benchScale, Seed: 1, Out: io.Discard, Quiet: true, MaxIterations: 10,
		})
		if err := suite.Figure(fig); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := TableI(); len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows := TableII(); len(rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFigure2(b *testing.B)  { benchFigure(b, 2) }
func BenchmarkFigure3(b *testing.B)  { benchFigure(b, 3) }
func BenchmarkFigure4(b *testing.B)  { benchFigure(b, 4) }
func BenchmarkFigure5(b *testing.B)  { benchFigure(b, 5) }
func BenchmarkFigure6(b *testing.B)  { benchFigure(b, 6) }
func BenchmarkFigure7(b *testing.B)  { benchFigure(b, 7) }
func BenchmarkFigure8(b *testing.B)  { benchFigure(b, 8) }
func BenchmarkFigure9(b *testing.B)  { benchFigure(b, 9) }
func BenchmarkFigure10(b *testing.B) { benchFigure(b, 10) }

// ---- shared ablation workload ----

var (
	ablOnce sync.Once
	ablDS   *dataset.Dataset
)

// ablWorkload is a mid-size separable workload in the paper's regime —
// the cluster count dominates the signature length (k=800 ≫ b·r=100),
// which is the premise of the whole technique — while staying small
// enough for sub-second runs.
func ablWorkload(b *testing.B) *dataset.Dataset {
	ablOnce.Do(func() {
		ds, err := datagen.Generate(datagen.Config{
			Items: 2400, Clusters: 800, Attrs: 50, Domain: 40000, Seed: 33,
		})
		if err != nil {
			panic(err)
		}
		ablDS = ds
	})
	return ablDS
}

// runAbl benchmarks a timing-only configuration (SkipCost: the
// objective pass is not part of what the ablation varies).
func runAbl(b *testing.B, opts core.Options, withAccel bool) {
	opts.SkipCost = true
	runAblOpts(b, opts, withAccel)
}

// runAblOpts runs the ablation workload with the options exactly as
// given.
func runAblOpts(b *testing.B, opts core.Options, withAccel bool) {
	ds := ablWorkload(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Random seed items, as in the paper's initialisation: several
		// seeds land in the same ground-truth cluster, so the run takes
		// multiple iterations to settle.
		space, err := kmodes.NewSpace(ds, kmodes.Config{K: 800, Seed: 5})
		if err != nil {
			b.Fatal(err)
		}
		o := opts
		if withAccel {
			accel, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 20, Rows: 5}, 7)
			if err != nil {
				b.Fatal(err)
			}
			o.Accelerator = accel
		}
		o.MaxIterations = 8
		if _, err := core.Run(space, o); err != nil {
			b.Fatal(err)
		}
	}
}

// Headline comparison: the exact baseline vs the accelerated algorithm
// (the paper's full-scan bootstrap) on the same workload (the per-run
// equivalent of Figure 7).
func BenchmarkRunExactKModes(b *testing.B) { runAbl(b, core.Options{}, false) }
func BenchmarkRunMHKModes(b *testing.B)    { runAbl(b, core.Options{}, true) }

// Ablation: immediate (paper) vs deferred cluster-reference updates.
func BenchmarkAblationUpdateImmediate(b *testing.B) {
	runAbl(b, core.Options{Update: core.UpdateImmediate}, true)
}

func BenchmarkAblationUpdateDeferred(b *testing.B) {
	runAbl(b, core.Options{Update: core.UpdateDeferred}, true)
}

// Ablation: early-abandon distance evaluation on the exact baseline,
// where it matters most (k full-distance evaluations per item).
func BenchmarkAblationEarlyAbandonOff(b *testing.B) {
	runAbl(b, core.Options{}, false)
}

func BenchmarkAblationEarlyAbandonOn(b *testing.B) {
	runAbl(b, core.Options{EarlyAbandon: true}, false)
}

// Ablation: incremental engine (FreqTable moves + dirty-cluster
// refresh + O(1) objective) vs the batch oracle (full
// RecomputeCentroids + full Cost every pass) on the same run. Cost is
// computed per iteration here, unlike the other ablations: the
// objective pass is part of what the engine removes.
func BenchmarkAblationEngineIncremental(b *testing.B) {
	runAblOpts(b, core.Options{}, true)
}

func BenchmarkAblationEngineBatch(b *testing.B) {
	runAblOpts(b, core.Options{Oracles: core.Oracles{DisableIncremental: true}}, true)
}

// Ablation: tie-breaking policy.
func BenchmarkAblationTieBreakPreferCurrent(b *testing.B) {
	runAbl(b, core.Options{TieBreak: core.TieBreakPreferCurrent}, true)
}

func BenchmarkAblationTieBreakLowestIndex(b *testing.B) {
	runAbl(b, core.Options{TieBreak: core.TieBreakLowestIndex}, true)
}

// ---- numeric extension ----

func benchNumeric(b *testing.B, params *Params) {
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{
		Points: 4000, Clusters: 200, Dim: 16, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	seeds := make([]int32, 200)
	for c := range seeds {
		seeds[c] = int32(c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		space, err := kmeans.NewSpaceFromSeeds(pts, 16, seeds, kmeans.Config{})
		if err != nil {
			b.Fatal(err)
		}
		opts := core.Options{MaxIterations: 8, SkipCost: true}
		if params != nil {
			accel, err := simhash.NewAccelerator(space, *params, 9)
			if err != nil {
				b.Fatal(err)
			}
			opts.Accelerator = accel
		}
		if _, err := core.Run(space, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunExactKMeans(b *testing.B) { benchNumeric(b, nil) }
func BenchmarkRunSimHashKMeans(b *testing.B) {
	benchNumeric(b, &Params{Bands: 12, Rows: 12})
}

// ---- incremental hot-path engine ----

var (
	iterOnce sync.Once
	iterDS   *dataset.Dataset
)

// iterWorkload is the paper-regime synthetic categorical workload at
// n=100k used to measure post-bootstrap per-iteration cost. Late
// iterations move only a handful of items, which is exactly the case
// the incremental engine targets.
func iterWorkload(b *testing.B) *dataset.Dataset {
	b.Helper()
	iterOnce.Do(func() {
		ds, err := datagen.Generate(datagen.Config{
			Items: 100_000, Clusters: 1000, Attrs: 24, Domain: 20000, Seed: 17,
		})
		if err != nil {
			panic(err)
		}
		iterDS = ds
	})
	return iterDS
}

// benchIterationUpdate measures one iteration's centroid-update plus
// objective work after a sparse assignment pass (128 moved items out of
// 100k): the incremental engine folds the moves and refreshes dirty
// modes; the batch oracle recomputes every mode and rescans every item.
// The assignment-pass cost itself is identical for both engines and is
// excluded, so the ratio isolates the work this PR removes.
func benchIterationUpdate(b *testing.B, incremental bool) {
	const k, sparseMoves = 1000, 128
	ds := iterWorkload(b)
	n := ds.NumItems()
	space, err := kmodes.NewSpace(ds, kmodes.Config{K: k, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	assign := make([]int32, n)
	for i := range assign {
		assign[i] = int32(rng.Intn(k))
	}
	if incremental {
		space.BeginIncremental(assign, true)
	} else {
		space.RecomputeCentroids(assign)
	}
	var sink float64
	b.ReportAllocs()
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		for j := 0; j < sparseMoves; j++ {
			item := rng.Intn(n)
			to := int32(rng.Intn(k))
			from := assign[item]
			if to == from {
				continue
			}
			assign[item] = to
			if incremental {
				space.ApplyMove(item, from, to)
			}
		}
		if incremental {
			space.FinishPass(assign)
			sink = space.IncrementalCost(assign)
		} else {
			space.RecomputeCentroids(assign)
			sink = space.Cost(assign)
		}
	}
	_ = sink
}

func BenchmarkIterationUpdate100kBatch(b *testing.B)       { benchIterationUpdate(b, false) }
func BenchmarkIterationUpdate100kIncremental(b *testing.B) { benchIterationUpdate(b, true) }

var (
	signOnce sync.Once
	signDS   *dataset.Dataset
)

// signWorkload is a 100k-item workload with a census-like compact value
// dictionary (the classic K-Modes regime: each attribute draws from a
// 200-value domain, so every value occurs hundreds of times). The
// accelerator signs it through the hash-column memo: 24 attributes ×
// 200 values at a 100-long signature make a ~3.8 MB column table,
// within the 16 MB band-key arena (4,801 values × 5 rows ≤ 100k
// items). The two signing benchmarks price the memo against direct
// hashing on the same items.
func signWorkload(b *testing.B) *dataset.Dataset {
	b.Helper()
	signOnce.Do(func() {
		ds, err := datagen.Generate(datagen.Config{
			Items: 100_000, Clusters: 1000, Attrs: 24, Domain: 200, Seed: 19,
		})
		if err != nil {
			panic(err)
		}
		signDS = ds
	})
	return signDS
}

// benchBootstrapSigning measures signing every item — the dominant cost
// of index construction — with and without the per-value hash-column
// memo. Each outer iteration uses a fresh memo, so the measured time
// includes computing every distinct value's column once.
func benchBootstrapSigning(b *testing.B, memoized bool) {
	ds := signWorkload(b)
	params := lsh.Params{Bands: 20, Rows: 5}
	scheme := minhash.NewScheme(params.SignatureLen(), 7)
	sig := make([]uint64, params.SignatureLen())
	var set []uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var memo *minhash.Memo
		if memoized {
			memo = scheme.NewMemo(int(ds.MaxValue()) + 1)
		}
		for item := 0; item < ds.NumItems(); item++ {
			set = ds.PresentValues(item, set[:0])
			if memoized {
				memo.Sign(set, sig)
			} else {
				scheme.Sign(set, sig)
			}
		}
	}
}

func BenchmarkBootstrapSigningPlain(b *testing.B)    { benchBootstrapSigning(b, false) }
func BenchmarkBootstrapSigningMemoized(b *testing.B) { benchBootstrapSigning(b, true) }

// BenchmarkCandidatesFrozen measures the recurring per-iteration
// collision lookup over every indexed item on the frozen CSR layout.
func BenchmarkCandidatesFrozen(b *testing.B) {
	ds := ablWorkload(b)
	p := lsh.Params{Bands: 20, Rows: 5}
	ix, err := lsh.NewIndex(p, 7)
	if err != nil {
		b.Fatal(err)
	}
	keys := lsh.SignAll(p, ds.NumItems(), 1, func() lsh.SignFunc {
		var set []uint64
		return func(item int32, sig []uint64) {
			set = ds.PresentValues(int(item), set[:0])
			ix.Scheme().Sign(set, sig)
		}
	}, nil)
	if err := ix.BuildFrozen(keys, ds.NumItems(), 1); err != nil {
		b.Fatal(err)
	}
	var hits int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits = 0
		for item := 0; item < ds.NumItems(); item++ {
			ix.Candidates(int32(item), func(int32) { hits++ })
		}
	}
	_ = hits
}

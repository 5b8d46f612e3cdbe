package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"time"

	"lshcluster/internal/core"
	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/metrics"
	"lshcluster/internal/runstats"
	"lshcluster/internal/simhash"
	"lshcluster/internal/stream"
)

// The four workloads. Each uses at most two goroutines of work, and each
// layer the roadmap plans to change does most of its work in one
// workload and little or none in another (see README.md).
const (
	wKModesCold = "kmodes-cold"
	wKModesWarm = "kmodes-warm"
	wStream     = "stream-ingest"
	wKMeans     = "kmeans-simhash"
)

var workloadNames = []string{wKModesCold, wKModesWarm, wStream, wKMeans}

// K-Modes input: 100k items × 24 attributes over a 200-value domain in
// 1000 rule clusters, clustered with k = 1000 under 20×5 MinHash bands.
const (
	kmItems, kmAttrs, kmDomain, kmK = 100_000, 24, 200, 1000
	kmBands, kmRows                 = 20, 5
)

// Stream input: 200k items × 24 attributes over a 20000-value domain in
// 1000 clusters; the first 20k train the initial modes, the remaining
// 180k arrive one Add at a time under 20×3 bands.
const (
	stItems, stTrain, stAttrs, stDomain, stK = 200_000, 20_000, 24, 20_000, 1000
	stBands, stRows                          = 20, 3
)

// K-Means input: 50k 16-d Gaussian points in 500 blobs, k = 500, SimHash
// 12×12 bands.
const (
	knPoints, knDim, knK = 50_000, 16, 500
	knBands, knRows      = 12, 12
)

// outcome is what one clustering run of a workload produced, measured at
// the library's public call boundaries.
type outcome struct {
	setup, total time.Duration
	// addLat holds each Add's latency in nanoseconds (stream only).
	addLat []float64
	assign []int32
	// trainAssign is the stream workload's training assignment.
	trainAssign []int32
	k           int
	labels      []int32
	// stats is the batch run (the training run on the stream workload).
	stats runstats.Run
	// adds and streamStats describe the stream phase.
	adds        int
	streamStats stream.Stats
	// shortlistLat and fallbackLat split Add latencies by whether the
	// Add fell back to a full scan (traced stream runs only).
	shortlistLat, fallbackLat []float64
	accel                     *core.ShardedIndexBase
	// workers is the batch run's Options.Workers (at least 1).
	workers int
	// use is what the process consumed over the timed interval.
	use usage
	// failures are the output checks that failed; attempted and failed
	// count operations (clustering runs and Add calls), failed only
	// those that returned an error.
	failures          []string
	attempted, failed int
}

// measured is the part of a workload the benchmark times: it receives
// the tracer (nil when untraced) and returns what the run produced. An
// error means the run failed as a whole.
type measured func(t *tracer) (*outcome, error)

// fail records a failed output check. A run whose checks fail counts as
// one failed operation, however many checks failed.
func (o *outcome) fail(format string, args ...any) {
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// failedOps is the number of failed operations: those that returned an
// error, plus one for the clustering run when any output check failed.
func (o *outcome) failedOps() int {
	n := o.failed
	if len(o.failures) > 0 && n == 0 {
		n = 1
	}
	return min(n, max(o.attempted, 1))
}

func kmodesInput(seed int64) (*dataset.Dataset, error) {
	return datagen.Generate(datagen.Config{
		Items: kmItems, Clusters: kmK, Attrs: kmAttrs, Domain: kmDomain, Seed: seed,
	})
}

// newKModes builds the K-Modes space and MinHash accelerator for ds,
// decorated when t is non-nil.
func newKModes(ds *dataset.Dataset, k int, p lsh.Params, seed int64, t *tracer) (core.Space, core.Accelerator, *kmodes.Space, *core.ShardedIndexBase, error) {
	space, err := kmodes.NewSpace(ds, kmodes.Config{K: k, Seed: seed})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	acc, err := core.NewMinHashAccelerator(ds, p, uint64(seed))
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if t == nil {
		return space, acc, space, &acc.ShardedIndexBase, nil
	}
	return &tracedKModes{Space: space, t: t}, &tracedMinHash{MinHashAccelerator: acc, t: t}, space, &acc.ShardedIndexBase, nil
}

// runBatch calls core.Run and derives set-up time from the public call
// boundaries: the call itself and the first OnIteration report. Set-up
// ends where pass 1 starts, taken as pass 1's report minus its reported
// duration (the cost evaluation between the two, microseconds, counts as
// set-up).
func runBatch(o *outcome, space core.Space, opts core.Options, t *tracer) (*core.Result, error) {
	var reports []time.Time
	opts.OnIteration = func(runstats.Iteration) { reports = append(reports, time.Now()) }
	o.workers = max(opts.Workers, 1)
	if t != nil {
		t.main.Begin(spanRun)
	}
	p := startProbe()
	start := time.Now()
	res, err := core.Run(space, opts)
	end := time.Now()
	o.use = p.stop()
	if t != nil {
		t.main.End()
	}
	o.attempted++
	if err != nil {
		return nil, err
	}
	its := res.Stats.Iterations
	if len(its) == 0 || len(reports) != len(its) {
		o.fail("%d iteration reports for %d iterations", len(reports), len(its))
		return res, nil
	}
	setupEnd := reports[0].Add(-its[0].Duration)
	o.setup = setupEnd.Sub(start)
	o.total = end.Sub(start)
	// The library's own bootstrap time must fit inside the externally
	// timed set-up interval.
	if res.Stats.Bootstrap > setupEnd.Sub(start) {
		o.fail("Run.Bootstrap %v exceeds the externally timed set-up %v", res.Stats.Bootstrap, setupEnd.Sub(start))
	}
	o.stats = res.Stats
	return res, nil
}

// checkBatch verifies a batch result: every item in a valid cluster, the
// per-iteration cost non-increasing, and the final cost recomputed
// through the space's public Cost equal to the reported one.
func checkBatch(o *outcome, res *core.Result, space interface{ Cost([]int32) float64 }, k int, tol float64) {
	for i, c := range res.Assign {
		if c < 0 || int(c) >= k {
			o.fail("item %d in cluster %d, want [0,%d)", i, c, k)
			break
		}
	}
	its := res.Stats.Iterations
	for i := 1; i < len(its); i++ {
		if its[i].Cost > its[i-1].Cost*(1+tol) {
			o.fail("cost rose from %v to %v at iteration %d", its[i-1].Cost, its[i].Cost, its[i].Index)
			break
		}
	}
	if n := len(its); n > 0 {
		want := space.Cost(res.Assign)
		if got := its[n-1].Cost; got != want && !(tol > 0 && relDiff(got, want) <= tol) {
			o.fail("reported final cost %v, recomputed %v", got, want)
		}
	}
}

// relDiff is |a−b| relative to |b| (absolute when b is 0).
func relDiff(a, b float64) float64 {
	if b == 0 {
		return math.Abs(a)
	}
	return math.Abs(a-b) / math.Abs(b)
}

// prepareKModesCold is one cold K-Modes run at S=1 with two workers.
func prepareKModesCold(seed int64, _ string) (measured, error) {
	ds, err := kmodesInput(seed)
	if err != nil {
		return nil, err
	}
	return func(t *tracer) (*outcome, error) {
		o := &outcome{k: kmK, labels: ds.Labels()}
		space, acc, plain, base, err := newKModes(ds, kmK, lsh.Params{Bands: kmBands, Rows: kmRows}, seed, t)
		if err != nil {
			return o, err
		}
		o.accel = base
		res, err := runBatch(o, space, core.Options{
			Accelerator: acc, Workers: 2, Update: core.UpdateDeferred, Shards: 1,
		}, t)
		if err != nil {
			return o, err
		}
		o.assign = res.Assign
		checkBatch(o, res, plain, kmK, 0)
		return o, nil
	}, nil
}

// warmSetupOptions is the cold S=4 bootstrap with save that kmodes-warm's
// set-up process runs: two workers (so deferred updates) and one pass.
func warmSetupOptions(acc core.Accelerator, dir string) core.Options {
	return core.Options{
		Accelerator: acc, Workers: 2, Update: core.UpdateDeferred, Shards: 4,
		IndexDir: dir, MaxIterations: 1,
	}
}

// indexDir is where kmodes-warm's set-up saves its index.
func indexDir(work string) string { return filepath.Join(work, "index") }

// prepareKModesWarmSetup builds and saves the S=4 index cold; the set-up
// process then syncs so write-back of the saved files cannot overlap a
// timed run.
func prepareKModesWarmSetup(seed int64, work string) (measured, error) {
	ds, err := kmodesInput(seed)
	if err != nil {
		return nil, err
	}
	dir := indexDir(work)
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return func(t *tracer) (*outcome, error) {
		o := &outcome{k: kmK, labels: ds.Labels()}
		space, acc, plain, base, err := newKModes(ds, kmK, lsh.Params{Bands: kmBands, Rows: kmRows}, seed, t)
		if err != nil {
			return o, err
		}
		o.accel = base
		res, err := runBatch(o, space, warmSetupOptions(acc, dir), t)
		if err != nil {
			return o, err
		}
		o.assign = res.Assign
		checkBatch(o, res, plain, kmK, 0)
		return o, nil
	}, nil
}

// prepareKModesWarm is the timed warm start: the saved S=4 index mapped
// zero-copy, one worker, immediate updates (the CLI and facade default).
func prepareKModesWarm(seed int64, work string) (measured, error) {
	ds, err := kmodesInput(seed)
	if err != nil {
		return nil, err
	}
	dir := indexDir(work)
	return func(t *tracer) (*outcome, error) {
		o := &outcome{k: kmK, labels: ds.Labels()}
		space, acc, plain, base, err := newKModes(ds, kmK, lsh.Params{Bands: kmBands, Rows: kmRows}, seed, t)
		if err != nil {
			return o, err
		}
		o.accel = base
		res, err := runBatch(o, space, core.Options{Accelerator: acc, Shards: 4, IndexDir: dir}, t)
		if err != nil {
			return o, err
		}
		if !res.Stats.WarmStart {
			o.fail("kmodes-warm did not start warm")
		}
		o.assign = res.Assign
		checkBatch(o, res, plain, kmK, 0)
		return o, nil
	}, nil
}

// warmMatchesSetup re-runs the set-up's options warm and returns the
// digest of its result, which must equal the set-up's cold digest.
func warmMatchesSetup(seed int64, work string) (string, error) {
	ds, err := kmodesInput(seed)
	if err != nil {
		return "", err
	}
	space, acc, _, _, err := newKModes(ds, kmK, lsh.Params{Bands: kmBands, Rows: kmRows}, seed, nil)
	if err != nil {
		return "", err
	}
	res, err := core.Run(space, warmSetupOptions(acc, indexDir(work)))
	if err != nil {
		return "", err
	}
	if !res.Stats.WarmStart {
		return "", fmt.Errorf("identity re-run did not start warm")
	}
	return digest(res.Assign), nil
}

// prepareStream trains k modes on the first stTrain items, then adds the
// rest one at a time from a single caller (a closed loop).
func prepareStream(seed int64, _ string) (measured, error) {
	all, err := datagen.Generate(datagen.Config{
		Items: stItems, Clusters: stK, Attrs: stAttrs, Domain: stDomain, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	train, err := dataset.New(all.AttrNames(), all.Values()[:stTrain*stAttrs], all.Labels()[:stTrain], nil)
	if err != nil {
		return nil, err
	}
	rows := make([][]dataset.Value, 0, stItems-stTrain)
	for i := stTrain; i < stItems; i++ {
		rows = append(rows, all.Row(i))
	}
	bands := lsh.Params{Bands: stBands, Rows: stRows}
	return func(t *tracer) (*outcome, error) {
		o := &outcome{k: stK, labels: all.Labels()[stTrain:], workers: 1}
		p := startProbe()
		start := time.Now()
		space, acc, plain, base, err := newKModes(train, stK, bands, seed, t)
		if err != nil {
			return o, err
		}
		o.accel = base
		if t != nil {
			t.main.Begin(spanRun)
		}
		res, err := core.Run(space, core.Options{Accelerator: acc, Workers: 2, Update: core.UpdateDeferred})
		if t != nil {
			t.main.End()
		}
		o.attempted++
		if err != nil {
			return o, err
		}
		o.stats = res.Stats
		if t != nil {
			t.main.Begin(spanStreamNew)
		}
		sc, err := stream.FromModel(plain.Model(), bands, uint64(seed))
		if t != nil {
			t.main.End()
		}
		if err != nil {
			return o, err
		}
		o.setup = time.Since(start)
		lat := make([]float64, len(rows))
		for i, row := range rows {
			var before int
			if t != nil {
				before = sc.Stats().FullScans
				t.main.Begin(spanStreamAdd)
			}
			a := time.Now()
			_, err := sc.Add(row, nil)
			lat[i] = float64(time.Since(a))
			if t != nil {
				t.main.End()
				if sc.Stats().FullScans != before {
					o.fallbackLat = append(o.fallbackLat, lat[i])
				} else {
					o.shortlistLat = append(o.shortlistLat, lat[i])
				}
			}
			o.attempted++
			if err != nil {
				o.failed++
			}
		}
		o.total = time.Since(start)
		o.use = p.stop()
		o.addLat = lat
		checkBatch(o, res, plain, stK, 0)
		o.trainAssign = res.Assign
		o.adds = len(rows)
		o.streamStats = sc.Stats()
		o.assign = sc.Assignments()
		if o.streamStats.Items != o.adds {
			o.fail("stream reports %d items after %d Add calls", o.streamStats.Items, o.adds)
		}
		if len(o.assign) != o.adds {
			o.fail("%d assignments after %d Add calls", len(o.assign), o.adds)
		}
		for i, c := range o.assign {
			if c < 0 || int(c) >= stK {
				o.fail("streamed item %d in cluster %d, want [0,%d)", i, c, stK)
				break
			}
		}
		return o, nil
	}, nil
}

// prepareKMeans is SimHash K-Means with one worker.
func prepareKMeans(seed int64, _ string) (measured, error) {
	pts, labels, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{Points: knPoints, Clusters: knK, Dim: knDim, Seed: seed})
	if err != nil {
		return nil, err
	}
	return func(t *tracer) (*outcome, error) {
		o := &outcome{k: knK, labels: labels}
		plain, err := kmeans.NewSpace(pts, knDim, kmeans.Config{K: knK, Seed: seed})
		if err != nil {
			return o, err
		}
		acc, err := simhash.NewAccelerator(plain, lsh.Params{Bands: knBands, Rows: knRows}, seed)
		if err != nil {
			return o, err
		}
		o.accel = &acc.ShardedIndexBase
		var space core.Space = plain
		var a core.Accelerator = acc
		if t != nil {
			space = &tracedKMeans{Space: plain, t: t}
			a = &tracedSimHash{Accelerator: acc, t: t}
		}
		res, err := runBatch(o, space, core.Options{Accelerator: a}, t)
		if err != nil {
			return o, err
		}
		o.assign = res.Assign
		// Float sums make K-Means costs order-sensitive in the last bits.
		checkBatch(o, res, plain, knK, 1e-9)
		return o, nil
	}, nil
}

// purity of the final assignment against the generator's labels.
func (o *outcome) purity() float64 {
	p, err := metrics.Purity(o.assign, o.labels)
	if err != nil {
		o.fail("purity: %v", err)
		return 0
	}
	return p
}

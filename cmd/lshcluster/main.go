// Command lshcluster clusters a categorical CSV dataset with K-Modes,
// either exact or accelerated with the paper's MinHash LSH framework
// (MH-K-Modes).
//
// The input CSV must have a header row of attribute names; a trailing
// _label column, when present, is treated as ground truth and reported as
// cluster purity. Assignments are written as CSV (item,cluster), and a
// per-iteration statistics summary is printed to stderr.
//
// Examples:
//
//	lshcluster -in synth.csv -k 2000 -bands 20 -rows 5 -assign out.csv
//	lshcluster -in synth.csv -k 2000 -exact
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"time"

	"lshcluster/internal/core"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/lsh/persist"
	"lshcluster/internal/lsh/serve"
	"lshcluster/internal/metrics"
	"lshcluster/internal/runstats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "lshcluster:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("lshcluster", flag.ContinueOnError)
	fs.SetOutput(stderr)
	in := fs.String("in", "", "input CSV file (default stdin)")
	inBinary := fs.String("in-binary", "", "input binary dataset file (written by -write-binary; memory-mapped, so rows never occupy the heap)")
	writeBinary := fs.String("write-binary", "", "convert the input dataset to the binary columnar format at this path and continue")
	k := fs.Int("k", 0, "number of clusters (required)")
	bands := fs.Int("bands", 20, "LSH bands (b)")
	rows := fs.Int("rows", 5, "LSH rows per band (r)")
	exact := fs.Bool("exact", false, "run exact K-Modes (no LSH acceleration)")
	seed := fs.Int64("seed", 1, "random seed")
	maxIter := fs.Int("maxiter", core.DefaultMaxIterations, "iteration cap")
	assignOut := fs.String("assign", "", "write item,cluster assignments to this CSV file")
	modelOut := fs.String("model", "", "write the trained modes (gob) to this file")
	statsCSV := fs.String("stats", "", "write per-iteration statistics CSV to this file")
	workers := fs.Int("workers", 1, "parallel assignment workers (forces deferred updates)")
	shards := fs.Int("shards", 1, "item-partitioned LSH index shards (1 = unsharded oracle; results are identical for every value)")
	foreignBudget := fs.Int64("foreign-slot-budget", 0, "byte budget for materialised cross-shard fan-out arrays (0 = 64 MiB default, negative = unlimited; over budget the index keeps key probing)")
	noForeign := fs.Bool("no-foreign-slots", false, "keep cross-shard fan-out on the key-probe path (A/B baseline; results are identical)")
	scalarKernels := fs.Bool("scalar-kernels", false, "use scalar reference distance kernels instead of the unrolled ones (A/B baseline; results are identical)")
	seeded := fs.Bool("seeded-bootstrap", false, "use the seeded-index bootstrap instead of a full first pass")
	abandon := fs.Bool("early-abandon", false, "enable early-abandon distance evaluation")
	lowestTie := fs.Bool("lowest-index-ties", false, "break distance ties to the lowest cluster index (numpy-style)")
	noIncremental := fs.Bool("no-incremental", false, "recompute centroids and cost from scratch each pass instead of incrementally (A/B baseline; results are identical; implies -no-active-filter)")
	noActive := fs.Bool("no-active-filter", false, "evaluate every item each pass instead of only the active set (A/B baseline; results are identical)")
	noParallelBoot := fs.Bool("no-parallel-bootstrap", false, "run the serial per-item bootstrap instead of the parallel sign/build/assign pipeline (A/B baseline; results are identical)")
	noReorder := fs.Bool("no-reorder", false, "build the LSH index in original item order instead of the locality-preserving permutation (A/B baseline; results are identical)")
	chaosSpec := fs.String("chaos-spec", "", "route cross-shard queries through fault-injecting backends with this spec (e.g. \"seed=1;err=0.05;shard2.dead\"); empty spec = direct fan-out, zero-fault spec (\"seed=1\") = resilient path, bit-identical results")
	retryBudget := fs.Int("retry-budget", 0, "retries after a failed shard-backend call (0 = default, negative = none; needs -chaos-spec)")
	hedgeAfter := fs.Duration("hedge-after", 0, "straggler threshold before hedging a shard call to its mirror (0 = default, negative disables; needs -chaos-spec)")
	noHedging := fs.Bool("no-hedging", false, "disable hedged shard-backend requests, keeping deadlines and retries (A/B baseline; results are identical)")
	saveIndex := fs.String("save-index", "", "persist the frozen LSH index (and first assignment) into this directory after a cold bootstrap; later runs warm-start from it")
	loadIndex := fs.String("load-index", "", "warm-start from the saved index in this directory (must exist; stale indexes are rejected, bit-identical results)")
	mmapIndex := fs.Bool("mmap-index", true, "memory-map the persisted index zero-copy; -mmap-index=false copies it onto the heap (A/B baseline; results are identical)")
	memBudget := fs.Int64("shard-memory-budget", 0, "resident-byte cap for the memory-mapped index; whole shards page out past it and page back in on demand (0 = unlimited)")
	snapshotEvery := fs.Int("snapshot-every", 0, "checkpoint the run state into the index directory every N iterations and resume interrupted runs from it (0 = off; needs -save-index/-load-index)")
	serveQueries := fs.Int("serve-queries", 0, "after clustering, serve this many shortlist queries through the concurrent multi-shard server demo (0 = off; needs LSH acceleration)")
	serveClients := fs.Int("serve-clients", 4, "concurrent client goroutines for -serve-queries")
	serveInflight := fs.Int("serve-inflight", 2, "per-shard in-flight call bound (backpressure) for -serve-queries")
	initMethod := fs.String("init", "random", "initial centroid selection: random | huang | cao")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *k < 1 {
		return fmt.Errorf("-k is required and must be ≥ 1")
	}

	indexDir := ""
	switch {
	case *saveIndex != "" && *loadIndex != "" && *saveIndex != *loadIndex:
		return fmt.Errorf("-save-index and -load-index name different directories; use one (or the same)")
	case *saveIndex != "":
		indexDir = *saveIndex
	case *loadIndex != "":
		if !lsh.IndexSaved(*loadIndex) {
			return fmt.Errorf("-load-index: no saved index in %s (run with -save-index first)", *loadIndex)
		}
		indexDir = *loadIndex
	}

	var ds *dataset.Dataset
	var err error
	if *inBinary != "" {
		if *in != "" {
			return fmt.Errorf("-in and -in-binary are mutually exclusive")
		}
		var closeDS func() error
		ds, closeDS, err = dataset.OpenBinary(*inBinary, *mmapIndex && persist.MmapSupported)
		if err != nil {
			return err
		}
		defer closeDS()
	} else {
		var r io.Reader = os.Stdin
		if *in != "" {
			f, err := os.Open(*in)
			if err != nil {
				return err
			}
			defer f.Close()
			r = f
		}
		if ds, err = dataset.ReadCSV(r); err != nil {
			return err
		}
	}
	fmt.Fprintf(stderr, "lshcluster: loaded %s\n", ds)
	if *writeBinary != "" {
		if err := dataset.WriteBinary(ds, *writeBinary); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "lshcluster: wrote binary dataset to %s\n", *writeBinary)
	}

	var space *kmodes.Space
	switch *initMethod {
	case "random":
		space, err = kmodes.NewSpace(ds, kmodes.Config{K: *k, Seed: *seed})
	case "huang":
		var seeds []int32
		if seeds, err = kmodes.InitHuang(ds, *k, *seed); err == nil {
			space, err = kmodes.NewSpaceFromSeeds(ds, seeds, kmodes.Config{Seed: *seed})
		}
	case "cao":
		var seeds []int32
		if seeds, err = kmodes.InitCao(ds, *k); err == nil {
			space, err = kmodes.NewSpaceFromSeeds(ds, seeds, kmodes.Config{Seed: *seed})
		}
	default:
		return fmt.Errorf("unknown -init %q (want random, huang or cao)", *initMethod)
	}
	if err != nil {
		return err
	}
	opts := core.Options{
		MaxIterations:            *maxIter,
		EarlyAbandon:             *abandon,
		Workers:                  *workers,
		Shards:                   *shards,
		ForeignSlotBudget:        *foreignBudget,
		DisableForeignSlots:      *noForeign,
		ScalarKernels:            *scalarKernels,
		DisableIncremental:       *noIncremental,
		DisableActiveFilter:      *noActive,
		DisableParallelBootstrap: *noParallelBoot,
		DisableReorder:           *noReorder,
		IndexDir:                 indexDir,
		DisableMmap:              !*mmapIndex,
		ShardMemoryBudget:        *memBudget,
		SnapshotEvery:            *snapshotEvery,
		ChaosSpec:                *chaosSpec,
		RetryBudget:              *retryBudget,
		HedgeAfter:               *hedgeAfter,
		DisableHedging:           *noHedging,
		OnIteration: func(it runstats.Iteration) {
			fmt.Fprintf(stderr, "lshcluster: iter %d: %v, %d moves, avg shortlist %.2f\n",
				it.Index, it.Duration.Round(it.Duration/100+1), it.Moves, it.AvgShortlist)
		},
	}
	if *lowestTie {
		opts.TieBreak = core.TieBreakLowestIndex
	}
	if *seeded {
		opts.Bootstrap = core.BootstrapSeeded
	}
	var accel *core.MinHashAccelerator
	if !*exact {
		accel, err = core.NewMinHashAccelerator(ds, lsh.Params{Bands: *bands, Rows: *rows}, uint64(*seed))
		if err != nil {
			return err
		}
		opts.Accelerator = accel
		if *workers > 1 {
			opts.Update = core.UpdateDeferred
		}
	}
	if *serveQueries > 0 && *exact {
		return fmt.Errorf("-serve-queries needs LSH acceleration (drop -exact)")
	}
	res, err := core.Run(space, opts)
	if err != nil {
		return err
	}
	run := res.Stats
	fmt.Fprintf(stderr, "lshcluster: bootstrap %v (sign %v, build %v, assign %v)\n",
		run.Bootstrap.Round(time.Millisecond),
		run.BootstrapSign.Round(time.Millisecond),
		run.BootstrapBuild.Round(time.Millisecond),
		run.BootstrapAssign.Round(time.Millisecond))
	if run.Shards > 1 {
		slowest := 0
		for s, d := range run.BootstrapBuildShards {
			if d > run.BootstrapBuildShards[slowest] {
				slowest = s
			}
		}
		var slowestBuild time.Duration
		if len(run.BootstrapBuildShards) > 0 {
			slowestBuild = run.BootstrapBuildShards[slowest]
		}
		fanOut := "key-probe fan-out"
		if run.ForeignSlotBytes > 0 {
			fanOut = fmt.Sprintf("foreign-slot fan-out, %d KiB", run.ForeignSlotBytes/1024)
		}
		locality := ""
		if frac := run.ShardLocalFrac(); !math.IsNaN(frac) {
			locality = fmt.Sprintf("; shard-local candidate fraction %.2f", frac)
		}
		fmt.Fprintf(stderr, "lshcluster: %d index shards (slowest build: shard %d at %v; cross-shard merge %v; %s, probe fraction %.2f%s)\n",
			run.Shards, slowest, slowestBuild.Round(time.Millisecond),
			run.CrossShardMerge.Round(time.Millisecond),
			fanOut, run.CrossShardProbeFrac(), locality)
	}
	if run.WarmStart {
		fmt.Fprintf(stderr, "lshcluster: warm start: index loaded from %s in %v (skipped signing, build and first scan)\n",
			indexDir, run.IndexLoadTime.Round(time.Millisecond))
	} else if indexDir != "" {
		fmt.Fprintf(stderr, "lshcluster: cold start: index built and saved to %s in %v\n",
			indexDir, run.IndexSaveTime.Round(time.Millisecond))
	}
	if run.MmapBytes > 0 {
		fmt.Fprintf(stderr, "lshcluster: index served zero-copy from a %d KiB memory mapping\n", run.MmapBytes/1024)
	}
	if run.ShardPromotions > 0 || run.ShardDemotions > 0 {
		fmt.Fprintf(stderr, "lshcluster: residency: %d shard(s) resident at end under the %d KiB budget (%d promotions, %d demotions)\n",
			run.ResidentShards, *memBudget/1024, run.ShardPromotions, run.ShardDemotions)
	}
	if run.ResumedAt > 1 {
		fmt.Fprintf(stderr, "lshcluster: resumed from checkpoint at iteration %d\n", run.ResumedAt)
	}
	if run.ReorderTime > 0 {
		fmt.Fprintf(stderr, "lshcluster: locality reorder %v (items permuted so co-colliding IDs are contiguous; output stays in original-ID space)\n",
			run.ReorderTime.Round(time.Millisecond))
	}
	if run.DegradedItems > 0 || run.SkippedShards > 0 || run.ShardRetries > 0 || run.HedgedCalls > 0 {
		fmt.Fprintf(stderr, "lshcluster: DEGRADED: %d item evaluations on partial shortlists; %d shard(s) failed past the retry budget (%d retries, %d timeouts, %d hedged calls, %d hedge wins)\n",
			run.DegradedItems, run.SkippedShards,
			run.ShardRetries, run.ShardTimeouts, run.HedgedCalls, run.HedgeWins)
	}
	if *exact {
		run.Name = "K-Modes"
	} else {
		run.Name = fmt.Sprintf("MH-K-Modes %db %dr", *bands, *rows)
	}
	if ds.Labeled() {
		p, err := metrics.Purity(res.Assign, ds.Labels())
		if err != nil {
			return err
		}
		run.Purity = p
	}
	if err := runstats.WriteSummaryMarkdown(stdout, []*runstats.Run{&run}); err != nil {
		return err
	}

	if *assignOut != "" {
		if err := writeAssignments(*assignOut, res.Assign); err != nil {
			return err
		}
	}
	if *modelOut != "" {
		f, err := os.Create(*modelOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := space.Model().Save(f); err != nil {
			return err
		}
	}
	if *statsCSV != "" {
		f, err := os.Create(*statsCSV)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := runstats.WriteCSV(f, []*runstats.Run{&run}); err != nil {
			return err
		}
	}
	if *serveQueries > 0 {
		if err := serveDemo(stderr, accel, ds.NumItems(), *chaosSpec, *serveQueries, *serveClients, *serveInflight); err != nil {
			return err
		}
	}
	return nil
}

// serveDemo drives the concurrent multi-shard serving layer over the
// just-built index: client goroutines issue shortlist queries
// round-robin over the items, each query fanning out through the
// server's goroutine-isolated, backpressured shard backends
// (chaos-wrapped when a spec is given, with an injection stream
// independent of the clustering run's), and the served buckets are
// compared against a direct fan-out over the same shards to measure
// the recall the faults cost.
func serveDemo(stderr io.Writer, accel *core.MinHashAccelerator, n int, spec string, queries, clients, inflight int) error {
	ix := accel.Index()
	bands := accel.Params().Bands
	locals := ix.LocalBackends()
	backends := locals
	if spec != "" {
		cs, err := serve.ParseChaosSpec(spec)
		if err != nil {
			return err
		}
		// Salt 2: independent of the clustering run's primaries (salt 0)
		// and hedge mirrors (salt 1).
		backends = cs.Wrap(locals, 2)
	}
	srv := serve.NewServer(backends, bands, inflight)
	if clients < 1 {
		clients = 1
	}
	// served/oracle count emitted buckets through the server versus the
	// direct fan-out; partial counts queries that lost ≥ 1 shard.
	type clientStats struct {
		served, oracle int64
		partial, done  int64
	}
	stats := make([]clientStats, clients)
	ctx := context.Background()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &stats[c]
			keys := make([]uint64, bands)
			for q := c; q < queries; q += clients {
				item := int32(q % n)
				if !ix.ItemKeysOf(item, keys) {
					continue
				}
				served := 0
				skipped, err := srv.Candidates(ctx, keys, func(int, []int32) { served++ })
				if err != nil {
					continue
				}
				oracle := 0
				for _, b := range locals {
					_ = b.Candidates(ctx, keys, func(int, []int32) { oracle++ })
				}
				st.served += int64(served)
				st.oracle += int64(oracle)
				if skipped > 0 {
					st.partial++
				}
				st.done++
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var served, oracle, partial, done int64
	for i := range stats {
		served += stats[i].served
		oracle += stats[i].oracle
		partial += stats[i].partial
		done += stats[i].done
	}
	recall := 1.0
	if oracle > 0 {
		recall = float64(served) / float64(oracle)
	}
	fmt.Fprintf(stderr, "lshcluster: serve: %d queries via %d clients in %v (%.0f qps); %d partial; bucket recall %.4f\n",
		done, clients, elapsed.Round(time.Millisecond),
		float64(done)/elapsed.Seconds(), partial, recall)
	for s, rep := range srv.Report() {
		fmt.Fprintf(stderr, "lshcluster: serve: shard %d: %d calls, %d errors, %d stragglers, mean %v, max %v\n",
			s, rep.Calls, rep.Errors, rep.Stragglers,
			rep.Mean.Round(time.Microsecond), rep.Max.Round(time.Microsecond))
	}
	fmt.Fprintf(stderr, "lshcluster: serve: straggler order (worst first): %v\n", srv.Slowest())
	return nil
}

func writeAssignments(path string, assign []int32) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	cw := csv.NewWriter(f)
	if err := cw.Write([]string{"item", "cluster"}); err != nil {
		return err
	}
	for i, c := range assign {
		if err := cw.Write([]string{strconv.Itoa(i), strconv.Itoa(int(c))}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

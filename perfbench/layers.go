package main

import (
	"slices"
	"time"

	"lshcluster/perfbench/trace"
)

// layerNames lists every per-layer metric a traced run reports, in the
// order BENCHMARK.json declares them. Layers a workload does not
// exercise report 0: that is the "no change" side of each contrast.
var layerNames = []string{
	"minhash.sign_s", "simhash.sign_s",
	"lsh.build_s", "lsh.reorder_s", "lsh.buckets", "lsh.bucket_mean",
	"core.bootstrap_s", "core.first_scan_s", "core.first_scan_comparisons",
	"persist.load_s", "persist.mapped_mib", "persist.save_s", "persist.written_mib",
	"lsh.foreign_s", "lsh.foreign_mib",
	"kmodes.begin_s", "kmeans.begin_s",
	"lsh.query_s", "lsh.query_positions", "lsh.query_yield", "lsh.shortlist_mean",
	"lsh.shard_local_frac", "lsh.probe_frac",
	"core.evaluate_s", "core.comparisons", "core.pass_s", "core.iterations",
	"core.evaluated_items", "core.active_frac", "core.moves", "core.move_yield",
	"lsh.reverse_s", "lsh.reverse_sources",
	"kmodes.update_s", "kmeans.update_s", "kmodes.moves_applied",
	"stream.add_p50_us", "stream.add_p99_us", "stream.add_p9999_us",
	"stream.add_shortlist_p50_us", "stream.add_fallback_p50_us", "stream.full_scan_frac",
	"stream.shortlist_mean", "stream.comparisons",
	"runtime.gc_count", "runtime.gc_pause_s", "runtime.heap_peak_mib", "host.steal_frac",
	"trace.overhead_frac", "trace.unattributed_s", "trace.unattributed_frac",
}

// setupLayerNames are the layers of kmodes-warm's set-up trace (its cold
// S=4 bootstrap with save), reported with a "setup." prefix next to
// kmodes-cold's unprefixed S=1 ones.
var setupLayerNames = []string{
	"minhash.sign_s", "lsh.build_s", "lsh.reorder_s", "lsh.foreign_s", "lsh.foreign_mib",
	"persist.save_s", "persist.written_mib", "core.first_scan_s", "kmodes.begin_s",
	"core.bootstrap_s", "trace.unattributed_s",
}

func seconds(ns int64) float64 { return time.Duration(ns).Seconds() }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns a traced run's spans and the counters the library
// exports into per-layer metrics, and returns each span kind's wall
// share alongside.
func layerMetrics(o *outcome, t *tracer) (map[string]float64, map[string]float64) {
	tot := trace.Summarize(t.rec.Spans())
	get := func(n trace.Name) trace.Totals {
		if x := tot[n]; x != nil {
			return *x
		}
		return trace.Totals{}
	}
	m := make(map[string]float64, len(layerNames))
	for _, n := range layerNames {
		m[n] = 0
	}
	st := o.stats

	m["minhash.sign_s"] = seconds(get(spanMHSign).DurNs)
	m["simhash.sign_s"] = seconds(get(spanSHSign).DurNs)

	// BuildFrozen is one public call; the counters the library exports
	// split it: reorder from Sharded.ReorderTime, save from
	// Run.IndexSaveTime, the shard builds from Sharded.BuildTimes, and
	// foreign-slot materialisation is the remainder.
	if build := get(spanBuild); build.Count > 0 && o.accel != nil && o.accel.Index() != nil {
		ix := o.accel.Index()
		shardWall := shardBuildWall(ix.BuildTimes(), o.workers)
		m["lsh.build_s"] = shardWall.Seconds()
		m["lsh.reorder_s"] = ix.ReorderTime().Seconds()
		m["persist.save_s"] = st.IndexSaveTime.Seconds()
		rest := time.Duration(build.DurNs) - shardWall - ix.ReorderTime() - st.IndexSaveTime
		m["lsh.foreign_s"] = max(rest, 0).Seconds()
	}
	if o.accel != nil && o.accel.Index() != nil {
		ix := o.accel.Index()
		bs := ix.Stats()
		m["lsh.buckets"] = float64(bs.Buckets)
		m["lsh.bucket_mean"] = bs.MeanBucketLen
		local, foreign := ix.FanOutLocality()
		m["lsh.shard_local_frac"] = ratio(float64(local), float64(local+foreign))
		probes, direct := ix.FanOutOps()
		m["lsh.probe_frac"] = ratio(float64(probes), float64(probes+direct))
		m["lsh.foreign_mib"] = float64(ix.ForeignSlotBytes()) / (1 << 20)
	}

	n := 0
	if o.accel != nil && o.accel.Index() != nil {
		n = o.accel.Index().NumInserted()
	}
	m["core.first_scan_s"] = st.BootstrapAssign.Seconds()
	if !st.WarmStart && len(st.Iterations) > 0 {
		m["core.first_scan_comparisons"] = float64(n) * float64(o.k)
	}
	if st.WarmStart {
		m["persist.load_s"] = seconds(get(spanMHReset).DurNs + get(spanSHReset).DurNs)
	}
	m["persist.mapped_mib"] = float64(st.MmapBytes) / (1 << 20)

	m["kmodes.begin_s"] = seconds(get(spanKMBegin).DurNs)
	m["kmeans.begin_s"] = seconds(get(spanKNBegin).DurNs)

	var evaluated, cands, comps, moves int64
	var pass time.Duration
	for _, it := range st.Iterations {
		evaluated += int64(it.ActiveItems)
		cands += it.CandidatesTotal
		comps += it.Comparisons
		moves += int64(it.Moves)
		pass += it.Duration
	}
	positions := float64(t.positions())
	m["lsh.query_s"] = seconds(get(spanQuery).SelfNs)
	m["lsh.query_positions"] = positions
	m["lsh.query_yield"] = ratio(float64(evaluated), positions)
	m["lsh.shortlist_mean"] = ratio(float64(cands), float64(evaluated))
	m["core.evaluate_s"] = seconds(get(spanEvaluate).SelfNs)
	m["core.comparisons"] = float64(comps)
	m["core.pass_s"] = pass.Seconds()
	m["core.iterations"] = float64(len(st.Iterations))
	m["core.evaluated_items"] = float64(evaluated)
	m["core.active_frac"] = ratio(float64(evaluated), float64(n)*float64(len(st.Iterations)))
	m["core.moves"] = float64(moves)
	m["core.move_yield"] = ratio(float64(moves), float64(evaluated))

	m["lsh.reverse_s"] = seconds(get(spanAddSource).SelfNs + get(spanEmit).SelfNs)
	m["lsh.reverse_sources"] = float64(get(spanAddSource).Count)
	m["kmodes.update_s"] = seconds(get(spanKMApply).SelfNs + get(spanKMFinish).SelfNs +
		get(spanKMCost).SelfNs + get(spanKMChanged).SelfNs)
	m["kmeans.update_s"] = seconds(get(spanKNApply).SelfNs + get(spanKNFinish).SelfNs +
		get(spanKNCost).SelfNs + get(spanKNChanged).SelfNs)
	m["kmodes.moves_applied"] = float64(get(spanKMApply).Count)

	if o.adds > 0 {
		ss := o.streamStats
		if v, err := percentile(o.shortlistLat, 0.5); err == nil {
			m["stream.add_shortlist_p50_us"] = v / 1e3
		}
		if v, err := percentile(o.fallbackLat, 0.5); err == nil {
			m["stream.add_fallback_p50_us"] = v / 1e3
		}
		m["stream.full_scan_frac"] = ratio(float64(ss.FullScans), float64(ss.Items))
		m["stream.shortlist_mean"] = ratio(float64(ss.CandidatesTotal), float64(ss.Items))
		m["stream.comparisons"] = float64(ss.Comparisons)
	}

	m["runtime.gc_count"] = float64(o.use.gcCount)
	m["runtime.gc_pause_s"] = o.use.gcPause.Seconds()
	m["host.steal_frac"] = o.use.stealFrac

	// Attribution: every span kind's share of wall time, plus the first
	// scan, which runs inside core.Run without a decorated call of its
	// own and is timed by Run.BootstrapAssign. What is left of the run's
	// total is core.Run's own, unattributed work.
	wall := make(map[string]float64, len(tot))
	var attributed time.Duration
	for name, x := range tot {
		wall[name.String()] = seconds(x.WallNs)
		if name != spanRun {
			attributed += time.Duration(x.WallNs)
		}
	}
	wall["core.first_scan"] = st.BootstrapAssign.Seconds()
	wall[spanRun.String()] -= st.BootstrapAssign.Seconds()
	attributed += st.BootstrapAssign
	rest := o.total - attributed
	m["trace.unattributed_s"] = rest.Seconds()
	m["trace.unattributed_frac"] = ratio(rest.Seconds(), o.total.Seconds())
	m["core.bootstrap_s"] = st.Bootstrap.Seconds()
	return m, wall
}

// shardBuildWall reconstructs the wall time of the per-shard frozen
// builds from their individual durations: lsh.Sharded builds shards
// round-robin on min(workers, shards) goroutines, so the wall time is the
// busiest goroutine's sum.
func shardBuildWall(times []time.Duration, workers int) time.Duration {
	lanes := min(max(workers, 1), len(times))
	if lanes == 0 {
		return 0
	}
	sums := make([]time.Duration, lanes)
	for s, d := range times {
		sums[s%lanes] += d
	}
	return slices.Max(sums)
}

package main

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"

	"lshcluster/internal/core"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/simhash"
	"lshcluster/perfbench/trace"
)

// Decorators for the traced run. Each embeds the concrete value the
// untraced run passes to the library, so every optional core capability
// is promoted unchanged and core.Run takes the same path; each
// overrides only coarse methods, never Dissimilarity (about 1e8 calls in
// one cold bootstrap).

var (
	spanRun        = trace.Register("core.Run")
	spanMHReset    = trace.Register("minhash.Reset")
	spanMHSign     = trace.Register("minhash.SignAll")
	spanSHReset    = trace.Register("simhash.Reset")
	spanSHSign     = trace.Register("simhash.SignAll")
	spanBuild      = trace.Register("lsh.BuildFrozen")
	spanNewQuerier = trace.Register("lsh.NewQuerier")
	spanNewReverse = trace.Register("lsh.NewReverse")
	spanQuery      = trace.Register("lsh.Candidates")
	spanEvaluate   = trace.Register("core.evaluate")
	spanAddSource  = trace.Register("lsh.AddSource")
	spanEmit       = trace.Register("lsh.Emit")
	spanKMBegin    = trace.Register("kmodes.BeginIncremental")
	spanKMApply    = trace.Register("kmodes.ApplyMove")
	spanKMFinish   = trace.Register("kmodes.FinishPass")
	spanKMCost     = trace.Register("kmodes.IncrementalCost")
	spanKMChanged  = trace.Register("kmodes.ChangedClusters")
	spanKNBegin    = trace.Register("kmeans.BeginIncremental")
	spanKNApply    = trace.Register("kmeans.ApplyMove")
	spanKNFinish   = trace.Register("kmeans.FinishPass")
	spanKNCost     = trace.Register("kmeans.IncrementalCost")
	spanKNChanged  = trace.Register("kmeans.ChangedClusters")
	spanStreamNew  = trace.Register("stream.New")
	spanStreamAdd  = trace.Register("stream.Add")
)

// tracer is the span sink of one traced run. Every decorated call except
// a querier's runs on the goroutine that called core.Run, so those spans
// go to main; a querier records into the buffer of the goroutine that
// created it, which is the goroutine that uses it.
type tracer struct {
	rec   *trace.Recorder
	main  *trace.Buffer
	mainG uint64

	mu       sync.Mutex
	queriers []*tracedQuerier
}

func newTracer() *tracer {
	rec := trace.NewRecorder()
	return &tracer{rec: rec, main: rec.NewBuffer(nil), mainG: goroutineID()}
}

// span opens a span on the main buffer and returns its closer.
func (t *tracer) span(n trace.Name) func() {
	t.main.Begin(n)
	return t.main.End
}

// positions is the number of items handed to shortlist queries.
func (t *tracer) positions() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n int64
	for _, q := range t.queriers {
		n += q.positions
	}
	return n
}

// goroutineID parses the current goroutine's ID from its stack header.
// It costs about a microsecond, so it is only called when a querier is
// created.
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		b = b[:i]
	}
	id, _ := strconv.ParseUint(string(b), 10, 64)
	return id
}

func (t *tracer) wrapReverse(rv core.ReverseView) core.ReverseView {
	if r, ok := rv.(*lsh.ShardedReverse); ok {
		return &tracedReverse{ShardedReverse: r, t: t}
	}
	return rv
}

// tracedMinHash decorates the MinHash accelerator.
type tracedMinHash struct {
	*core.MinHashAccelerator
	t *tracer
}

func (a *tracedMinHash) Reset(k int) error {
	defer a.t.span(spanMHReset)()
	return a.MinHashAccelerator.Reset(k)
}

func (a *tracedMinHash) SignAll(workers int, stop func() bool) error {
	defer a.t.span(spanMHSign)()
	return a.MinHashAccelerator.SignAll(workers, stop)
}

func (a *tracedMinHash) BuildFrozen(workers int) error {
	defer a.t.span(spanBuild)()
	return a.MinHashAccelerator.BuildFrozen(workers)
}

func (a *tracedMinHash) NewQuerier() core.Querier {
	return a.t.newQuerier(a.MinHashAccelerator.NewQuerier)
}

func (a *tracedMinHash) NewReverse() core.ReverseView {
	defer a.t.span(spanNewReverse)()
	return a.t.wrapReverse(a.MinHashAccelerator.NewReverse())
}

// tracedSimHash decorates the SimHash accelerator.
type tracedSimHash struct {
	*simhash.Accelerator
	t *tracer
}

func (a *tracedSimHash) Reset(k int) error {
	defer a.t.span(spanSHReset)()
	return a.Accelerator.Reset(k)
}

func (a *tracedSimHash) SignAll(workers int, stop func() bool) error {
	defer a.t.span(spanSHSign)()
	return a.Accelerator.SignAll(workers, stop)
}

func (a *tracedSimHash) BuildFrozen(workers int) error {
	defer a.t.span(spanBuild)()
	return a.Accelerator.BuildFrozen(workers)
}

func (a *tracedSimHash) NewQuerier() core.Querier {
	return a.t.newQuerier(a.Accelerator.NewQuerier)
}

func (a *tracedSimHash) NewReverse() core.ReverseView {
	defer a.t.span(spanNewReverse)()
	return a.t.wrapReverse(a.Accelerator.NewReverse())
}

// newQuerier creates and decorates a querier. Its creation is timed on
// the buffer of the goroutine that asked for it, which is the goroutine
// that will use it: core.Run's caller for serial passes, a fresh buffer
// for each parallel worker.
func (t *tracer) newQuerier(newQ func() core.Querier) core.Querier {
	buf := t.main
	if goroutineID() != t.mainG {
		buf = t.rec.NewBuffer(t.main)
	}
	buf.Begin(spanNewQuerier)
	q := newQ()
	buf.End()
	iq, ok := q.(*core.IndexQuerier)
	if !ok {
		return q
	}
	tq := &tracedQuerier{IndexQuerier: iq, buf: buf}
	t.mu.Lock()
	t.queriers = append(t.queriers, tq)
	t.mu.Unlock()
	return tq
}

// tracedQuerier decorates a shortlist querier. The emit callback is
// wrapped so that evaluation shows as a child span of the query, and the
// query's self time excludes it.
type tracedQuerier struct {
	*core.IndexQuerier
	buf       *trace.Buffer
	positions int64
}

func (q *tracedQuerier) Candidates(item int32, assign []int32) []int32 {
	q.buf.Begin(spanQuery)
	defer q.buf.End()
	q.positions++
	return q.IndexQuerier.Candidates(item, assign)
}

func (q *tracedQuerier) CandidatesBlock(items []int32, assign []int32, emit func(pos int, shortlist []int32)) {
	b := q.buf
	b.Begin(spanQuery)
	q.positions += int64(len(items))
	q.IndexQuerier.CandidatesBlock(items, assign, func(pos int, shortlist []int32) {
		b.Begin(spanEvaluate)
		emit(pos, shortlist)
		b.End()
	})
	b.End()
}

// tracedReverse decorates the active-set reverse-collision view.
type tracedReverse struct {
	*lsh.ShardedReverse
	t *tracer
}

func (r *tracedReverse) AddSource(item int32) {
	defer r.t.span(spanAddSource)()
	r.ShardedReverse.AddSource(item)
}

func (r *tracedReverse) Emit(fn func(item int32) bool) {
	defer r.t.span(spanEmit)()
	r.ShardedReverse.Emit(fn)
}

// tracedKModes decorates the K-Modes space's incremental engine.
type tracedKModes struct {
	*kmodes.Space
	t *tracer
}

func (s *tracedKModes) BeginIncremental(assign []int32, trackCost bool) {
	defer s.t.span(spanKMBegin)()
	s.Space.BeginIncremental(assign, trackCost)
}

func (s *tracedKModes) ApplyMove(item int, from, to int32) {
	defer s.t.span(spanKMApply)()
	s.Space.ApplyMove(item, from, to)
}

func (s *tracedKModes) FinishPass(assign []int32) {
	defer s.t.span(spanKMFinish)()
	s.Space.FinishPass(assign)
}

func (s *tracedKModes) IncrementalCost(assign []int32) float64 {
	defer s.t.span(spanKMCost)()
	return s.Space.IncrementalCost(assign)
}

func (s *tracedKModes) ChangedClusters() []int32 {
	defer s.t.span(spanKMChanged)()
	return s.Space.ChangedClusters()
}

// tracedKMeans decorates the K-Means space's incremental engine.
type tracedKMeans struct {
	*kmeans.Space
	t *tracer
}

func (s *tracedKMeans) BeginIncremental(assign []int32, trackCost bool) {
	defer s.t.span(spanKNBegin)()
	s.Space.BeginIncremental(assign, trackCost)
}

func (s *tracedKMeans) ApplyMove(item int, from, to int32) {
	defer s.t.span(spanKNApply)()
	s.Space.ApplyMove(item, from, to)
}

func (s *tracedKMeans) FinishPass(assign []int32) {
	defer s.t.span(spanKNFinish)()
	s.Space.FinishPass(assign)
}

func (s *tracedKMeans) IncrementalCost(assign []int32) float64 {
	defer s.t.span(spanKNCost)()
	return s.Space.IncrementalCost(assign)
}

func (s *tracedKMeans) ChangedClusters() []int32 {
	defer s.t.span(spanKNChanged)()
	return s.Space.ChangedClusters()
}

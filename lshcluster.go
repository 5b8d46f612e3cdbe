package lshcluster

import (
	"context"
	"fmt"
	"io"
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
	"lshcluster/internal/textproc"
	"lshcluster/internal/yahoogen"
)

// Re-exported building blocks. The implementation lives under internal/
// (one package per subsystem, see DESIGN.md); these aliases are the
// stable public surface.
type (
	// Dataset is a categorical dataset: n items × m attributes with
	// interned values, optional ground-truth labels and presence flags.
	Dataset = dataset.Dataset
	// Builder assembles a Dataset from raw string rows.
	Builder = dataset.Builder
	// Dict interns (attribute, value) pairs to dense IDs.
	Dict = dataset.Dict
	// Value is an interned categorical value identifier.
	Value = dataset.Value
	// Params is an LSH banding configuration: Bands × Rows hash values.
	Params = lsh.Params
	// TableRow is one line of a Table I/II-style probability grid.
	TableRow = lsh.TableRow
	// Run aggregates the per-iteration statistics of one clustering
	// execution.
	Run = runstats.Run
	// Iteration records one assignment+update pass.
	Iteration = runstats.Iteration
	// Model is a serialisable snapshot of trained K-Modes cluster modes.
	Model = kmodes.Model
	// SyntheticConfig parameterises the datgen-style workload generator.
	SyntheticConfig = datagen.Config
	// CorpusConfig parameterises the Yahoo!-Answers-style corpus
	// generator.
	CorpusConfig = yahoogen.Config
	// Corpus is a generated topic-labelled question collection.
	Corpus = yahoogen.Corpus
	// Scorer computes per-topic TF-IDF scores.
	Scorer = textproc.Scorer
	// VocabConfig controls TF-IDF vocabulary selection.
	VocabConfig = textproc.VocabConfig
	// Vocabulary is an ordered word list backing binary text features.
	Vocabulary = textproc.Vocabulary
	// Document is one tokenised text item with an optional label.
	Document = textproc.Document
)

// InitMethod selects how initial centroids are chosen.
type InitMethod int

const (
	// InitRandom picks k distinct random items (the paper's default).
	InitRandom InitMethod = iota
	// InitHuang uses Huang's frequency-based initialisation [3].
	InitHuang
	// InitCao uses the deterministic density–distance method of Cao,
	// Liang & Bai [22]. O(n²·m) — intended for moderate n.
	InitCao
)

// Config configures a clustering run. The zero value of every field is a
// sensible default; only K is required.
type Config struct {
	// K is the number of clusters.
	K int
	// Init selects the initial-centroid strategy (categorical spaces).
	Init InitMethod
	// LSH enables MinHash/SimHash acceleration with the given banding
	// parameters; nil runs the exact algorithm.
	LSH *Params
	// Seed drives centroid selection and hashing (default 0 is a valid
	// seed).
	Seed int64
	// MaxIterations caps the iteration count (0 = 100).
	MaxIterations int
	// Workers parallelises the assignment step and the bootstrap
	// (signing, index construction and the first assignment); values
	// > 1 imply deferred reference updates.
	Workers int
	// Shards partitions the LSH index into this many item shards:
	// shards build concurrently from disjoint slices of the signing
	// arena and each keeps its own cache-resident hash tables, while
	// queries fan out across shards and merge back into the
	// single-index candidate order — results are bit-identical for
	// every shard count. Values < 2 keep the unsharded index (the
	// oracle). Ignored for exact runs.
	Shards int
	// ForeignSlotBudget caps the memory (bytes) a sharded LSH index may
	// spend on materialised cross-shard fan-out arrays, which replace
	// per-query key-table probes of foreign shards with direct indexed
	// loads. 0 selects the default budget (64 MiB), negative means
	// unlimited; over budget the index transparently keeps probing.
	// Results are bit-identical either way. Ignored with Shards < 2.
	ForeignSlotBudget int64
	// DisableForeignSlots pins the cross-shard fan-out to the key-probe
	// path regardless of budget (the correctness oracle and A/B
	// baseline for the materialised arrays).
	DisableForeignSlots bool
	// ScalarKernels routes the hot-loop distance and signing kernels
	// through their scalar references instead of the unrolled versions
	// (results are bit-identical either way); this switch is the
	// correctness oracle and A/B baseline for the kernels.
	ScalarKernels bool
	// EarlyAbandon stops distance evaluations that provably cannot beat
	// the best candidate so far.
	EarlyAbandon bool
	// SeededBootstrap replaces the paper's exact first pass with the
	// incremental seeded-index bootstrap.
	SeededBootstrap bool
	// DeferredUpdates makes LSH queries read the assignment snapshot
	// from the start of each pass (the paper updates references
	// immediately).
	DeferredUpdates bool
	// LowestIndexTies breaks distance ties towards the lowest cluster
	// index (numpy-argmin style) instead of keeping the current cluster.
	LowestIndexTies bool
	// DisableIncremental forces full centroid/cost recomputation each
	// pass even when the space supports incremental updates. The batch
	// path is the correctness oracle for the incremental engine
	// (results are bit-identical either way); it implies
	// DisableActiveFilter, which needs the engine's change reports.
	DisableIncremental bool
	// DisableActiveFilter forces every post-bootstrap assignment pass
	// to evaluate all n items. By default accelerated runs skip items
	// whose cluster neighbourhood provably did not change since the
	// previous pass (results are bit-identical either way); this
	// switch is the correctness oracle and A/B baseline.
	DisableActiveFilter bool
	// DisableParallelBootstrap forces the serial bootstrap — the
	// per-item sign+insert loop and single-threaded first assignment —
	// instead of the parallel sign → build → assign pipeline (results
	// are bit-identical either way); this switch is the correctness
	// oracle and A/B baseline.
	DisableParallelBootstrap bool
	// DisableReorder forces the sharded LSH index to build in original
	// item order instead of applying the locality-preserving
	// permutation that makes co-colliding items contiguous (results
	// are bit-identical either way — assignments, stats and CSV always
	// report original item IDs); this switch is the correctness oracle
	// and A/B baseline. Implied by ChaosSpec.
	DisableReorder bool
	// IndexDir, when non-empty, makes the LSH bootstrap durable: a cold
	// run saves the frozen index and the exact first assignment into
	// this directory, and later runs with the same data, parameters and
	// seed warm-start from it — skipping signing, index construction and
	// the first full scan, with bit-identical results. The saved index
	// is pinned to the dataset fingerprint, parameters, seed, shard
	// count and reorder setting; any mismatch is an error, never a
	// silent rebuild. Requires an LSH run with the parallel bootstrap
	// (not SeededBootstrap, not DisableParallelBootstrap).
	IndexDir string
	// DisableMmap loads a persisted index by copying it onto the heap
	// instead of memory-mapping it zero-copy (results are bit-identical
	// either way); this switch is the correctness oracle and A/B
	// baseline for the mapped load. Ignored without IndexDir.
	DisableMmap bool
	// ShardMemoryBudget, when > 0, caps the resident bytes of a
	// memory-mapped persisted index: whole shards page out past the
	// budget and page back in when queried — slower, never wrong.
	// Ignored without IndexDir or with DisableMmap.
	ShardMemoryBudget int64
	// SnapshotEvery, when > 0, checkpoints the run state into IndexDir
	// every SnapshotEvery iterations and resumes interrupted runs from
	// the latest checkpoint. Requires IndexDir.
	SnapshotEvery int
	// ChaosSpec, when non-empty, routes the sharded LSH index's
	// cross-shard fan-out through the fault-tolerant backend layer with
	// the given fault-injection script (see internal/lsh/serve for the
	// grammar, e.g. "seed=1;err=0.05;shard2.dead"). Backend calls then
	// carry deadlines, bounded retries and hedged requests; shards down
	// past the retry budget degrade the run to partial shortlists —
	// recorded in Stats.DegradedItems — instead of failing it. A spec
	// injecting zero faults exercises the whole resilient path
	// bit-identically to the direct fan-out.
	ChaosSpec string
	// RetryBudget is the number of retries after a failed shard-backend
	// call (0 = default, negative = none). Ignored without ChaosSpec.
	RetryBudget int
	// HedgeAfter is the straggler threshold after which a shard-backend
	// call is hedged to a mirror replica (0 = default, negative disables
	// hedging). Ignored without ChaosSpec.
	HedgeAfter time.Duration
	// DisableHedging turns hedged shard-backend requests off, leaving
	// deadlines and retries in place (results are bit-identical either
	// way); this switch is the correctness oracle and A/B baseline for
	// the hedge race. Ignored without ChaosSpec.
	DisableHedging bool
	// OnIteration, when non-nil, receives each iteration's statistics
	// as it completes.
	OnIteration func(Iteration)
	// Context, when non-nil, cancels the run between passes.
	Context context.Context
}

func (c Config) coreOptions() core.Options {
	opts := core.Options{
		MaxIterations:            c.MaxIterations,
		EarlyAbandon:             c.EarlyAbandon,
		Workers:                  c.Workers,
		Shards:                   c.Shards,
		ForeignSlotBudget:        c.ForeignSlotBudget,
		DisableForeignSlots:      c.DisableForeignSlots,
		ScalarKernels:            c.ScalarKernels,
		IndexDir:                 c.IndexDir,
		DisableMmap:              c.DisableMmap,
		ShardMemoryBudget:        c.ShardMemoryBudget,
		SnapshotEvery:            c.SnapshotEvery,
		ChaosSpec:                c.ChaosSpec,
		RetryBudget:              c.RetryBudget,
		HedgeAfter:               c.HedgeAfter,
		DisableHedging:           c.DisableHedging,
		OnIteration:              c.OnIteration,
		Context:                  c.Context,
		DisableIncremental:       c.DisableIncremental,
		DisableActiveFilter:      c.DisableActiveFilter,
		DisableParallelBootstrap: c.DisableParallelBootstrap,
		DisableReorder:           c.DisableReorder,
	}
	if c.SeededBootstrap {
		opts.Bootstrap = core.BootstrapSeeded
	}
	if c.DeferredUpdates || c.Workers > 1 {
		opts.Update = core.UpdateDeferred
	}
	if c.LowestIndexTies {
		opts.TieBreak = core.TieBreakLowestIndex
	}
	return opts
}

// Result is the outcome of Cluster.
type Result struct {
	// Assign maps every item to its final cluster.
	Assign []int32
	// Stats records bootstrap and per-iteration measurements; Stats.Name
	// identifies the algorithm configuration.
	Stats Run
	// Model snapshots the trained modes for persistence or prediction.
	Model *Model
}

// Cluster partitions a categorical dataset into cfg.K clusters with
// K-Modes — exact when cfg.LSH is nil, MH-K-Modes otherwise. When the
// dataset carries ground-truth labels the result's Stats.Purity is
// filled.
func Cluster(ds *Dataset, cfg Config) (*Result, error) {
	var space *kmodes.Space
	var err error
	switch cfg.Init {
	case InitRandom:
		space, err = kmodes.NewSpace(ds, kmodes.Config{K: cfg.K, Seed: cfg.Seed})
	case InitHuang:
		var seeds []int32
		if seeds, err = kmodes.InitHuang(ds, cfg.K, cfg.Seed); err == nil {
			space, err = kmodes.NewSpaceFromSeeds(ds, seeds, kmodes.Config{Seed: cfg.Seed})
		}
	case InitCao:
		var seeds []int32
		if seeds, err = kmodes.InitCao(ds, cfg.K); err == nil {
			space, err = kmodes.NewSpaceFromSeeds(ds, seeds, kmodes.Config{Seed: cfg.Seed})
		}
	default:
		return nil, fmt.Errorf("lshcluster: unknown init method %d", cfg.Init)
	}
	if err != nil {
		return nil, err
	}
	opts := cfg.coreOptions()
	name := "K-Modes"
	if cfg.LSH != nil {
		accel, err := core.NewMinHashAccelerator(ds, *cfg.LSH, uint64(cfg.Seed)+0x9e37)
		if err != nil {
			return nil, err
		}
		opts.Accelerator = accel
		name = fmt.Sprintf("MH-K-Modes %v", *cfg.LSH)
	}
	res, err := core.Run(space, opts)
	if err != nil {
		return nil, err
	}
	out := &Result{Assign: res.Assign, Stats: res.Stats, Model: space.Model()}
	out.Stats.Name = name
	if ds.Labeled() {
		p, err := metrics.Purity(res.Assign, ds.Labels())
		if err != nil {
			return nil, err
		}
		out.Stats.Purity = p
	}
	return out, nil
}

// NumericResult is the outcome of ClusterNumeric.
type NumericResult struct {
	// Assign maps every point to its final cluster.
	Assign []int32
	// Stats records bootstrap and per-iteration measurements.
	Stats Run
	// Centroids holds the k final centroids, row-major (k·dim).
	Centroids []float64
}

// ClusterNumeric partitions dense numeric vectors (row-major, length
// n·dim) into cfg.K clusters with K-Means — exact when cfg.LSH is nil,
// SimHash-accelerated otherwise. This is the paper's further-work
// extension to numeric data.
func ClusterNumeric(points []float64, dim int, cfg Config) (*NumericResult, error) {
	space, err := kmeans.NewSpace(points, dim, kmeans.Config{K: cfg.K, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	opts := cfg.coreOptions()
	name := "K-Means"
	if cfg.LSH != nil {
		accel, err := simhash.NewAccelerator(space, *cfg.LSH, cfg.Seed+0x51)
		if err != nil {
			return nil, err
		}
		opts.Accelerator = accel
		name = fmt.Sprintf("SimHash-K-Means %v", *cfg.LSH)
	}
	res, err := core.Run(space, opts)
	if err != nil {
		return nil, err
	}
	centroids := make([]float64, cfg.K*dim)
	for c := 0; c < cfg.K; c++ {
		copy(centroids[c*dim:(c+1)*dim], space.Centroid(c))
	}
	out := &NumericResult{Assign: res.Assign, Stats: res.Stats, Centroids: centroids}
	out.Stats.Name = name
	return out, nil
}

// ReadCSV parses a dataset from CSV (header row of attribute names; a
// trailing "_label" column becomes ground truth).
func ReadCSV(r io.Reader) (*Dataset, error) { return dataset.ReadCSV(r) }

// WriteCSV serialises a dataset as CSV.
func WriteCSV(w io.Writer, ds *Dataset) error { return dataset.WriteCSV(w, ds) }

// NewBuilder creates a dataset builder for the given attributes.
func NewBuilder(attrNames []string) *Builder { return dataset.NewBuilder(attrNames) }

// NewDatasetFromValues assembles a dataset directly from pre-interned
// value IDs (row-major, n·m), e.g. a slice of an existing dataset's
// rows. labels may be nil.
func NewDatasetFromValues(attrNames []string, values []Value, labels []int32) (*Dataset, error) {
	return dataset.New(attrNames, values, labels, nil)
}

// GenerateSynthetic produces a paper-style synthetic categorical
// workload: per-cluster conjunctive rules over a shared domain, with
// ground-truth labels.
func GenerateSynthetic(cfg SyntheticConfig) (*Dataset, error) { return datagen.Generate(cfg) }

// GenerateCorpus produces a Yahoo!-Answers-style topic-labelled question
// corpus for text-clustering experiments.
func GenerateCorpus(cfg CorpusConfig) (*Corpus, error) { return yahoogen.Generate(cfg) }

// Tokenize lower-cases text and splits it into letter/digit runs.
func Tokenize(text string) []string { return textproc.Tokenize(text) }

// NewScorer creates an empty per-topic TF-IDF scorer.
func NewScorer() *Scorer { return textproc.NewScorer() }

// DefaultStopwords returns a fresh copy of the built-in English stopword
// set.
func DefaultStopwords() map[string]bool { return textproc.DefaultStopwords() }

// BuildBinaryDataset converts tokenised documents into binary
// word-presence items over the vocabulary, with absence markers
// invisible to MinHash.
func BuildBinaryDataset(docs []Document, vocab *Vocabulary) (*Dataset, error) {
	return textproc.BuildBinaryDataset(docs, vocab)
}

// WriteRunSummary renders a markdown table summarising runs (iterations,
// bootstrap, mean iteration time, total, moves, purity) — the quickest
// way to compare an exact and an accelerated execution.
func WriteRunSummary(w io.Writer, runs []*Run) error {
	return runstats.WriteSummaryMarkdown(w, runs)
}

// WriteRunCSV emits per-iteration statistics of runs in long CSV format
// for plotting.
func WriteRunCSV(w io.Writer, runs []*Run) error {
	return runstats.WriteCSV(w, runs)
}

// Purity scores an assignment against ground-truth labels (the paper's
// quality metric).
func Purity(assign, labels []int32) (float64, error) { return metrics.Purity(assign, labels) }

// NMI scores an assignment against ground-truth labels with normalised
// mutual information.
func NMI(assign, labels []int32) (float64, error) { return metrics.NMI(assign, labels) }

// SearchParams returns the cheapest banding configuration whose
// cluster-hit probability at similarity s with clusterItems similar
// items reaches targetProb.
func SearchParams(s float64, clusterItems int, targetProb float64, maxBands, maxRows int) (Params, bool) {
	return lsh.SearchParams(s, clusterItems, targetProb, maxBands, maxRows)
}

// TableI returns the paper's Table I probability grid.
func TableI() []TableRow { return lsh.TableI() }

// TableII returns the paper's Table II probability grid.
func TableII() []TableRow { return lsh.TableII() }

// LoadModel reads a K-Modes model written by Model.Save.
func LoadModel(r io.Reader) (*Model, error) { return kmodes.LoadModel(r) }

// GenerateBlobs produces Gaussian-blob numeric data with ground-truth
// labels for the K-Means extension.
func GenerateBlobs(cfg BlobsConfig) (points []float64, labels []int32, err error) {
	return kmeans.GenerateBlobs(cfg)
}

// BlobsConfig parameterises GenerateBlobs.
type BlobsConfig = kmeans.BlobsConfig

// Streaming types: the online clustering extension (paper §VI further
// work) — items are assigned one at a time through the LSH index, with
// modes maintained incrementally.
type (
	// StreamClusterer assigns a stream of categorical items to k
	// evolving modes.
	StreamClusterer = stream.Clusterer
	// StreamConfig parameterises NewStream.
	StreamConfig = stream.Config
	// StreamStats counts shortlist hits, full-scan fallbacks and
	// comparisons over the stream.
	StreamStats = stream.Stats
)

// NewStream creates a streaming clusterer.
func NewStream(cfg StreamConfig) (*StreamClusterer, error) { return stream.New(cfg) }

// StreamFromModel creates a streaming clusterer that continues from a
// trained batch model.
func StreamFromModel(model *Model, params Params, seed uint64) (*StreamClusterer, error) {
	return stream.FromModel(model, params, seed)
}

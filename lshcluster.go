package lshcluster

import (
	"context"
	"fmt"
	"io"

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
	// EarlyAbandon stops distance evaluations that provably cannot beat
	// the best candidate so far.
	EarlyAbandon bool
	// DeferredUpdates makes LSH queries read the assignment snapshot
	// from the start of each pass (the paper updates references
	// immediately).
	DeferredUpdates bool
	// LowestIndexTies breaks distance ties towards the lowest cluster
	// index (numpy-argmin style) instead of keeping the current cluster.
	LowestIndexTies bool
	// IndexDir, when non-empty, makes the LSH bootstrap durable: a cold
	// run saves the frozen index and the exact first assignment into
	// this directory, and later runs with the same data, parameters and
	// seed warm-start from it — skipping signing, index construction and
	// the first full scan, with bit-identical results. The saved index
	// is memory-mapped zero-copy where the platform supports it, and is
	// pinned to the dataset fingerprint, parameters and seed; any
	// mismatch is an error, never a silent rebuild. An index saved by an
	// older build with several shards or in reordered item order is
	// rejected too: rebuild it. Requires a MinHash-accelerated Cluster
	// run.
	IndexDir string
	// SnapshotEvery, when > 0, checkpoints the run state into IndexDir
	// every SnapshotEvery iterations and resumes interrupted runs from
	// the latest checkpoint. Requires IndexDir.
	SnapshotEvery int
	// OnIteration, when non-nil, receives each iteration's statistics
	// as it completes.
	OnIteration func(Iteration)
	// Context, when non-nil, cancels the run: it is checked between
	// passes and polled inside every pass and the bootstrap, so a
	// cancelled run stops within a fraction of one and returns the
	// context error.
	Context context.Context
}

func (c Config) coreOptions() core.Options {
	opts := core.Options{
		MaxIterations: c.MaxIterations,
		EarlyAbandon:  c.EarlyAbandon,
		Workers:       c.Workers,
		IndexDir:      c.IndexDir,
		SnapshotEvery: c.SnapshotEvery,
		OnIteration:   c.OnIteration,
		Context:       c.Context,
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

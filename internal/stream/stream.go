// Package stream implements the online clustering extension the paper
// names as further work (§VI: "adapting our algorithm to develop an
// online streaming clustering framework").
//
// A Clusterer holds k modes and a MinHash banding index whose buckets
// hold clusters: the paper's "cluster reference in the MinHash index"
// (Algorithm 2). Each arriving item is assigned in one shot, in three
// phases:
//
//  1. Probe: MinHash the item's present values and look up every band's
//     bucket (lsh.BandTable.Probe). Each bucket lists the clusters of
//     the earlier items filed under that key, and together they form
//     the shortlist — exactly the batch framework's candidate
//     construction, applied to an arriving item.
//  2. Score: compare the item against the shortlist modes only. When
//     the shortlist is empty (early stream, or an item unlike anything
//     seen), take the mode sharing the most values with it, counted
//     through per-attribute postings of the current modes.
//  3. File: add the chosen cluster once to each probed bucket
//     (lsh.BandTable.File), and fold the item into the cluster's
//     frequency table, which maintains the mode incrementally (Huang's
//     frequency-based update) — no batch recomputation ever runs. The
//     postings follow every mode value that changes.
//
// The result is an any-time clusterer: modes, assignments and statistics
// are valid after every item.
package stream

import (
	"fmt"

	"lshcluster/internal/dataset"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/minhash"
)

// Config parameterises a streaming clusterer.
type Config struct {
	// Params is the LSH banding configuration.
	Params lsh.Params
	// Seed drives the hash family.
	Seed uint64
	// InitialModes holds the k starting modes (e.g. the first k distinct
	// items of the stream, or a trained kmodes.Model's modes), row-major
	// k·m. Required.
	InitialModes []dataset.Value
	// NumAttrs is m. Required.
	NumAttrs int
}

// Stats counts the stream-side behaviour of the index.
type Stats struct {
	// Items is the number of items assigned so far.
	Items int
	// FullScans counts items whose shortlist was empty, so that all k
	// modes were candidates, weighed through the mode postings.
	FullScans int
	// CandidatesTotal sums shortlist sizes (full scans count k).
	CandidatesTotal int64
	// Comparisons counts item-to-mode distance evaluations; a full
	// scan counts k, however its nearest mode is found.
	Comparisons int64
}

// Clusterer assigns a stream of categorical items to k evolving modes.
// It is not safe for concurrent use.
type Clusterer struct {
	k, m   int
	scheme *minhash.Scheme
	// bands is the banding index: each Add probes it, then files its
	// cluster under the probed keys.
	bands *lsh.BandTable
	freq  *kmodes.FreqTable
	// post lists the current modes by attribute value for the fallback
	// of an empty shortlist.
	post    *modePostings
	assign  []int32
	stats   Stats
	presBuf []uint64
	sigBuf  []uint64
	stamps  []uint32
	epoch   uint32
	short   []int32
	// scalar routes item-to-mode distances through the scalar
	// reference kernel instead of the unrolled one (internal/kernel),
	// and the fallback through the scan of every mode instead of the
	// postings. Assignments are bit-identical either way; the stream's
	// fuzz test sets it, mirroring the batch driver's
	// core.Oracles.ScalarKernels.
	scalar bool
}

// dist evaluates one item-to-mode distance through the unrolled kernel,
// or through the scalar reference when c.scalar is set.
func (c *Clusterer) dist(row, mode []dataset.Value, present []bool, bound int) int {
	if c.scalar {
		return dataset.MismatchesMaskedBoundedScalar(row, mode, present, bound)
	}
	return dataset.MismatchesMaskedBounded(row, mode, present, bound)
}

// New creates a streaming clusterer.
func New(cfg Config) (*Clusterer, error) {
	if err := cfg.Params.Validate(); err != nil {
		return nil, err
	}
	if cfg.NumAttrs < 1 {
		return nil, fmt.Errorf("stream: NumAttrs must be ≥ 1, got %d", cfg.NumAttrs)
	}
	if len(cfg.InitialModes) == 0 || len(cfg.InitialModes)%cfg.NumAttrs != 0 {
		return nil, fmt.Errorf("stream: InitialModes length %d not a positive multiple of NumAttrs %d",
			len(cfg.InitialModes), cfg.NumAttrs)
	}
	k := len(cfg.InitialModes) / cfg.NumAttrs
	bands, err := lsh.NewBandTable(cfg.Params)
	if err != nil {
		return nil, err
	}
	c := &Clusterer{
		k:      k,
		m:      cfg.NumAttrs,
		scheme: minhash.NewScheme(cfg.Params.SignatureLen(), cfg.Seed),
		bands:  bands,
		freq:   kmodes.NewFreqTable(k, cfg.NumAttrs),
		post:   newModePostings(cfg.InitialModes, k, cfg.NumAttrs),
		sigBuf: make([]uint64, cfg.Params.SignatureLen()),
		stamps: make([]uint32, k),
	}
	for cl := 0; cl < k; cl++ {
		c.freq.SetMode(cl, cfg.InitialModes[cl*c.m:(cl+1)*c.m])
	}
	return c, nil
}

// FromModel creates a streaming clusterer continuing from a trained
// batch model.
func FromModel(model *kmodes.Model, params lsh.Params, seed uint64) (*Clusterer, error) {
	return New(Config{
		Params:       params,
		Seed:         seed,
		InitialModes: model.Modes,
		NumAttrs:     model.M,
	})
}

// NumClusters returns k.
func (c *Clusterer) NumClusters() int { return c.k }

// NumItems returns how many items have been assigned.
func (c *Clusterer) NumItems() int { return len(c.assign) }

// Stats returns stream counters.
func (c *Clusterer) Stats() Stats { return c.stats }

// Mode returns cluster cl's current mode (live view).
func (c *Clusterer) Mode(cl int) []dataset.Value { return c.freq.Mode(cl) }

// Assignments returns the assignment of every item seen so far; the
// slice must not be modified.
func (c *Clusterer) Assignments() []int32 { return c.assign }

// Model snapshots the current modes.
func (c *Clusterer) Model() *kmodes.Model { return c.freq.Model() }

// Add assigns one item and folds it into the clustering. row holds the
// item's m attribute values; present, when non-nil, flags which values
// are actually observed (nil means all present).
//
// Absent attributes are treated as missing data, consistently across
// all three uses of the row: they are invisible to MinHash (only
// present values are signed), they do not vote in the frequency table
// (the evolving mode of an attribute reflects only items that observed
// it — folding unobserved slot values in would let placeholders
// dominate on sparse streams), and they do not count in the
// item-to-mode distance (an unobserved value can neither match nor
// mismatch). Callers for whom absence is itself informative — e.g.
// binary text features, where a missing word separates documents —
// should encode it as an explicit "absent" marker value and pass
// present = nil, exactly as the batch pipeline's datasets do.
//
// Add returns the assigned cluster.
func (c *Clusterer) Add(row []dataset.Value, present []bool) (int, error) {
	if len(row) != c.m {
		return 0, fmt.Errorf("stream: row has %d values, want %d", len(row), c.m)
	}
	if present != nil && len(present) != c.m {
		return 0, fmt.Errorf("stream: presence mask has %d entries, want %d", len(present), c.m)
	}
	c.presBuf = c.presBuf[:0]
	for a, v := range row {
		if present == nil || present[a] {
			c.presBuf = append(c.presBuf, uint64(v))
		}
	}

	// Probe: the shortlist is the clusters of every probed bucket,
	// deduplicated with epoch stamps in first-appearance order.
	sig := c.scheme.Sign(c.presBuf, c.sigBuf)
	c.epoch++
	if c.epoch == 0 {
		for i := range c.stamps {
			c.stamps[i] = 0
		}
		c.epoch = 1
	}
	c.short = c.short[:0]
	if err := c.bands.Probe(sig, c.foldBucket); err != nil {
		return 0, fmt.Errorf("stream: indexing item %d: %w", len(c.assign), err)
	}

	best := c.score(row, present)

	// File.
	c.bands.File(int32(best))
	c.assign = append(c.assign, int32(best))
	c.freq.AddMasked(best, row, present)
	c.post.follow(best, c.freq.Mode(best))
	c.stats.Items++
	return best, nil
}

// foldBucket adds the clusters of one probed bucket that the shortlist
// lacks, in bucket order.
func (c *Clusterer) foldBucket(bucket []int32) {
	for _, cl := range bucket {
		if c.stamps[cl] != c.epoch {
			c.stamps[cl] = c.epoch
			c.short = append(c.short, cl)
		}
	}
}

// score returns the shortlist mode nearest to row, the first strict
// minimum in shortlist order. An empty shortlist falls back to every
// mode, and counts k comparisons whichever way the nearest is found.
func (c *Clusterer) score(row []dataset.Value, present []bool) int {
	if len(c.short) == 0 {
		c.stats.FullScans++
		if !c.scalar {
			c.stats.CandidatesTotal += int64(c.k)
			c.stats.Comparisons += int64(c.k)
			return c.post.nearest(row, present)
		}
		for cl := 0; cl < c.k; cl++ {
			c.short = append(c.short, int32(cl))
		}
	}
	c.stats.CandidatesTotal += int64(len(c.short))
	c.stats.Comparisons += int64(len(c.short))
	best, bestD := -1, c.m+1
	//lshvet:ignore ctxpollcheck Add handles one item; this loop is bounded by k clusters
	for _, cl := range c.short {
		if d := c.dist(row, c.freq.Mode(int(cl)), present, bestD); d < bestD {
			best, bestD = int(cl), d
		}
	}
	return best
}

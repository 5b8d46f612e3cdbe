// Package stream implements the online clustering extension the paper
// names as further work (§VI: "adapting our algorithm to develop an
// online streaming clustering framework").
//
// A Clusterer holds k modes and the MinHash banding index. Each arriving
// item is assigned in one shot:
//
//  1. MinHash the item's present values and file it in the index with
//     lsh.Index.QueryInsert, which probes each band once: the bucket
//     it hands back as it stood — the *previously seen* colliding
//     items — and the clusters of those items form the shortlist
//     (exactly the batch framework's candidate construction, applied
//     to an arriving item);
//  2. compare the item against the shortlist modes only, falling back
//     to a full scan when the shortlist is empty (early stream, or an
//     item unlike anything seen);
//  3. fold the item into its cluster's frequency table, which
//     maintains the mode incrementally (Huang's frequency-based
//     update) — no batch recomputation ever runs.
//
// The index stays in its build phase for the life of the stream: per
// band, a pointer-free key table locating each bucket's run of
// ascending item IDs in one shared arena.
//
// The result is an any-time clusterer: modes, assignments and statistics
// are valid after every item.
package stream

import (
	"fmt"

	"lshcluster/internal/dataset"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
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
	// FullScans counts items whose shortlist was empty, forcing an
	// exact scan over all k modes.
	FullScans int
	// CandidatesTotal sums shortlist sizes (full scans count k).
	CandidatesTotal int64
	// Comparisons counts item-to-mode distance evaluations.
	Comparisons int64
}

// Clusterer assigns a stream of categorical items to k evolving modes.
// It is not safe for concurrent use.
type Clusterer struct {
	k, m int
	// index is the build-phase banding index: each Add queries and
	// files its item in one QueryInsert; never frozen.
	index   *lsh.Index
	freq    *kmodes.FreqTable
	assign  []int32
	stats   Stats
	presBuf []uint64
	sigBuf  []uint64
	stamps  []uint32
	epoch   uint32
	short   []int32
	// scalar routes item-to-mode distances through the scalar
	// reference kernel instead of the unrolled one (internal/kernel).
	// Assignments are bit-identical either way; the stream's fuzz test
	// sets it, mirroring the batch driver's core.Oracles.ScalarKernels.
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
	ix, err := lsh.NewIndex(cfg.Params, cfg.Seed)
	if err != nil {
		return nil, err
	}
	c := &Clusterer{
		k:      k,
		m:      cfg.NumAttrs,
		index:  ix,
		freq:   kmodes.NewFreqTable(k, cfg.NumAttrs),
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

	// Shortlist via the index (deduplicated with epoch stamps), filing
	// the item in the same probe of each band.
	sig := c.index.Scheme().Sign(c.presBuf, c.sigBuf)
	c.epoch++
	if c.epoch == 0 {
		for i := range c.stamps {
			c.stamps[i] = 0
		}
		c.epoch = 1
	}
	c.short = c.short[:0]
	item := int32(len(c.assign))
	err := c.index.QueryInsert(item, sig, func(bucket []int32) {
		for _, other := range bucket {
			cl := c.assign[other]
			if c.stamps[cl] != c.epoch {
				c.stamps[cl] = c.epoch
				c.short = append(c.short, cl)
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("stream: indexing item %d: %w", item, err)
	}

	best := -1
	bestD := c.m + 1
	if len(c.short) == 0 {
		c.stats.FullScans++
		c.stats.CandidatesTotal += int64(c.k)
		//lshvet:ignore ctxpollcheck Add handles one item; the fallback scan is bounded by k clusters
		for cl := 0; cl < c.k; cl++ {
			d := c.dist(row, c.freq.Mode(cl), present, bestD)
			c.stats.Comparisons++
			if d < bestD {
				best, bestD = cl, d
			}
		}
	} else {
		c.stats.CandidatesTotal += int64(len(c.short))
		//lshvet:ignore ctxpollcheck Add handles one item; this loop is bounded by its shortlist
		for _, cl := range c.short {
			d := c.dist(row, c.freq.Mode(int(cl)), present, bestD)
			c.stats.Comparisons++
			if d < bestD {
				best, bestD = int(cl), d
			}
		}
	}

	c.assign = append(c.assign, int32(best))
	c.freq.AddMasked(best, row, present)
	c.stats.Items++
	return best, nil
}

// Package lshcluster accelerates large-scale centroid-based clustering
// with locality sensitive hashing.
//
// It is a from-scratch Go reproduction of McConville, Cao, Liu & Miller,
// "Accelerating Large Scale Centroid-based Clustering with Locality
// Sensitive Hashing" (ICDE 2016): a framework that indexes every item
// once with an LSH scheme and, on each assignment step, compares the item
// only against the clusters of its colliding neighbours — a shortlist
// that is typically orders of magnitude smaller than the full cluster
// set, with a provable bound on the probability of missing the best
// cluster.
//
// Two instantiations ship with the library:
//
//   - MH-K-Modes (the paper's evaluation): categorical data, K-Modes
//     dissimilarity, MinHash banding for Jaccard similarity. Run it with
//     Cluster and a non-nil LSH configuration.
//
//   - SimHash K-Means (the paper's stated further work): dense numeric
//     vectors, squared Euclidean K-Means, random-hyperplane banding.
//     Run it with ClusterNumeric.
//
// Quick start:
//
//	ds, _ := lshcluster.ReadCSV(f)
//	res, err := lshcluster.Cluster(ds, lshcluster.Config{
//		K:   2000,
//		LSH: &lshcluster.Params{Bands: 20, Rows: 5},
//	})
//	// res.Assign[i] is item i's cluster; res.Stats has per-iteration
//	// timings, move counts and shortlist sizes.
//
// Passing a nil LSH runs the exact baseline algorithm, which considers
// every cluster for every item — useful for verifying that acceleration
// preserves quality (the Stats of both runs are directly comparable).
//
// # Incremental hot-path engine
//
// After bootstrap, per-iteration work is proportional to what actually
// changed rather than to the dataset:
//
//   - Both clustering spaces implement the internal IncrementalSpace
//     capability: item moves are folded into per-cluster state as they
//     happen (Huang's frequency-based mode update for K-Modes, over a
//     small hash table of value counts per cluster and attribute; running
//     counts with a dirty-cluster refresh for K-Means), and only the
//     clusters whose membership changed have their centroids refreshed
//     at the end of each pass. The per-iteration objective is maintained
//     incrementally too. The incremental path is exact — bit-identical
//     assignments, centroids and costs versus the full-recompute batch
//     path, which is retained as a correctness oracle.
//
//   - The MinHash banding index serves iteration from a frozen layout:
//     flat CSR arrays (offsets + item IDs of the buckets two or more
//     items share, with per-item bucket slots resolved up front), so
//     the recurring collision lookups are allocation-free scans of
//     contiguous memory. Every batch run
//     builds the index once, in one pass over the dataset as in the
//     paper (Algorithm 2, lines 1–9): it signs every item, then
//     constructs the frozen layout directly from the presigned band
//     keys. Only the streaming clusterer files items one at a time, and
//     not into an lsh.Index: its lsh.BandTable keeps, per band, a flat,
//     pointer-free key table whose buckets hold clusters, the paper's
//     "cluster reference in the MinHash index" — one cluster inline in
//     its cell, more as a run in one shared arena. Each arriving item
//     probes every band at once, is scored against the shortlist, and
//     then files its cluster once in each probed bucket. An empty
//     shortlist takes the mode sharing the most values with the item,
//     counted through per-attribute postings that follow the modes as
//     they change.
//
//   - The bootstrap itself is a parallel pipeline, individually timed
//     per phase (sign → build → assign): signing splits items across
//     Config.Workers goroutines with per-worker scratch into a flat
//     band-key arena; the direct-to-frozen build parallelises across
//     bands, each band owning a contiguous bucket-ID range; and the
//     exact first assignment splits items like any parallel pass.
//     Every first assignment — the exact baseline's included — goes
//     through the space's nearest-centroid capability when it has one:
//     K-Modes lists, per attribute, the clusters whose mode holds each
//     value, and walking an item's m lists counts its matches with
//     every cluster at once, instead of k row comparisons. Where the
//     lists would be long — few values per attribute, or one value
//     most modes share, as in binary bag-of-words data — it compares
//     the item with every mode instead. Exact passes always compare
//     the item with all k modes, as in the paper.
//     Results are bit-identical at every worker count, and the tests
//     keep the one-worker run as the reference; per-phase timings land
//     in Run.BootstrapSign/BootstrapBuild/BootstrapAssign and the
//     stats CSV.
//
//   - Bootstrap signing memoizes per-value MinHash columns when values
//     repeat and the column table is no larger than the band-key arena
//     the signing fills anyway ((largest value ID + 1)·rows ≤ items),
//     so each distinct categorical value is hashed once instead of once
//     per occurrence and an item's signature is an element-wise minimum
//     over its values' columns. In the parallel pipeline the first
//     signing worker fills the memo (each column computed exactly once,
//     in parallel) before any item is signed, all signing workers share
//     it read-only, and it is released when signing ends. Without the
//     memo, signing reduces a chunk of the
//     item's values once and runs each hash function over the chunk
//     with its minimum in a register. Streaming clusterers always sign
//     directly: their value range is not known up front, so no memory
//     bound for a memo exists.
//
//   - The assignment pass itself is O(active), not O(n): an item is
//     re-evaluated only when its cluster neighbourhood changed — a
//     colliding item moved, or a cluster reachable through its
//     collisions had its centroid updated (cluster-closure-style
//     active-point filtering). The incremental engine reports the
//     changed clusters after each pass and a reverse-collision view
//     over the frozen index expands them into the next pass's active
//     set; late sparse passes typically evaluate a few percent of the
//     items. Results are bit-identical to the full pass, which the
//     tests keep as the correctness oracle.
//
//   - Every assignment pass runs one block loop: it gathers the
//     colliding buckets of up to 64 items in one band-major sweep of
//     the frozen index, amortising cache misses and per-item dispatch
//     across the block, then decides the block's items in order. The
//     pass chooses only its view (the live assignment for immediate
//     updates, a pass-start snapshot for deferred ones), its item
//     order and its worker count; exact runs use the same loop with
//     every cluster as the shortlist. Only the bucket-to-cluster
//     mapping reads the view, so each item's buckets are mapped to its
//     shortlist just before the item is decided: under immediate
//     updates every position sees the moves decided before it, exactly
//     as a per-item loop would, and blocks run whole. The one cut left
//     is in a filtered immediate pass, when a move activates an item
//     the gather skipped after the mover; the rest of the block is
//     then re-gathered from the item after the mover. Results are
//     bit-identical to the per-item reference — the same loop at block
//     length 1 — which only the tests run.
//
//   - The index keeps the cluster reference, as the paper's Algorithm 2
//     does. Every stored bucket of at least 16 items (one 64-byte line
//     of item IDs; lsh.SummaryMinLen) also holds its members' distinct
//     clusters in first-appearance order, and the block loop reads that
//     cluster summary instead of mapping every member through the
//     assignment. A long bucket's members fall into few clusters (on
//     the SimHash K-Means benchmark an item's buckets hold about 1,350
//     entries in about 20 clusters), so the shortlist query shrinks by
//     that ratio; shorter buckets are walked as before, because a walk
//     of them reads no more memory than a summary would. The summaries are built from
//     the assignment after the bootstrap (or a snapshot resume). A move
//     recomputes the summaries of the mover's long buckets from the
//     assignment: at once under immediate updates, before the next
//     item is decided, and from the pass's move log after a deferred
//     pass, whose decisions read the pass-start snapshot. A recompute
//     reads exactly the entries the mover's own shortlist query read.
//     Summaries live on the heap, found through one summary ID (or −1)
//     per stored bucket, and are never persisted. The shortlist,
//     its order and every tie are those of the walk, which the per-item
//     reference still takes.
//
// # Frozen index layout
//
// The index is one lsh.Index over items [0, n), every one of them
// indexed, in original item order, as the paper's Algorithm 2 keeps
// it: b bands, one set of buckets per band. It exists only built or
// loaded: lsh.BuildFrozen makes it from the presigned band keys, in
// one pass over the dataset after centroid initialisation, lsh.Open
// loads what a build saved, and nothing is filed after that. It is three flat arrays —
// the item IDs of every bucket that two or more items share,
// concatenated (ascending within a bucket), the bucket offsets, and
// per item and band the bucket it sits in, or −1 where it sits alone.
// A bucket of one item adds nothing to a shortlist but the item's own
// cluster, which every query reports first anyway, and on the K-Modes
// benchmark such buckets are 97.5% of all, so the layout stores none
// of them. A query starts from an item's bucket slots and never
// hashes, so the layout keeps no band keys; key-addressed lookups
// belong to the streaming clusterer's band table. Nor does the index
// own a hash family: each accelerator keeps its MinHash or SimHash
// scheme, fixed with its banding, seed and item count when it is made.
// A saved index is these arrays in one file, beside per-item inserted
// flags that the format keeps and every build writes as 1; files saved
// when every bucket was stored still load and answer alike.

// # Hot-path distance kernels
//
// The innermost distance loops — categorical mismatch counting
// (K-Modes), squared Euclidean distance and dot products (K-Means,
// SimHash signing), and signature Hamming distance — run on unrolled
// kernels in internal/kernel: 8-way unrolled branchless mismatch
// counting, 4-way unrolled floating-point accumulation, and Hamming
// popcount over bit-packed signature words (64 sign bits per uint64,
// counted with bits.OnesCount64). The bootstrap's float loops sweep
// four rows per pass instead: the K-Means first assignment scans four
// centroid rows at a time (kernel.NearestSquared) and SimHash signs
// four hyperplanes at a time (kernel.Dot4), each row with its own
// accumulator; the MinHash memo folds four cached hash columns per
// pass over the signature. Every kernel has a scalar reference twin,
// and every floating-point row keeps a single accumulator in element
// order, so results are bit-identical to the scalar loops — enforced
// by property and fuzz tests over random lengths and row counts
// (including every tail length) and by full-run equivalence tests that
// route every space and accelerator through the scalar references.
//
// Every reference twin named above — the scalar kernels, the batch
// centroid update, the full pass and the heap index load — is a field
// of core.Oracles, which only tests set: none is a Config field or a
// CLI flag. TestOraclesMatchDefault (internal/core) runs each one,
// alone and all together, against the default configuration and
// requires identical assignments and statistics. The parallel
// bootstrap's reference is no switch: it is the same pipeline at
// Config.Workers 1.
//
// # Persistent index and warm start
//
// Config.IndexDir makes the accelerator's frozen index durable: a cold
// run signs, builds and saves the frozen index to <dir>/shard-0.lshz —
// a versioned, checksummed section container (see internal/README.md
// for the byte layout) — plus a manifest recording the banding,
// signing seed and a fingerprint of the dataset. A later run with the
// same configuration opens the file instead of rebuilding: the frozen
// arrays are
// memory-mapped zero-copy wherever the platform supports it (pages
// fault in as iterations touch them, and the kernel drops clean pages
// under memory pressure), or heap-deserialised elsewhere and by the
// tests' portable oracle — cold, warm-mmap and warm-heap runs are
// bit-identical. Anything stale (different dataset, banding or seed,
// an index an older build saved with several shards or in reordered
// item order, or a manifest naming any index file but shard-0.lshz)
// is rejected with an error, never silently reused. The first
// full-scan assignment is cached next to the index and validated by
// spot recomputation on restore, so a warm start skips signing, build
// and the bootstrap scan entirely. The spot check recomputes 64 items
// and about 64 more at an even stride, so a cache whose checksums hold
// but which was altered outside that sample still loads, by design:
// the cache is a speed-up pinned to the index's dataset and seed, not
// source data. Config.SnapshotEvery
// checkpoints assignment state every N iterations and a restarted run
// resumes from the last checkpoint with final results identical to an
// uninterrupted run. The CLI wires
// all of this through -save-index, -load-index and -snapshot-every,
// and -write-binary / -in-binary store the dataset itself in the same
// mmap-able container.
//
// The cmd/ directory provides datagen (paper-style synthetic workloads),
// lshcluster (clustering CLI), lshtune (banding-parameter exploration,
// Tables I–II), experiments (regenerates every table and figure of
// the paper's evaluation) and lshvet, the repo's own analyzer suite:
// `go run ./cmd/lshvet ./...` mechanically enforces the oracle, kernel
// and context-polling disciplines described above (see
// internal/README.md for the analyzer contracts). See DESIGN.md for
// the architecture and EXPERIMENTS.md for reproduction results.
package lshcluster

package core

// BulkIndexer is an optional Accelerator capability: accelerators that
// can split index construction into a parallel signing pass and a
// parallel filing pass implement it, and the driver then runs the
// bootstrap as an explicit sign → build → assign pipeline instead of
// the serial per-item Insert loop (see driver.bootstrap). Results are
// bit-identical either way — signing is deterministic per item and
// filing order is preserved — with the serial loop retained as the
// equivalence oracle behind Options.Oracles.DisableParallelBootstrap.
//
// The driver calls Reset, SignAll, BuildFrozen, then runs the
// (parallel) exact first assignment. The index comes up already
// frozen; the driver's later Freezer call is an idempotent no-op.
type BulkIndexer interface {
	// SignAll computes and retains the band keys of every item,
	// sharding the signing across workers goroutines (values < 2 sign
	// serially). Keys are identical to what per-item Insert signing
	// would produce, regardless of workers. Called once per Run, after
	// Reset and before BuildFrozen. stop, when
	// non-nil, is polled periodically by the signing workers; once it
	// returns true they abandon the pass (the driver maps it to
	// context cancellation and discards the partial keys by aborting
	// the bootstrap).
	SignAll(workers int, stop func() bool) error
	// BuildFrozen constructs the accelerator's index directly in its
	// frozen layout from the keys SignAll computed, parallel across
	// workers, with every item inserted — equivalent to inserting items
	// 0…n−1 in ascending order and freezing.
	BuildFrozen(workers int) error
}

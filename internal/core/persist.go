package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"time"
	"unsafe"

	"lshcluster/internal/lsh/persist"
	"lshcluster/internal/runstats"
)

// Index persistence and resumable runs. With Options.IndexDir set, the
// bootstrap's expensive artifacts become durable: the frozen LSH index
// is saved after its first build (internal/lsh persist format) and
// warm-started on the next run — memory-mapped zero-copy by default,
// heap-copied under Options.Oracles.DisableMmap — and the exact first
// assignment is saved alongside it, so a warm run skips signing, index
// construction AND the full first scan. Everything is
// validate-or-reject: the index manifest pins seed, dataset
// fingerprint and shape (drift is a hard error, never a silent rebuild
// from stale state), and the restored
// bootstrap assignment is spot-checked by recomputing a sample of items
// exactly (drift falls back to a full rescan that overwrites the stale
// file). Options.SnapshotEvery additionally checkpoints the run state
// every few iterations, in the same checksummed container, so an
// interrupted long run resumes from its last checkpoint instead of
// iteration 1; a corrupt or inconsistent checkpoint is an error, never
// a silent resume from damaged state. Warm and cold runs are
// bit-identical — same assignment, same moves — which the persistence
// equivalence tests pin with Oracles.DisableMmap as the heap-vs-mmap
// oracle.

// PersistConfig is the index-persistence configuration the driver
// forwards to an IndexPersister accelerator once per Run, before Reset.
type PersistConfig struct {
	// Dir is the index directory (empty disables persistence).
	Dir string
	// DisableMmap selects the heap-copy load path instead of the
	// zero-copy memory mapping (the portable oracle; data is
	// byte-identical either way). Mapping is also skipped on platforms
	// without mmap support.
	DisableMmap bool
}

// PersistStats is an IndexPersister's report of what its last Reset
// and frozen build did with the index directory.
type PersistStats struct {
	// WarmStart reports whether Reset loaded the index instead of
	// preparing a fresh build.
	WarmStart bool
	// SaveTime and LoadTime are the wall times spent saving the frozen
	// index after a cold build and loading it on a warm start.
	SaveTime, LoadTime time.Duration
	// MmapBytes is the size of the index's live memory mapping (zero on
	// heap loads and fresh builds).
	MmapBytes int64
}

// IndexPersister is an optional Accelerator capability: accelerators
// whose index supports the versioned on-disk format implement it. The
// driver forwards the persistence options once per Run, before Reset;
// Reset then warm-starts from the saved index when the directory holds
// one (stale ⇒ error), or builds cold and saves after the frozen
// build. PersistStats reports which path Reset took, so the driver can
// skip the signing and build phases on a warm start, and what it cost.
type IndexPersister interface {
	SetPersist(cfg PersistConfig)
	PersistStats() PersistStats
}

// bootstrapAssignFile holds the exact first assignment inside the index
// directory; runStateFile holds the iteration checkpoint.
const (
	bootstrapAssignFile = "bootstrap-assign.bin"
	runStateFile        = "state.snap"
)

// Section IDs (persist container). Both files hold a shape header and
// an assignment; the run-state checkpoint adds the completed
// iterations' stats.
const (
	secHeader     persist.SectionID = 1 // []int64{n, k}, plus nextIter in the checkpoint
	secAssignment persist.SectionID = 2 // []int32 assignment
	secIterations persist.SectionID = 3 // gob-encoded []runstats.Iteration
)

// assignSampleSize is how many items a restored bootstrap assignment is
// spot-checked on (recomputed exactly): the first assignSampleSize
// items plus assignSampleSize evenly spaced ones. Centroid or dataset
// drift that survives a 128-item exact recompute and the index
// manifest's fingerprint check is out of scope.
const assignSampleSize = 64

// rawI32 reinterprets an int32 slice as raw bytes for section writing.
func rawI32(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*4)
}

func rawI64(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*8)
}

// bootstrapAssign runs the exact first assignment, restoring it from
// the index directory when a valid saved copy exists and saving it
// there after a fresh scan. Restore is validate-or-rescan: shape must
// match and a sample of items must recompute to the stored values;
// any mismatch discards the file and rescans (the fresh result then
// overwrites it).
func (d *driver) bootstrapAssign(workers int) error {
	if d.opts.IndexDir == "" {
		d.bootstrapScan(workers, true)
		return ctxErr(d.opts.Context)
	}
	path := filepath.Join(d.opts.IndexDir, bootstrapAssignFile)
	if d.restoreBootstrapAssign(path) {
		return nil
	}
	d.bootstrapScan(workers, true)
	if err := ctxErr(d.opts.Context); err != nil {
		return err
	}
	return d.saveBootstrapAssign(path)
}

func (d *driver) saveBootstrapAssign(path string) error {
	sections := []persist.Section{
		{ID: secHeader, ElemSize: 8, Data: rawI64([]int64{int64(d.n), int64(d.k)})},
		{ID: secAssignment, ElemSize: 4, Data: rawI32(d.assign)},
	}
	if err := persist.WriteFile(path, sections); err != nil {
		return fmt.Errorf("core: saving bootstrap assignment: %w", err)
	}
	return nil
}

// restoreBootstrapAssign loads the saved first assignment; false means
// no usable file (missing, corrupt, wrong shape, or failed the sample
// recompute) and the caller must rescan.
func (d *driver) restoreBootstrapAssign(path string) bool {
	f, err := persist.Open(path, false)
	if err != nil {
		return false
	}
	defer f.Close()
	hdr, err := persist.View[int64](f, secHeader)
	if err != nil || len(hdr) != 2 || int(hdr[0]) != d.n || int(hdr[1]) != d.k {
		return false
	}
	saved, err := persist.View[int32](f, secAssignment)
	if err != nil || len(saved) != d.n {
		return false
	}
	for _, c := range saved {
		if c < 0 || int(c) >= d.k {
			return false
		}
	}
	// Spot-check: the bootstrap assignment is a pure function of the
	// space's initial centroids, so recomputing a sample exactly detects
	// a stale file (different space seed, edited data).
	check := func(i int) bool { return d.bestExact(i, -1, nil) == int(saved[i]) }
	for i := 0; i < d.n && i < assignSampleSize; i++ {
		if !check(i) {
			return false
		}
	}
	if stride := d.n / assignSampleSize; stride > 1 {
		for i := 0; i < d.n; i += stride {
			if !check(i) {
				return false
			}
		}
	}
	copy(d.assign, saved)
	return true
}

// writeRunState writes an iteration checkpoint as a persist container
// (atomic, 0644): {n, k, nextIter}, the assignment, and the completed
// iterations' stats, each section CRC32-C checked on load.
func writeRunState(path string, n, k, nextIter int, assign []int32, iters []runstats.Iteration) error {
	var stats bytes.Buffer
	if err := gob.NewEncoder(&stats).Encode(iters); err != nil {
		return fmt.Errorf("core: saving run state: %w", err)
	}
	sections := []persist.Section{
		{ID: secHeader, ElemSize: 8, Data: rawI64([]int64{int64(n), int64(k), int64(nextIter)})},
		{ID: secAssignment, ElemSize: 4, Data: rawI32(assign)},
		{ID: secIterations, ElemSize: 1, Data: stats.Bytes()},
	}
	if err := persist.WriteFile(path, sections); err != nil {
		return fmt.Errorf("core: saving run state: %w", err)
	}
	return nil
}

// restoreRunState loads an iteration checkpoint, overwriting the
// driver's assignment and returning the iteration to resume from plus
// the already-completed iteration stats.
// A missing file returns 0 (start from iteration 1). A corrupt file, a
// checkpoint for a different run shape, or one whose iteration stats
// do not run 1…nextIter−1 is an error — damaged or stale state is
// rejected, never silently reinterpreted.
func (d *driver) restoreRunState(path string) (int, []runstats.Iteration, error) {
	f, err := persist.Open(path, false)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, nil, nil
		}
		return 0, nil, fmt.Errorf("core: reading run state: %w", err)
	}
	defer f.Close()
	hdr, err := persist.View[int64](f, secHeader)
	if err != nil || len(hdr) != 3 || hdr[0] != int64(d.n) || hdr[1] != int64(d.k) {
		return 0, nil, fmt.Errorf("core: run state %s was not saved for a run of n=%d k=%d", path, d.n, d.k)
	}
	saved, err := persist.View[int32](f, secAssignment)
	if err != nil || len(saved) != d.n {
		return 0, nil, fmt.Errorf("core: run state %s holds no assignment of %d items", path, d.n)
	}
	for _, c := range saved {
		if c < 0 || int(c) >= d.k {
			return 0, nil, fmt.Errorf("core: run state %s holds an out-of-range cluster", path)
		}
	}
	var iters []runstats.Iteration
	raw, err := persist.View[byte](f, secIterations)
	if err == nil {
		err = gob.NewDecoder(bytes.NewReader(raw)).Decode(&iters)
	}
	if err != nil {
		return 0, nil, fmt.Errorf("core: decoding run state %s: %w", path, err)
	}
	nextIter := hdr[2]
	if nextIter < 1 || int64(len(iters)) != nextIter-1 {
		return 0, nil, fmt.Errorf("core: run state %s resumes at iteration %d but records %d iterations", path, nextIter, len(iters))
	}
	for j, it := range iters {
		if it.Index != j+1 {
			return 0, nil, fmt.Errorf("core: run state %s records iteration %d at position %d", path, it.Index, j+1)
		}
	}
	copy(d.assign, saved)
	return int(nextIter), iters, nil
}

// validatePersistOptions rejects option combinations index persistence
// cannot serve, before any index work happens.
func validatePersistOptions(opts *Options) error {
	if opts.SnapshotEvery < 0 {
		return fmt.Errorf("core: SnapshotEvery must be ≥ 0, got %d", opts.SnapshotEvery)
	}
	if opts.SnapshotEvery > 0 && opts.IndexDir == "" {
		return fmt.Errorf("core: SnapshotEvery requires IndexDir (the checkpoint lives in the index directory)")
	}
	if opts.IndexDir == "" {
		return nil
	}
	if opts.Accelerator == nil {
		return fmt.Errorf("core: IndexDir requires an accelerator (the exact algorithm builds no index)")
	}
	if _, ok := opts.Accelerator.(IndexPersister); !ok {
		return fmt.Errorf("core: the accelerator does not support index persistence")
	}
	if opts.Oracles.DisableParallelBootstrap {
		return fmt.Errorf("core: IndexDir requires the parallel bootstrap (drop Oracles.DisableParallelBootstrap)")
	}
	if _, ok := opts.Accelerator.(BulkIndexer); !ok {
		return fmt.Errorf("core: IndexDir requires a bulk-indexing accelerator")
	}
	return nil
}

// mmapWanted resolves the effective load mode: mapping needs platform
// support and must not be disabled.
func mmapWanted(disable bool) bool { return !disable && persist.MmapSupported }

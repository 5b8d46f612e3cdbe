package core_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/kmeans"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/lsh/persist"
	"lshcluster/internal/runstats"
	"lshcluster/internal/simhash"

	"lshcluster/internal/core"
)

// persistSpaceAccel builds the standard persistence workload:
// MinHash-accelerated K-Modes over the shared bootstrap dataset, with
// the accelerator seed and banding exposed so staleness tests can vary
// them.
func persistSpaceAccel(t *testing.T, seed uint64, params lsh.Params) (core.Space, core.Accelerator) {
	t.Helper()
	ds := bootstrapWorkload(t)
	s, err := kmodes.NewSpace(ds, kmodes.Config{K: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.NewMinHashAccelerator(ds, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	return s, a
}

func persistOpts(dir string) core.Options {
	return core.Options{
		Update:        core.UpdateDeferred,
		Workers:       4,
		MaxIterations: 15,
		IndexDir:      dir,
	}
}

func assertPersistEqual(t *testing.T, label string, ref, got *core.Result, refCentroids, gotCentroids []byte) {
	t.Helper()
	for i := range ref.Assign {
		if ref.Assign[i] != got.Assign[i] {
			t.Fatalf("%s: assign[%d] = %d, reference %d", label, i, got.Assign[i], ref.Assign[i])
		}
	}
	if got.Stats.Converged != ref.Stats.Converged {
		t.Fatalf("%s: converged %v, reference %v", label, got.Stats.Converged, ref.Stats.Converged)
	}
	if len(got.Stats.Iterations) != len(ref.Stats.Iterations) {
		t.Fatalf("%s: %d iterations, reference %d",
			label, len(got.Stats.Iterations), len(ref.Stats.Iterations))
	}
	for i := range ref.Stats.Iterations {
		a, b := ref.Stats.Iterations[i], got.Stats.Iterations[i]
		if a.Moves != b.Moves {
			t.Fatalf("%s iteration %d: %d moves, reference %d", label, i+1, b.Moves, a.Moves)
		}
		if a.Cost != b.Cost {
			t.Fatalf("%s iteration %d: cost %v, reference %v", label, i+1, b.Cost, a.Cost)
		}
	}
	if !bytes.Equal(refCentroids, gotCentroids) {
		t.Fatalf("%s: final centroids differ from the reference run", label)
	}
}

// TestWarmStartMatchesCold is the headline persistence equivalence: a
// cold run that builds and saves the index, a warm mmap run, and a
// warm heap run (DisableMmap, the portable oracle) must produce
// bit-identical assignments, per-iteration moves and costs, and final
// centroids — with the deprecated Options.Shards at 1, 2 and 4, which
// Run ignores: every run saves and loads the one-shard index (the
// benchmark's warm workload sets Shards to 4).
func TestWarmStartMatchesCold(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dir := t.TempDir()
			run := func(mut func(*core.Options)) (*core.Result, []byte) {
				space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
				o := core.WithShards(persistOpts(dir), shards)
				o.Accelerator = accel
				if mut != nil {
					mut(&o)
				}
				res, err := core.Run(space, o)
				if err != nil {
					t.Fatal(err)
				}
				return res, kmodesFingerprint(t)(space)
			}

			cold, coldCentroids := run(nil)
			if cold.Stats.WarmStart {
				t.Fatal("first run reported a warm start")
			}
			if cold.Stats.IndexSaveTime <= 0 {
				t.Fatal("cold run recorded no index save time")
			}
			if !lsh.IndexSaved(dir) {
				t.Fatalf("cold run left no saved index in %s", dir)
			}

			warm, warmCentroids := run(nil)
			if !warm.Stats.WarmStart {
				t.Fatal("second run did not warm-start from the saved index")
			}
			if warm.Stats.IndexLoadTime <= 0 {
				t.Fatal("warm run recorded no index load time")
			}
			if warm.Stats.IndexSaveTime != 0 {
				t.Fatal("warm run should not re-save the index")
			}
			if persist.MmapSupported && warm.Stats.MmapBytes <= 0 {
				t.Fatal("warm mmap run recorded no mapped bytes")
			}
			assertPersistEqual(t, "warm mmap", cold, warm, coldCentroids, warmCentroids)

			heap, heapCentroids := run(func(o *core.Options) { o.Oracles.DisableMmap = true })
			if !heap.Stats.WarmStart {
				t.Fatal("heap-load run did not warm-start")
			}
			if heap.Stats.MmapBytes != 0 {
				t.Fatalf("DisableMmap run mapped %d bytes", heap.Stats.MmapBytes)
			}
			assertPersistEqual(t, "warm heap", cold, heap, coldCentroids, heapCentroids)
		})
	}
}

// TestWarmStartStaleRejected pins the manifest checks: a saved index
// must be refused — not silently rebuilt — when the accelerator seed,
// the LSH banding, or the dataset itself has changed underneath it, and
// so must a directory the retired multi-shard layout saved (several
// shards, or items in reordered order) or one whose index file is
// missing. Each rejection names its cause.
func TestWarmStartStaleRejected(t *testing.T) {
	save := func() string {
		dir := t.TempDir()
		space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
		o := persistOpts(dir)
		o.Accelerator = accel
		if _, err := core.Run(space, o); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	dir := save()

	expectRejected := func(label, dir, cause string, space core.Space, accel core.Accelerator) {
		t.Helper()
		o := persistOpts(dir)
		o.Accelerator = accel
		_, err := core.Run(space, o)
		if err == nil {
			t.Fatalf("%s: run accepted a stale index", label)
		}
		if !strings.Contains(err.Error(), cause) {
			t.Fatalf("%s: error = %v, want one naming %q", label, err, cause)
		}
	}
	expectStale := func(label string, space core.Space, accel core.Accelerator) {
		t.Helper()
		expectRejected(label, dir, "stale", space, accel)
	}
	editManifest := func(edit func(*persist.Manifest)) string {
		dir := save()
		m, err := persist.ReadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		edit(m)
		if err := persist.WriteManifest(dir, m); err != nil {
			t.Fatal(err)
		}
		return dir
	}

	shardsDir := editManifest(func(m *persist.Manifest) {
		m.Shards = 4
		m.ShardFiles = []string{"shard-0.lshz", "shard-1.lshz", "shard-2.lshz", "shard-3.lshz"}
		m.ShardInserted = []int{150, 150, 150, 150}
	})
	s, a := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	expectRejected("four shards", shardsDir, "4 item shards", s, a)

	reorderedDir := editManifest(func(m *persist.Manifest) { m.Reordered = true })
	s, a = persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	expectRejected("reordered", reorderedDir, "reordered", s, a)

	missingDir := save()
	m, err := persist.ReadManifest(missingDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(missingDir, m.ShardFiles[0])); err != nil {
		t.Fatal(err)
	}
	s, a = persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	expectRejected("index file missing", missingDir, m.ShardFiles[0], s, a)

	s2, a2 := persistSpaceAccel(t, 8, lsh.Params{Bands: 8, Rows: 4})
	expectStale("different accelerator seed", s2, a2)

	s3, a3 := persistSpaceAccel(t, 7, lsh.Params{Bands: 4, Rows: 8})
	expectStale("different banding", s3, a3)

	other, err := datagen.Generate(datagen.Config{
		Items: 600, Clusters: 30, Attrs: 16, Domain: 200,
		MinRuleFrac: 0.7, MaxRuleFrac: 0.9, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	s4, err := kmodes.NewSpace(other, kmodes.Config{K: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a4, err := core.NewMinHashAccelerator(other, lsh.Params{Bands: 8, Rows: 4}, 7)
	if err != nil {
		t.Fatal(err)
	}
	expectStale("different dataset", s4, a4)
}

// TestPersistOptionValidation covers the configurations Run must
// refuse up front rather than fail (or silently ignore) mid-run.
func TestPersistOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*core.Options)
		want string
	}{
		{"snapshot without IndexDir", func(o *core.Options) {
			o.IndexDir = ""
			o.SnapshotEvery = 2
		}, "SnapshotEvery"},
		{"negative SnapshotEvery", func(o *core.Options) {
			o.SnapshotEvery = -1
		}, "SnapshotEvery"},
		{"IndexDir without accelerator", func(o *core.Options) {
			o.Accelerator = nil
		}, "IndexDir"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
			o := persistOpts(t.TempDir())
			o.Accelerator = accel
			tc.mut(&o)
			_, err := core.Run(space, o)
			if err == nil {
				t.Fatal("Run accepted an invalid persistence configuration")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want mention of %q", err, tc.want)
			}
		})
	}
}

// TestPersistRequiresFingerprint: the SimHash accelerator sits on a
// numeric space with no dataset fingerprint, so asking it to persist
// must fail with a clear error instead of saving an unpinnable index.
func TestPersistRequiresFingerprint(t *testing.T) {
	pts, _, err := kmeans.GenerateBlobs(kmeans.BlobsConfig{
		Points: 400, Clusters: 20, Dim: 8, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := kmeans.NewSpace(pts, 8, kmeans.Config{K: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	a, err := simhash.NewAccelerator(s, lsh.Params{Bands: 8, Rows: 8}, 21)
	if err != nil {
		t.Fatal(err)
	}
	o := persistOpts(t.TempDir())
	o.Accelerator = a
	_, err = core.Run(s, o)
	if err == nil {
		t.Fatal("Run persisted an index for a non-fingerprintable accelerator")
	}
	if !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("error = %v, want a fingerprint requirement", err)
	}
}

// TestSnapshotResume interrupts a run at MaxIterations and restarts it
// from the on-disk checkpoint: the resumed run must report where it
// picked up and finish with exactly the state an uninterrupted run
// reaches.
func TestSnapshotResume(t *testing.T) {
	baseSpace, baseAccel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	baseOpts := persistOpts("")
	baseOpts.Accelerator = baseAccel
	base, err := core.Run(baseSpace, baseOpts)
	if err != nil {
		t.Fatal(err)
	}
	baseCentroids := kmodesFingerprint(t)(baseSpace)

	dir := t.TempDir()
	space1, accel1 := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	o1 := persistOpts(dir)
	o1.Accelerator = accel1
	o1.SnapshotEvery = 2
	o1.MaxIterations = 3
	trunc, err := core.Run(space1, o1)
	if err != nil {
		t.Fatal(err)
	}
	if trunc.Stats.Converged {
		t.Fatal("truncated run converged; raise the workload difficulty")
	}
	if _, err := os.Stat(filepath.Join(dir, "state.snap")); err != nil {
		t.Fatalf("truncated run left no checkpoint: %v", err)
	}

	space2, accel2 := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	o2 := persistOpts(dir)
	o2.Accelerator = accel2
	o2.SnapshotEvery = 2
	resumed, err := core.Run(space2, o2)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Stats.ResumedAt != 3 {
		t.Fatalf("ResumedAt = %d, want 3 (checkpoint after iteration 2)", resumed.Stats.ResumedAt)
	}
	if !resumed.Stats.WarmStart {
		t.Fatal("resumed run should also warm-start from the saved index")
	}
	resumedCentroids := kmodesFingerprint(t)(space2)

	for i := range base.Assign {
		if base.Assign[i] != resumed.Assign[i] {
			t.Fatalf("assign[%d] = %d after resume, uninterrupted run %d",
				i, resumed.Assign[i], base.Assign[i])
		}
	}
	if resumed.Stats.Converged != base.Stats.Converged {
		t.Fatalf("resumed converged %v, uninterrupted %v",
			resumed.Stats.Converged, base.Stats.Converged)
	}
	if len(resumed.Stats.Iterations) != len(base.Stats.Iterations) {
		t.Fatalf("resumed run logged %d iterations, uninterrupted %d",
			len(resumed.Stats.Iterations), len(base.Stats.Iterations))
	}
	if !bytes.Equal(baseCentroids, resumedCentroids) {
		t.Fatal("final centroids differ between resumed and uninterrupted runs")
	}
}

// checkpointAt runs the persistence workload for two iterations with a
// checkpoint after each, returning the directory and the truncated
// run, whose final state is exactly what state.snap holds.
func checkpointAt(t *testing.T) (string, *core.Result) {
	t.Helper()
	dir := t.TempDir()
	space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	o := persistOpts(dir)
	o.Accelerator = accel
	o.SnapshotEvery = 1
	o.MaxIterations = 2
	res, err := core.Run(space, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.Iterations) != 2 {
		t.Fatalf("checkpointed run logged %d iterations, want 2", len(res.Stats.Iterations))
	}
	return dir, res
}

// resumeCheckpoint runs the workload against dir's checkpoint with the
// iteration cap at the checkpoint, so Run returns the restored state
// itself: no pass runs after the resume.
func resumeCheckpoint(t *testing.T, dir string) (*core.Result, error) {
	t.Helper()
	space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
	o := persistOpts(dir)
	o.Accelerator = accel
	o.SnapshotEvery = 1
	o.MaxIterations = 2
	return core.Run(space, o)
}

// assertRestored checks that a resumed run reports exactly the
// checkpointed state: iteration 3 next, the saved assignment and the
// saved iteration stats.
func assertRestored(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if got.Stats.ResumedAt != 3 {
		t.Fatalf("%s: ResumedAt = %d, want 3", label, got.Stats.ResumedAt)
	}
	if !slices.Equal(got.Assign, want.Assign) {
		t.Fatalf("%s: restored assignment differs from the checkpointed one", label)
	}
	if !reflect.DeepEqual(got.Stats.Iterations, want.Stats.Iterations) {
		t.Fatalf("%s: restored iterations %+v, checkpointed %+v", label, got.Stats.Iterations, want.Stats.Iterations)
	}
}

// TestSnapshotCorruptionRejected flips one byte at a time across the
// whole checkpoint — header, section table and every section. Each
// flip must either fail the run or, where it lands in bytes no
// checksum covers (the header reserve, section padding), restore
// exactly the saved state; a damaged checkpoint never resumes.
func TestSnapshotCorruptionRejected(t *testing.T) {
	dir, saved := checkpointAt(t)
	path := filepath.Join(dir, "state.snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	intact, err := resumeCheckpoint(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	assertRestored(t, "intact checkpoint", saved, intact)

	const stride = 7
	flips, rejected := 0, 0
	for off := 0; off < len(raw); off += stride {
		bad := slices.Clone(raw)
		bad[off] ^= 0xFF
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		flips++
		res, err := resumeCheckpoint(t, dir)
		if err != nil {
			if !strings.Contains(err.Error(), "run state") {
				t.Fatalf("flip at %d: error %q does not name the run state", off, err)
			}
			rejected++
			continue
		}
		assertRestored(t, fmt.Sprintf("flip at %d", off), saved, res)
	}
	if flips < 64 {
		t.Fatalf("only %d flips over a %d-byte checkpoint", flips, len(raw))
	}
	if rejected == 0 {
		t.Fatal("no flip was rejected")
	}
}

// TestSnapshotInconsistentRejected hands Run checkpoints whose
// container is intact but whose contents disagree with each other:
// the iteration stats must run 1…nextIter−1.
func TestSnapshotInconsistentRejected(t *testing.T) {
	dir, saved := checkpointAt(t)
	path := filepath.Join(dir, "state.snap")
	its := saved.Stats.Iterations
	skipped := slices.Clone(its)
	skipped[1].Index = 3
	cases := map[string]struct {
		next  int
		iters []runstats.Iteration
	}{
		"no iterations":     {3, nil},
		"missing iteration": {3, its[:1]},
		"extra iteration":   {2, its},
		"wrong index":       {3, skipped},
		"next iteration 0":  {0, nil},
	}
	for name, c := range cases {
		if err := core.WriteRunState(path, len(saved.Assign), 30, c.next, saved.Assign, c.iters); err != nil {
			t.Fatal(err)
		}
		if _, err := resumeCheckpoint(t, dir); err == nil || !strings.Contains(err.Error(), "run state") {
			t.Fatalf("%s: Run error = %v, want a run-state error", name, err)
		}
	}
	if err := core.WriteRunState(path, len(saved.Assign), 30, 3, saved.Assign, its); err != nil {
		t.Fatal(err)
	}
	res, err := resumeCheckpoint(t, dir)
	if err != nil {
		t.Fatal(err)
	}
	assertRestored(t, "consistent checkpoint", saved, res)
}

// TestBootstrapAssignCorruptRescans: a damaged bootstrap-assignment
// cache is a performance artifact, not source data — the run must fall
// back to a fresh scan (and identical results), never fail.
func TestBootstrapAssignCorruptRescans(t *testing.T) {
	dir := t.TempDir()
	run := func() (*core.Result, []byte) {
		space, accel := persistSpaceAccel(t, 7, lsh.Params{Bands: 8, Rows: 4})
		o := persistOpts(dir)
		o.Accelerator = accel
		res, err := core.Run(space, o)
		if err != nil {
			t.Fatal(err)
		}
		return res, kmodesFingerprint(t)(space)
	}
	cold, coldCentroids := run()

	path := filepath.Join(dir, "bootstrap-assign.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, warmCentroids := run()
	if !warm.Stats.WarmStart {
		t.Fatal("corrupt assignment cache must not prevent the index warm start")
	}
	assertPersistEqual(t, "rescan after corruption", cold, warm, coldCentroids, warmCentroids)

	healed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(healed, raw) {
		t.Fatal("rescan did not rewrite the corrupt assignment cache")
	}
}

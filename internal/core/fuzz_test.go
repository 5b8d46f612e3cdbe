package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"

	"lshcluster/internal/core"
)

// FuzzReorderIdentity fuzzes the locality-reordering oracle end to
// end: for any workload shape, banding, shard count, worker count and
// update mode, a full MH-K-Modes run on the locality-reordered index
// must produce assignments (in original-ID space), iteration counts
// and move counts byte-identical to the DisableReorder oracle, and the
// permutation the index derived must satisfy perm∘inv = identity.
func FuzzReorderIdentity(f *testing.F) {
	f.Add(uint16(200), uint8(10), uint64(7), uint8(2), uint8(1), false)
	f.Add(uint16(57), uint8(3), uint64(1), uint8(4), uint8(4), true)
	f.Add(uint16(331), uint8(25), uint64(99), uint8(1), uint8(1), true)
	f.Add(uint16(120), uint8(7), uint64(42), uint8(3), uint8(2), false)
	f.Fuzz(func(t *testing.T, nRaw uint16, kRaw uint8, seed uint64, shardsRaw, workersRaw uint8, deferred bool) {
		n := 40 + int(nRaw)%360
		k := 2 + int(kRaw)%30
		if k > n {
			k = n
		}
		shards := 1 + int(shardsRaw)%4
		workers := 1 + int(workersRaw)%4
		ds, err := datagen.Generate(datagen.Config{
			Items: n, Clusters: k, Attrs: 10, Domain: 60,
			MinRuleFrac: 0.5, MaxRuleFrac: 0.9, Seed: int64(seed%1000) + 1,
		})
		if err != nil {
			t.Skip() // degenerate generator shape
		}
		upd := core.UpdateImmediate
		if deferred || workers > 1 {
			upd = core.UpdateDeferred
		}
		run := func(disable bool) (*core.Result, core.Accelerator) {
			space, err := kmodes.NewSpace(ds, kmodes.Config{K: k, Seed: int64(seed % 1000)})
			if err != nil {
				t.Fatal(err)
			}
			accel, err := core.NewMinHashAccelerator(ds, lsh.Params{Bands: 6, Rows: 3}, seed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := core.Run(space, core.Options{
				Accelerator: accel, Update: upd, Workers: workers,
				Shards: shards, MaxIterations: 5, DisableReorder: disable,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res, accel
		}
		ord, accel := run(false)
		ref, _ := run(true)
		perm, inv := accel.(core.ReorderMapper).ReorderMap()
		if perm == nil {
			t.Fatal("bulk bootstrap did not reorder the index")
		}
		if len(perm) != n || len(inv) != n {
			t.Fatalf("perm/inv lengths %d/%d, want %d", len(perm), len(inv), n)
		}
		for i := 0; i < n; i++ {
			if inv[perm[i]] != int32(i) || perm[inv[i]] != int32(i) {
				t.Fatalf("perm/inv not inverse at %d", i)
			}
		}
		for i := range ref.Assign {
			if ref.Assign[i] != ord.Assign[i] {
				t.Fatalf("assign[%d]: reordered %d, oracle %d", i, ord.Assign[i], ref.Assign[i])
			}
		}
		if len(ord.Stats.Iterations) != len(ref.Stats.Iterations) {
			t.Fatalf("iterations: reordered %d, oracle %d",
				len(ord.Stats.Iterations), len(ref.Stats.Iterations))
		}
		for i := range ref.Stats.Iterations {
			if ref.Stats.Iterations[i].Moves != ord.Stats.Iterations[i].Moves {
				t.Fatalf("iteration %d moves: reordered %d, oracle %d",
					i+1, ord.Stats.Iterations[i].Moves, ref.Stats.Iterations[i].Moves)
			}
		}
	})
}

// FuzzClusterSummaries fuzzes the cluster-summary upkeep against
// walking every bucket. For any banding shape, shard count, reorder
// setting, cluster count and assignment view, and after every move of
// a random sequence reported through the ClusterSummarizer hook: each
// summary a block sweep hands over must equal the first-appearance
// list of its bucket's clusters recomputed from scratch (and at S=1,
// where every bucket arrives whole, each long bucket must carry one),
// and each CandidatesBlock shortlist must equal the per-item
// Candidates walk. View entries of −1 stand for unassigned items.
func FuzzClusterSummaries(f *testing.F) {
	f.Add(uint16(300), uint8(3), uint8(0), uint8(0), true, uint8(12), uint64(3), []byte{1, 0, 5, 9, 1, 7, 200, 0, 2})
	f.Add(uint16(120), uint8(1), uint8(1), uint8(3), false, uint8(4), uint64(8), []byte{7, 0, 1, 7, 0, 2, 7, 0, 3})
	f.Add(uint16(390), uint8(5), uint8(0), uint8(3), true, uint8(39), uint64(21), []byte{0, 1, 0, 255, 255, 255})
	f.Fuzz(func(t *testing.T, nRaw uint16, bandsRaw, rowsRaw, shardsRaw uint8, reorder bool, kRaw uint8, seed uint64, moves []byte) {
		n := 40 + int(nRaw)%400
		p := lsh.Params{Bands: 1 + int(bandsRaw)%6, Rows: 1 + int(rowsRaw)%3}
		shards := 1 + int(shardsRaw)%4
		k := 1 + int(kRaw)%40
		ds, err := datagen.Generate(datagen.Config{
			Items: n, Clusters: 8, Attrs: 10, Domain: 40,
			MinRuleFrac: 0.6, MaxRuleFrac: 0.9, Seed: int64(seed%1000) + 1,
		})
		if err != nil {
			t.Skip() // degenerate generator shape
		}
		accel, err := core.NewMinHashAccelerator(ds, p, seed)
		if err != nil {
			t.Fatal(err)
		}
		accel.SetShards(shards)
		accel.SetReorder(!reorder)
		if err := accel.Reset(k); err != nil {
			t.Fatal(err)
		}
		if err := accel.SignAll(1, nil); err != nil {
			t.Fatal(err)
		}
		if err := accel.BuildFrozen(1); err != nil {
			t.Fatal(err)
		}
		perm, _ := accel.ReorderMap()
		internal := func(item int32) int32 {
			if perm != nil {
				return perm[item]
			}
			return item
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		view := make([]int32, n)
		for i := range view {
			view[i] = int32(rng.Intn(k+1)) - 1
		}
		accel.SummarizeClusters(view)
		items := make([]int32, n)
		for i := range items {
			items[i] = int32(i)
		}
		sweep := accel.Index().NewQuery()
		ref := accel.NewQuerier()
		bq := accel.NewQuerier().(core.BlockQuerier)
		check := func(step int) {
			sweep.CandidatesBatch(items, func(pos int, bucket []int32, sum int32) {
				if sum < 0 {
					if shards == 1 && len(bucket) >= lsh.SummaryMinLen {
						t.Fatalf("step %d: item %d's %d-item bucket has no summary", step, pos, len(bucket))
					}
					return
				}
				if len(bucket) < lsh.SummaryMinLen {
					t.Fatalf("step %d: item %d's %d-item bucket has a summary", step, pos, len(bucket))
				}
				var want []int32
				for _, it := range bucket {
					if c := view[it]; c >= 0 && !slices.Contains(want, c) {
						want = append(want, c)
					}
				}
				if got := sweep.Summary(sum); !slices.Equal(got, want) {
					t.Fatalf("step %d: item %d's bucket summary %v, recomputed %v", step, pos, got, want)
				}
			})
			for lo := 0; lo < n; lo += 64 {
				blk := items[lo:min(lo+64, n)]
				bq.CandidatesBlock(blk, view, func(pos int, shortlist []int32) {
					if want := ref.Candidates(blk[pos], view); !slices.Equal(shortlist, want) {
						t.Fatalf("step %d: item %d block shortlist %v, per-item %v", step, blk[pos], shortlist, want)
					}
				})
			}
		}
		check(0)
		for j := 0; j+2 < len(moves) && j < 3*32; j += 3 {
			item := int32((int(moves[j]) | int(moves[j+1])<<8) % n)
			view[internal(item)] = int32(int(moves[j+2])%(k+1)) - 1
			accel.Resummarize(item, view)
			check(j/3 + 1)
		}
	})
}

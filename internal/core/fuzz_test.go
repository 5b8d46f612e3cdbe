package core_test

import (
	"math/rand"
	"slices"
	"testing"

	"lshcluster/internal/datagen"
	"lshcluster/internal/lsh"

	"lshcluster/internal/core"
)

// FuzzClusterSummaries fuzzes the cluster-summary upkeep against
// walking every bucket. For any banding shape, cluster count and
// assignment view, and after every batch of a random move sequence
// reported through the ClusterSummarizer hook in one call: each
// summary a block sweep hands over must equal the first-appearance
// list of its bucket's clusters recomputed from scratch, each long
// bucket must carry one, and each CandidatesBlock shortlist must equal
// the per-item Candidates walk. View entries of −1 stand for unassigned
// items.
func FuzzClusterSummaries(f *testing.F) {
	f.Add(uint16(300), uint8(3), uint8(0), uint8(12), uint64(3), []byte{1, 0, 5, 9, 1, 7, 200, 0, 2})
	f.Add(uint16(120), uint8(1), uint8(1), uint8(4), uint64(8), []byte{7, 0, 1, 7, 0, 2, 7, 0, 3})
	f.Add(uint16(390), uint8(5), uint8(0), uint8(39), uint64(21), []byte{0, 1, 0, 255, 255, 255})
	f.Fuzz(func(t *testing.T, nRaw uint16, bandsRaw, rowsRaw, kRaw uint8, seed uint64, moves []byte) {
		n := 40 + int(nRaw)%400
		p := lsh.Params{Bands: 1 + int(bandsRaw)%6, Rows: 1 + int(rowsRaw)%3}
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
		if err := accel.Reset(k); err != nil {
			t.Fatal(err)
		}
		if err := accel.SignAll(1, nil); err != nil {
			t.Fatal(err)
		}
		if err := accel.BuildFrozen(1); err != nil {
			t.Fatal(err)
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
		sweep := accel.Index()
		ref := accel.NewQuerier()
		bq := accel.NewQuerier().(core.BlockQuerier)
		check := func(step int) {
			sweep.CandidatesBatch(items, func(pos int, bucket []int32, sum int32) {
				if sum < 0 {
					if len(bucket) >= lsh.SummaryMinLen {
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
		// A move whose low cluster byte is odd ends its batch, so batches
		// report one or several movers, some sharing buckets.
		var batch []int32
		for j := 0; j+2 < len(moves) && j < 3*32; j += 3 {
			item := int32((int(moves[j]) | int(moves[j+1])<<8) % n)
			view[item] = int32(int(moves[j+2])%(k+1)) - 1
			if batch = append(batch, item); moves[j+2]%2 == 1 || j+5 >= len(moves) {
				accel.Resummarize(batch, view)
				batch = batch[:0]
				check(j/3 + 1)
			}
		}
	})
}

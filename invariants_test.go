package lshcluster

// Cross-module property-based tests (testing/quick) of the invariants
// DESIGN.md §7 commits to. Each property generates randomised workloads
// end to end — dataset → index → driver — rather than exercising a
// single package.

import (
	"math"
	"testing"
	"testing/quick"

	"lshcluster/internal/core"
	"lshcluster/internal/datagen"
	"lshcluster/internal/dataset"
	"lshcluster/internal/kmodes"
	"lshcluster/internal/lsh"
	"lshcluster/internal/minhash"
)

// workloadFromRand maps quick's random bytes onto a small but varied
// clustering workload.
func workloadFromRand(nRaw, kRaw, mRaw, seedRaw uint8) (*dataset.Dataset, int, int64) {
	n := 60 + int(nRaw)%140 // 60–199 items
	k := 3 + int(kRaw)%12   // 3–14 clusters
	m := 6 + int(mRaw)%18   // 6–23 attributes
	seed := int64(seedRaw) + 1
	ds, err := datagen.Generate(datagen.Config{
		Items: n, Clusters: k, Attrs: m, Domain: 200,
		MinRuleFrac: 0.5, MaxRuleFrac: 0.9, Seed: seed,
	})
	if err != nil {
		panic(err)
	}
	return ds, k, seed
}

// Property: after any accelerated run, every item's shortlist contains
// its assigned cluster (the self-collision guarantee the error bound
// relies on), and the assignment is a valid cluster index.
func TestPropertyShortlistSelfContainment(t *testing.T) {
	check := func(nRaw, kRaw, mRaw, seedRaw, bRaw, rRaw uint8) bool {
		ds, k, seed := workloadFromRand(nRaw, kRaw, mRaw, seedRaw)
		params := lsh.Params{Bands: 1 + int(bRaw)%24, Rows: 1 + int(rRaw)%6}
		accel, err := core.NewMinHashAccelerator(ds, params, uint64(seed))
		if err != nil {
			return false
		}
		space, err := kmodes.NewSpace(ds, kmodes.Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		res, err := core.Run(space, core.Options{Accelerator: accel, MaxIterations: 6})
		if err != nil {
			return false
		}
		q := accel.NewQuerier()
		for i := 0; i < ds.NumItems(); i++ {
			c := res.Assign[i]
			if c < 0 || int(c) >= k {
				return false
			}
			found := false
			for _, cand := range q.Candidates(int32(i), res.Assign) {
				if cand == c {
					found = true
					break
				}
			}
			if !found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: the exact driver's objective never increases across
// iterations, for any workload and any K.
func TestPropertyExactCostMonotone(t *testing.T) {
	check := func(nRaw, kRaw, mRaw, seedRaw uint8) bool {
		ds, k, seed := workloadFromRand(nRaw, kRaw, mRaw, seedRaw)
		space, err := kmodes.NewSpace(ds, kmodes.Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		res, err := core.Run(space, core.Options{MaxIterations: 10})
		if err != nil {
			return false
		}
		prev := math.Inf(1)
		for _, it := range res.Stats.Iterations {
			if it.Cost > prev {
				return false
			}
			prev = it.Cost
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: a converged run is a fixed point — rerunning the driver from
// the converged modes and assignment produces zero moves in its first
// iteration. Verified through the public API by re-running with
// MaxIterations large enough to converge, then predicting with the model:
// every item's predicted cluster distance equals its assigned distance.
func TestPropertyConvergedAssignmentsAreNearest(t *testing.T) {
	check := func(nRaw, kRaw, mRaw, seedRaw uint8) bool {
		ds, k, seed := workloadFromRand(nRaw, kRaw, mRaw, seedRaw)
		space, err := kmodes.NewSpace(ds, kmodes.Config{K: k, Seed: seed})
		if err != nil {
			return false
		}
		res, err := core.Run(space, core.Options{MaxIterations: 50})
		if err != nil || !res.Stats.Converged {
			return false
		}
		model := space.Model()
		for i := 0; i < ds.NumItems(); i++ {
			_, bestD := model.Predict(ds.Row(i))
			assignedD := dataset.Mismatches(ds.Row(i), model.Mode(int(res.Assign[i])))
			// The assigned cluster must be no worse than the global
			// nearest (ties allowed: Predict breaks ties by index, the
			// driver by current cluster).
			if assignedD != bestD {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: the MinHash per-position agreement of two dataset rows is an
// estimate of their tagged Jaccard similarity — across random rows of
// random datasets, with a 512-hash scheme the estimate stays within 5
// standard errors of the exact value.
func TestPropertyMinHashEstimatesDatasetJaccard(t *testing.T) {
	scheme := minhash.NewScheme(512, 99)
	sigA := make([]uint64, 512)
	sigB := make([]uint64, 512)
	check := func(nRaw, kRaw, mRaw, seedRaw, iRaw, jRaw uint8) bool {
		ds, _, _ := workloadFromRand(nRaw, kRaw, mRaw, seedRaw)
		i := int(iRaw) % ds.NumItems()
		j := int(jRaw) % ds.NumItems()
		trueJ := ds.Jaccard(i, j)
		scheme.Sign(ds.PresentValues(i, nil), sigA)
		scheme.Sign(ds.PresentValues(j, nil), sigB)
		est := minhash.EstimateJaccard(sigA, sigB)
		se := math.Sqrt(trueJ*(1-trueJ)/512) + 1e-9
		return math.Abs(est-trueJ) <= 5*se+0.02
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: purity of any run lies in (0, 1], and the exact and
// full-shortlist-accelerated drivers agree assignment-for-assignment
// (the "accelerator with perfect recall changes nothing" equivalence).
func TestPropertyPerfectRecallEquivalence(t *testing.T) {
	check := func(nRaw, kRaw, mRaw, seedRaw uint8) bool {
		ds, k, seed := workloadFromRand(nRaw, kRaw, mRaw, seedRaw)
		mk := func() *kmodes.Space {
			s, err := kmodes.NewSpace(ds, kmodes.Config{K: k, Seed: seed})
			if err != nil {
				panic(err)
			}
			return s
		}
		exact, err := core.Run(mk(), core.Options{MaxIterations: 8})
		if err != nil {
			return false
		}
		full, err := core.Run(mk(), core.Options{
			Accelerator:   &fullRecallAccel{},
			MaxIterations: 8,
		})
		if err != nil {
			return false
		}
		for i := range exact.Assign {
			if exact.Assign[i] != full.Assign[i] {
				return false
			}
		}
		p, err := Purity(exact.Assign, ds.Labels())
		if err != nil {
			return false
		}
		return p > 0 && p <= 1
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// fullRecallAccel returns every cluster for every item.
type fullRecallAccel struct {
	buf []int32
}

func (a *fullRecallAccel) Reset(k int) error {
	a.buf = make([]int32, k)
	for i := range a.buf {
		a.buf[i] = int32(i)
	}
	return nil
}
func (a *fullRecallAccel) Insert(int32) error { return nil }
func (a *fullRecallAccel) NewQuerier() core.Querier {
	return fullRecallQuerier{buf: a.buf}
}

type fullRecallQuerier struct{ buf []int32 }

func (q fullRecallQuerier) Candidates(int32, []int32) []int32 { return q.buf }

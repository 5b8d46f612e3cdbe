package lsh

import "lshcluster/internal/par"

// Parallel block signing: the bootstrap's "single pass applying LSH to
// the dataset" (paper §III-B, Algorithm 2 lines 1–9) decomposed so the
// expensive half — computing every item's signature and band keys — is
// sharded across worker goroutines into a flat preallocated arena,
// while the cheap half (filing items under buckets) runs as a parallel
// direct-to-frozen build (BuildFrozen).

// SignFunc fills sig — a scratch slice of length Params.SignatureLen
// owned by the calling worker — with one item's signature. A SignFunc
// is used by a single worker goroutine at a time, but distinct
// SignFuncs from one factory run concurrently: any mutable state
// (value-set scratch, memo tables) must be private per SignFunc or
// safe for concurrent reads.
type SignFunc func(item int32, sig []uint64)

// signPollEvery is how many items a signing worker processes between
// stop checks — signing is the longest bootstrap phase, so this bounds
// cancellation latency within it.
const signPollEvery = 1024

// SignAll computes the band keys of items [0, n) into a flat arena
// indexed keys[item·Bands+band], sharding the items across workers
// goroutines (values < 2 sign serially). newSigner is invoked once per
// worker, from that worker's goroutine, to obtain a signing function
// with private scratch — no shared sigBuf anywhere on this path, so
// the pass is race-free by construction.
//
// stop, when non-nil, is polled by every worker each signPollEvery
// items; once it returns true the workers stop early and the returned
// arena is partially filled — callers must discard it (the clustering
// driver maps stop to context cancellation and aborts the run).
//
// The arena is exactly what BuildFrozen consumes; keys are a
// function of the items' signatures alone (the band keys
// BandTable.Probe computes), regardless of workers.
func SignAll(p Params, n, workers int, newSigner func() SignFunc, stop func() bool) []uint64 {
	keys := make([]uint64, n*p.Bands)
	par.Ranges(n, workers, func(lo, hi int) {
		sig := make([]uint64, p.SignatureLen())
		sign := newSigner()
		poll := 0
		for item := lo; item < hi; item++ {
			if stop != nil {
				if poll++; poll >= signPollEvery {
					poll = 0
					if stop() {
						return
					}
				}
			}
			sign(int32(item), sig)
			base := item * p.Bands
			for b := 0; b < p.Bands; b++ {
				keys[base+b] = bandKeyOf(p, sig, b)
			}
		}
	})
	return keys
}

package lsh

// Reverse is a reusable reverse-collision view over an index: mark a
// set of *source* items, then enumerate every item that shares at
// least one band bucket with any source. Collision is symmetric, so the
// emitted items are exactly those whose candidate enumeration would
// report a source — the "items touching" relation the clustering
// driver needs to expand a changed cluster neighbourhood into the set
// of items whose shortlist (or shortlist distances) may have changed.
// Every source collides with itself, so every source is emitted too:
// through its stored buckets, or on its own when it shares none.
//
// Buckets are deduplicated at the bucket level: a bucket shared by many
// sources is scanned exactly once during Emit, so expanding the members
// of a cluster costs O(distinct hot buckets' contents) rather than
// O(sources × bands × bucket size). The CSR layout makes this possible:
// its buckets have stable global IDs (see frozenIndex).
//
// A Reverse owns private scratch and is not safe for concurrent use.
type Reverse struct {
	ix     *Index
	mark   []bool  // per stored bucket: hot this round
	marked []int32 // hot bucket IDs, first-marked order
	// alone lists the sources that share no stored bucket, which only
	// Emit's own report of them reaches.
	alone []int32
}

// NewReverse returns a reverse view over the index.
func (ix *Index) NewReverse() *Reverse {
	return &Reverse{ix: ix, mark: make([]bool, len(ix.frozen.offsets)-1)}
}

// AddSource marks every stored bucket of item hot, or remembers the
// item when it shares none. IDs outside [0, n) are ignored.
func (r *Reverse) AddSource(item int32) {
	ix := r.ix
	if !ix.indexed(item) {
		return
	}
	bands := ix.params.Bands
	shared := false
	for _, slot := range ix.frozen.slots[int(item)*bands:][:bands] {
		if slot < 0 {
			continue
		}
		shared = true
		if !r.mark[slot] {
			r.mark[slot] = true
			r.marked = append(r.marked, slot)
		}
	}
	if !shared {
		r.alone = append(r.alone, item)
	}
}

// Emit invokes fn for every item in a hot bucket, each bucket scanned
// once, then for every source that shares no stored bucket; an item in
// several hot buckets is reported once per bucket (callers dedupe,
// typically into a flag array). fn returning false stops the
// enumeration early. All marks are reset before Emit returns, whether
// or not it was stopped, so the view is immediately reusable.
func (r *Reverse) Emit(fn func(item int32) bool) {
	fz := &r.ix.frozen
	stopped := false
	for _, s := range r.marked {
		if !stopped {
			for _, it := range fz.items[fz.offsets[s]:fz.offsets[s+1]] {
				if !fn(it) {
					stopped = true
					break
				}
			}
		}
		r.mark[s] = false
	}
	for _, it := range r.alone {
		if stopped || !fn(it) {
			break
		}
	}
	r.marked, r.alone = r.marked[:0], r.alone[:0]
}

package core

// RunPerItem runs the per-item reference: Run with every shortlist
// fetched by its own Querier.Candidates call, which the block passes
// must match bit for bit.
func RunPerItem(space Space, opts Options) (*Result, error) {
	return run(space, opts, true)
}

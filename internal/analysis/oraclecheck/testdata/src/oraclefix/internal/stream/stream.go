// Package stream is the fixture's streaming clusterer.
package stream

// Config parameterises a stream.
type Config struct {
	NumAttrs int
	// ScalarKernels re-exposes the kernel oracle to library users.
	ScalarKernels bool // want `stream\.Config\.ScalarKernels is an oracle switch on a public config`
}

// Clusterer keeps its kernel switch unexported, for its own tests.
type Clusterer struct {
	cfg    Config
	scalar bool
}

// New creates a clusterer.
func New(cfg Config) *Clusterer { return &Clusterer{cfg: cfg, scalar: cfg.ScalarKernels} }

// Package core is an oraclecheck fixture mimicking the engine options.
package core

// Options mirrors the real driver options.
type Options struct {
	Clusters int
	Oracles  Oracles
}

// Oracles mirrors the real oracle switches.
type Oracles struct {
	// DisableGood is written only by tests.
	DisableGood bool
	// ScalarKernels is written by a test and, wrongly, by the CLI.
	ScalarKernels bool
	// DisableUntested is read by the engine, but no test writes it.
	DisableUntested bool // want `Oracles\.DisableUntested is written by no _test\.go file`
}

// Run consumes the options: reading a switch is allowed anywhere.
func Run(o Options) int {
	if o.Oracles.DisableGood || o.Oracles.ScalarKernels || o.Oracles.DisableUntested {
		return o.Clusters
	}
	return 0
}

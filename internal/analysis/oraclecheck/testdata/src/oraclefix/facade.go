// Package oraclefix is the fixture's facade.
package oraclefix

import "oraclefix/internal/core"

// Config is the user-facing configuration.
type Config struct {
	Clusters int
	// DisableStale re-exposes an oracle switch to library users.
	DisableStale bool // want `facade Config\.DisableStale is an oracle switch on a public config`
	// disableQuiet is unexported: no user can reach it.
	disableQuiet bool
}

func (c Config) coreOptions() core.Options {
	o := core.Options{Clusters: c.Clusters}
	if c.DisableStale || c.disableQuiet {
		o.Oracles = core.Oracles{false, true, false} // want `Oracles\.DisableGood is written outside` `Oracles\.ScalarKernels is written outside` `Oracles\.DisableUntested is written outside`
	}
	return o
}

// Cluster runs the fixture engine.
func Cluster(c Config) int { return core.Run(c.coreOptions()) }

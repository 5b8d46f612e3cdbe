// Command tool is the fixture CLI: every write it makes to an oracle
// switch is a finding, whatever the form.
package main

import (
	"flag"
	"fmt"

	"oraclefix/internal/core"
)

func main() {
	scalar := flag.Bool("scalar-kernels", false, "use scalar kernels")
	opts := core.Options{
		Clusters: 3,
		Oracles:  core.Oracles{DisableGood: true}, // want `Oracles\.DisableGood is written outside a _test\.go file`
	}
	opts.Oracles.ScalarKernels = *scalar                                                // want `Oracles\.ScalarKernels is written outside a _test\.go file`
	flag.BoolVar(&opts.Oracles.DisableUntested, "untested", false, "the untested path") // want `Oracles\.DisableUntested is written outside a _test\.go file`
	flag.Parse()
	fmt.Println(core.Run(opts))
}

package core

import "testing"

func TestOracles(t *testing.T) {
	var o Options
	o.Oracles.DisableGood = true
	if Run(o) != 0 {
		t.Log("exercised")
	}
	o.Oracles = Oracles{ScalarKernels: true}
	if Run(o) != 0 {
		t.Log("exercised")
	}
}

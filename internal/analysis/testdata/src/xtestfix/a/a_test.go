package a_test

import (
	"testing"

	"xtestfix/a"
	"xtestfix/b"
)

// TestSize passes b's *a.Box to the export_test.go helper: it type-checks
// only when b and the helper see the same test variant of a.
func TestSize(t *testing.T) {
	if got := a.Size(b.New()); got != 0 {
		t.Fatalf("Size = %d", got)
	}
}

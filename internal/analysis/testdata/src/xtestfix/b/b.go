// Package b imports the package under test of a's external test.
package b

import "xtestfix/a"

// New returns an empty box.
func New() *a.Box { return &a.Box{} }

// Package a is a loader fixture: its external test uses an
// export_test.go helper together with package b, which imports a.
package a

// Box is the type whose identity the external test relies on.
type Box struct{ n int }

func size(b *Box) int { return b.n }

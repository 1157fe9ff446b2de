//go:build !amd64 || purego

package fr

// useADX selects the scalar product backend for a test; this build has
// only the generic core, so only on = false is ok.
func useADX(on bool) (restore func(), ok bool) { return func() {}, !on }

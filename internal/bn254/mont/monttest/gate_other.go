//go:build !amd64 || purego

package monttest

// UseADX selects the scalar product backend for a test; this build has
// only the generic core, so only on = false is ok.
func UseADX(on bool) (restore func(), ok bool) { return func() {}, !on }

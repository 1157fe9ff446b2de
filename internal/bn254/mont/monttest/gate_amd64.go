//go:build amd64 && !purego

package monttest

import (
	"zkrownn/internal/bn254/mont"
	"zkrownn/internal/cpu"
)

// UseADX selects the scalar product backend for a test, the MULX/ADX
// kernels when on and the generic core otherwise, and returns the
// function that restores the startup choice; ok is false when the CPU
// cannot run the one asked for.
func UseADX(on bool) (restore func(), ok bool) {
	if on && !cpu.X86HasADX {
		return nil, false
	}
	prev := mont.SupportADX
	mont.SupportADX = on
	return func() { mont.SupportADX = prev }, true
}

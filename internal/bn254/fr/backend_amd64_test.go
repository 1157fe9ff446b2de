//go:build amd64 && !purego

package fr

import "zkrownn/internal/cpu"

// useADX selects the scalar product backend for a test, the MULX/ADX
// kernels when on and the generic core otherwise, and returns the
// function that restores the startup choice; ok is false when the CPU
// cannot run the one asked for.
func useADX(on bool) (restore func(), ok bool) {
	if on && !cpu.X86HasADX {
		return nil, false
	}
	prev := supportAdx
	supportAdx = on
	return func() { supportAdx = prev }, true
}

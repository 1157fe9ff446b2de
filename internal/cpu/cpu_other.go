//go:build !amd64 || purego

package cpu

// X86HasADX and X86HasAVX512IFMA are false on non-amd64 targets and
// under the purego build tag: the assembly kernels that need them are
// not compiled in.
var (
	X86HasADX        = false
	X86HasAVX512IFMA = false
)

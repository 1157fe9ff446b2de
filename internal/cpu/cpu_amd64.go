//go:build amd64 && !purego

// Package cpu detects the instruction-set extensions the hand-written
// field-arithmetic kernels need. Detection runs once at package init;
// the flags are plain bools so hot paths can branch on them without an
// atomic load.
package cpu

// cpuidex executes CPUID with the given EAX/ECX inputs (implemented in
// cpuid_amd64.s).
func cpuidex(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv0 returns the low word of XCR0 (cpuid_amd64.s). It faults unless
// CPUID reports OSXSAVE.
func xgetbv0() uint32

// X86HasADX reports whether the CPU supports both the ADX (ADCX/ADOX)
// and BMI2 (MULX) extensions required by the Montgomery-multiplication
// assembly. Both arrived together on Broadwell-class cores and later;
// neither touches extended register state, so no OS-support (XSAVE)
// check is needed.
var X86HasADX = func() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuidex(7, 0)
	const bmi2 = 1 << 8
	const adx = 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}()

// X86HasAVX512IFMA reports whether 512-bit AVX-512 IFMA code may run: the
// CPU has AVX512F and AVX512IFMA and the OS saves the opmask and ZMM
// registers (see hasAVX512IFMA). The G1 batch-affine flush runs its chord
// additions eight at a time on these instructions.
var X86HasAVX512IFMA = func() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidex(1, 0)
	_, ebx7, _, _ := cpuidex(7, 0)
	var xcr0 uint32
	if ecx1&cpuid1ECXOSXSAVE != 0 {
		xcr0 = xgetbv0()
	}
	return hasAVX512IFMA(ecx1, ebx7, xcr0)
}()

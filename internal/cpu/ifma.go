package cpu

// CPUID and XCR0 bits hasAVX512IFMA reads.
const (
	cpuid1ECXOSXSAVE    = 1 << 27 // leaf 1 ECX: the OS enabled XSAVE, so XGETBV works
	cpuid7EBXAVX512F    = 1 << 16 // leaf 7 subleaf 0 EBX: AVX-512 Foundation
	cpuid7EBXAVX512IFMA = 1 << 21 // leaf 7 subleaf 0 EBX: AVX-512 IFMA (52-bit multiply-add)

	// xcr0AVX512State is the state the OS must save for 512-bit code: SSE
	// (bit 1) and AVX (bit 2) registers, the opmask registers (bit 5),
	// the upper halves of ZMM0–15 (bit 6) and ZMM16–31 (bit 7).
	xcr0AVX512State = 1<<1 | 1<<2 | 1<<5 | 1<<6 | 1<<7
)

// hasAVX512IFMA is the decision behind X86HasAVX512IFMA, a pure function
// of the register words so it can be table-tested: ecx1 is CPUID leaf 1's
// ECX, ebx7 is leaf 7 subleaf 0's EBX (zero when the CPU has no leaf 7),
// and xcr0 is XGETBV(0)'s low word (zero when OSXSAVE is clear, since
// XGETBV faults then). The CPU must have AVX-512 Foundation and IFMA, and
// the OS must save the opmask and full ZMM state across context switches.
func hasAVX512IFMA(ecx1, ebx7, xcr0 uint32) bool {
	const features = cpuid7EBXAVX512F | cpuid7EBXAVX512IFMA
	return ecx1&cpuid1ECXOSXSAVE != 0 &&
		ebx7&features == features &&
		xcr0&xcr0AVX512State == xcr0AVX512State
}

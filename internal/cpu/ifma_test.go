package cpu

import "testing"

func TestHasAVX512IFMA(t *testing.T) {
	const (
		osxsave = cpuid1ECXOSXSAVE
		f       = cpuid7EBXAVX512F
		ifma    = cpuid7EBXAVX512IFMA
		xcr0    = xcr0AVX512State
	)
	for _, c := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             bool
	}{
		{"all good", osxsave, f | ifma, xcr0, true},
		{"all good, other bits set", ^uint32(0), ^uint32(0), ^uint32(0), true},
		{"AVX512F without IFMA", osxsave, f, xcr0, false},
		{"IFMA without AVX512F", osxsave, ifma, xcr0, false},
		{"IFMA without OSXSAVE", 0, f | ifma, xcr0, false},
		{"no leaf 7", osxsave, 0, xcr0, false},
		{"XCR0 without opmask", osxsave, f | ifma, xcr0 &^ (1 << 5), false},
		{"XCR0 without ZMM0-15 upper halves", osxsave, f | ifma, xcr0 &^ (1 << 6), false},
		{"XCR0 without ZMM16-31", osxsave, f | ifma, xcr0 &^ (1 << 7), false},
		{"XCR0 without AVX", osxsave, f | ifma, xcr0 &^ (1 << 2), false},
		{"XCR0 without SSE", osxsave, f | ifma, xcr0 &^ (1 << 1), false},
		{"XGETBV unavailable", 0, f | ifma, 0, false},
	} {
		if got := hasAVX512IFMA(c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: hasAVX512IFMA(%#x, %#x, %#x) = %v, want %v", c.name, c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}
}

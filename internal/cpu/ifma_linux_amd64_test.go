//go:build !purego

package cpu

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestAVX512IFMAMatchesProcCPUInfo holds the detection to the kernel's
// view: Linux lists avx512ifma among a CPU's flags only when the CPU has
// it and the kernel saves the AVX-512 state.
func TestAVX512IFMAMatchesProcCPUInfo(t *testing.T) {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		key, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(key) != "flags" {
			continue
		}
		want := slices.Contains(strings.Fields(flags), "avx512ifma")
		if X86HasAVX512IFMA != want {
			t.Fatalf("X86HasAVX512IFMA = %v, /proc/cpuinfo lists avx512ifma: %v", X86HasAVX512IFMA, want)
		}
		t.Logf("X86HasAVX512IFMA = %v, agreeing with /proc/cpuinfo", want)
		return
	}
	t.Skip("/proc/cpuinfo has no flags line")
}

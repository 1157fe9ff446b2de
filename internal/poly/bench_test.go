package poly

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"zkrownn/internal/bn254/fr"
)

func benchmarkFFT(b *testing.B, n uint64) {
	d, err := NewDomain(n)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(n)))
	coeffs := randPoly(rng, int(d.N))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		work := append(coeffs[:0:0], coeffs...)
		d.FFT(work)
	}
}

func BenchmarkFFT4096(b *testing.B)  { benchmarkFFT(b, 4096) }
func BenchmarkFFT65536(b *testing.B) { benchmarkFFT(b, 65536) }

// BenchmarkFFTParallel pins GOMAXPROCS to measure how the per-level
// butterfly parallelism scales with cores. Run with
// `go test -bench FFTParallel ./internal/poly` and compare the /procs=1
// row against the highest one available on the host.
func BenchmarkFFTParallel(b *testing.B) {
	for _, procs := range []int{1, 2, 4, 8} {
		if procs > runtime.NumCPU() && procs != 1 {
			// Still report it: goroutines timeshare, documenting the ceiling.
			if procs > 2*runtime.NumCPU() {
				continue
			}
		}
		b.Run(fmt.Sprintf("n=262144/procs=%d", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			benchmarkFFT(b, 262144)
		})
	}
}

func BenchmarkLagrangeBasis4096(b *testing.B) {
	d, err := NewDomain(4096)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	tau := randFr(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = d.LagrangeBasisAt(&tau)
	}
}

// BenchmarkFFTFile runs the out-of-core transform the out-of-core prover
// runs — 2^15 points on disk, a quarter-domain scratch — beside the
// in-memory FFT of the same size: the gap is what splitting, spilling
// and combining cost.
func BenchmarkFFTFile(b *testing.B) {
	const n = 1 << 15
	d, err := NewDomain(n)
	if err != nil {
		b.Fatal(err)
	}
	coeffs := randPoly(rand.New(rand.NewSource(n)), n)
	b.Run(fmt.Sprintf("n=%d/buf=n/4", n), func(b *testing.B) {
		vf, err := CreateVecFile(b.TempDir(), n)
		if err != nil {
			b.Fatal(err)
		}
		defer vf.Close()
		if err := vf.WriteAt(coeffs, 0); err != nil {
			b.Fatal(err)
		}
		buf := make([]fr.Element, n/4)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := d.FFTFile(vf, buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run(fmt.Sprintf("n=%d/memory", n), func(b *testing.B) {
		work := make([]fr.Element, n)
		for i := 0; i < b.N; i++ {
			copy(work, coeffs)
			d.FFT(work)
		}
	})
}

// BenchmarkVecFile writes one 2^15-element streaming window to a disk
// vector and reads it back: the spill I/O under every out-of-core
// transform window and witness page.
func BenchmarkVecFile(b *testing.B) {
	const n = 1 << 15
	v := randPoly(rand.New(rand.NewSource(n)), n)
	vf, err := CreateVecFile(b.TempDir(), n)
	if err != nil {
		b.Fatal(err)
	}
	defer vf.Close()
	b.SetBytes(2 * n * VecElemSize)
	b.ResetTimer()
	for range b.N {
		if err := vf.WriteAt(v, 0); err != nil {
			b.Fatal(err)
		}
		if err := vf.ReadAt(v, 0); err != nil {
			b.Fatal(err)
		}
	}
}

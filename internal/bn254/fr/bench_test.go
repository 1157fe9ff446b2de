package fr

import (
	"fmt"
	"testing"
)

func BenchmarkMul(b *testing.B) {
	x := MustRandom()
	y := MustRandom()
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
	}
	_ = z
}

func BenchmarkSquare(b *testing.B) {
	x := MustRandom()
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Square(&x)
	}
	_ = z
}

// benchSizes spans one FFT butterfly's worth (small) up to a streamed
// MSM chunk's worth of elements.
var benchSizes = []int{64, 1024, 16384}

func BenchmarkMulVec(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := make([]Element, n)
			y := make([]Element, n)
			dst := make([]Element, n)
			for i := range x {
				x[i] = MustRandom()
				y[i] = MustRandom()
			}
			b.SetBytes(int64(n * Bytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulVecInto(dst, x, y)
			}
		})
	}
}

func BenchmarkButterfly(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			lo := make([]Element, n)
			hi := make([]Element, n)
			tw := make([]Element, n)
			for i := range lo {
				lo[i] = MustRandom()
				hi[i] = MustRandom()
				tw[i] = MustRandom()
			}
			b.SetBytes(int64(n * Bytes))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				TwiddleButterflyVec(lo, hi, tw)
			}
		})
	}
}

const randomOperandCount = 1 << 16

// randomOperands is a working set too large for the branch predictor to
// memorise: whether x+y wraps past the modulus, or x-y borrows, is a
// coin flip per pair. BenchmarkAdd's single pair is perfectly
// predictable and measures the other extreme.
func randomOperands() (x, y []Element) {
	x, y = make([]Element, randomOperandCount), make([]Element, randomOperandCount)
	for i := range x {
		x[i] = MustRandom()
		y[i] = MustRandom()
	}
	return x, y
}

func BenchmarkAddRandom(b *testing.B) {
	x, y := randomOperands()
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Add(&x[i%randomOperandCount], &y[i%randomOperandCount])
	}
	_ = z
}

func BenchmarkSubRandom(b *testing.B) {
	x, y := randomOperands()
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sub(&x[i%randomOperandCount], &y[i%randomOperandCount])
	}
	_ = z
}

package fp

import (
	"math/rand"
	"testing"
)

// benchRNG draws the benchmarks' operands.
var benchRNG = rand.New(rand.NewSource(1))

func BenchmarkMul(b *testing.B) {
	x := randElement(benchRNG)
	y := randElement(benchRNG)
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Mul(&x, &y)
	}
	_ = z
}

func BenchmarkSquare(b *testing.B) {
	x := randElement(benchRNG)
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Square(&x)
	}
	_ = z
}

func BenchmarkAdd(b *testing.B) {
	x := randElement(benchRNG)
	y := randElement(benchRNG)
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Add(&x, &y)
	}
	_ = z
}

func BenchmarkInverse(b *testing.B) {
	x := randElement(benchRNG)
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Inverse(&x)
	}
	_ = z
}

// BenchmarkSqrt times the square root of a square: one Exp by (p+1)/4
// and the squaring that checks it, the cost of every compressed point
// decode.
func BenchmarkSqrt(b *testing.B) {
	x := randElement(benchRNG)
	x.Square(&x)
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Sqrt(&x)
	}
	_ = z
}

func BenchmarkBatchInvert1024(b *testing.B) {
	in := make([]Element, 1024)
	for i := range in {
		in[i] = randElement(benchRNG)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = BatchInvert(in)
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
		x[i] = randElement(benchRNG)
		y[i] = randElement(benchRNG)
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

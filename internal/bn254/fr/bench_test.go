package fr

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"zkrownn/internal/bn254/lanes"
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

func BenchmarkInverse(b *testing.B) {
	x := randElement(benchRNG)
	var z Element
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.Inverse(&x)
	}
	_ = z
}

// benchSizes spans one FFT butterfly's worth (small) up to a streamed
// MSM chunk's worth of elements, and the quotient's 2¹⁵-point vectors.
var benchSizes = []int{64, 1024, 16384, 32768}

// benchVariant is one way to run a vector kernel: with the IFMA lanes on
// or off, and the operation itself.
type benchVariant struct {
	name  string
	lanes bool
	op    func()
}

// benchVariants runs the variants in turn every iteration, so they see
// the same machine state, and reports each one's ns per element; with
// the lanes present, also "ifma/adx", the first variant's time over the
// second's, which callers make the lanes' and ADX's. Variants on the
// lanes are skipped where the CPU has none.
//
//	go test ./internal/bn254/fr -run '^$' -bench 'MulVec|Butterfly' -cpu 1
func benchVariants(b *testing.B, n int, vs ...benchVariant) {
	defer func(v bool) { lanes.SupportIFMA = v }(lanes.SupportIFMA)
	laneHW := lanes.SupportIFMA
	took := make([]time.Duration, len(vs))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, v := range vs {
			if v.lanes && !laneHW {
				continue
			}
			lanes.SupportIFMA = v.lanes
			t0 := time.Now()
			v.op()
			took[j] += time.Since(t0)
		}
	}
	elems := float64(b.N) * float64(n)
	for j, v := range vs {
		if !v.lanes || laneHW {
			b.ReportMetric(float64(took[j])/elems, v.name+"-ns/elem")
		}
	}
	if laneHW {
		b.ReportMetric(float64(took[0])/float64(took[1]), "ifma/adx")
	}
}

func randVec(n int) []Element {
	v := make([]Element, n)
	for i := range v {
		v[i] = randElement(benchRNG)
	}
	return v
}

// BenchmarkMulVec is MulVecInto on the lanes and on ADX.
func BenchmarkMulVec(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y, dst := randVec(n), randVec(n), make([]Element, n)
			op := func() { MulVecInto(dst, x, y) }
			benchVariants(b, n, benchVariant{"ifma", true, op}, benchVariant{"adx", false, op})
		})
	}
}

// BenchmarkButterfly is TwiddleButterflyVec on the lanes' fused kernel
// and on ADX, beside "unfused": the lane product, then ButterflyVec's
// separate add/sub pass, what the fused kernel replaces.
func BenchmarkButterfly(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			lo, hi, tw := randVec(n), randVec(n), randVec(n)
			op := func() { TwiddleButterflyVec(lo, hi, tw) }
			unfused := func() {
				MulVecInto(hi, hi, tw)
				ButterflyVec(lo, hi)
			}
			benchVariants(b, n, benchVariant{"ifma", true, op}, benchVariant{"adx", false, op}, benchVariant{"unfused", true, unfused})
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

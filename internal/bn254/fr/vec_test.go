package fr

import (
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/lanes"
	"zkrownn/internal/bn254/mont/monttest"
	"zkrownn/internal/bn254/refimpl"
)

// vecBackend is one way the vector kernels can run: on the IFMA lanes
// (with the scalar backend taking the tail), or on a scalar backend
// alone.
type vecBackend struct {
	name       string
	lanes, adx bool
}

var vecBackends = []vecBackend{
	{"ifma+adx", true, true},
	{"adx", false, true},
	{"generic", false, false},
}

// withVecBackends runs f once under every backend this CPU and build can
// run, and restores the startup gates after each.
func withVecBackends(t *testing.T, f func(b vecBackend)) {
	t.Helper()
	laneHW := lanes.SupportIFMA
	defer func() { lanes.SupportIFMA = laneHW }()
	for _, b := range vecBackends {
		if b.lanes && !laneHW {
			continue
		}
		restore, ok := monttest.UseADX(b.adx)
		if !ok {
			continue
		}
		lanes.SupportIFMA = b.lanes
		f(b)
		restore()
	}
}

// vecOperands decodes data as a length and the vectors a, b and tw and a
// scalar s: the first byte picks n in 1–40, so every tail past the last
// block of eight occurs, and element k is the 32 bytes at 1+32k, read
// cyclically through data.
func vecOperands(data []byte) (a, b, tw []Element, s Element) {
	n := 1 + int(data[0])%40
	body := data[1:]
	elem := func(k int) Element {
		var buf [Bytes]byte
		for i := range buf {
			buf[i] = body[(k*Bytes+i)%len(body)]
		}
		return suite.Raw(buf[:])
	}
	a, b, tw = make([]Element, n), make([]Element, n), make([]Element, n)
	for i := range n {
		a[i], b[i], tw[i] = elem(3*i), elem(3*i+1), elem(3*i+2)
	}
	return a, b, tw, elem(3 * n)
}

// FuzzFrMulVecBackends holds MulVecInto, ScalarMulVecInto,
// SubScalarMulVecInto and TwiddleButterflyVec to the math/big oracle
// under every backend: the IFMA lanes (where the CPU has them), the ADX
// kernels and the generic core, so lanes ≡ ADX ≡ generic ≡ refimpl.Fr
// element for element, with dst aliasing a and b. Seeds fill whole
// vectors with 0, 1, r−1 and saturated limbs, and mix them at lengths
// around the multiples of eight.
func FuzzFrMulVecBackends(f *testing.F) {
	one := big.NewInt(1)
	values := []*big.Int{
		new(big.Int), one, new(big.Int).Sub(refimpl.Fr.M, one),
		new(big.Int).Sub(new(big.Int).Lsh(one, 256), one),
	}
	mixed := []byte{0}
	for _, v := range values {
		seed := make([]byte, 1+Bytes)
		seed[0] = 39
		v.FillBytes(seed[1:])
		f.Add(seed)
		mixed = append(mixed, v.FillBytes(make([]byte, Bytes))...)
	}
	for _, n := range []byte{1, 7, 8, 9, 16, 23, 40} {
		mixed[0] = n - 1
		f.Add(append([]byte(nil), mixed...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		a, b, tw, s := vecOperands(data)
		n := len(a)
		value := func(v []Element) []*big.Int {
			out := make([]*big.Int, len(v))
			for i := range v {
				out[i] = suite.Value((*limbs)(&v[i]))
			}
			return out
		}
		av, bv, twv, sv := value(a), value(b), value(tw), suite.Value((*limbs)(&s))
		withVecBackends(t, func(be vecBackend) {
			check := func(op string, got []Element, want func(i int) *big.Int) {
				t.Helper()
				for i := range got {
					if w := want(i); !suite.Holds((*limbs)(&got[i]), w) {
						t.Fatalf("%s: %s, n=%d: element %d is raw %x = %v, want %v", be.name, op, n, i, got[i], suite.Value((*limbs)(&got[i])), w)
					}
				}
			}
			product := func(i int) *big.Int { return refimpl.Fr.Mul(av[i], bv[i]) }
			scaled := func(i int) *big.Int { return refimpl.Fr.Mul(av[i], sv) }

			dst := make([]Element, n)
			MulVecInto(dst, a, b)
			check("MulVecInto", dst, product)
			copy(dst, a)
			MulVecInto(dst, dst, b)
			check("MulVecInto(dst=a)", dst, product)
			copy(dst, b)
			MulVecInto(dst, a, dst)
			check("MulVecInto(dst=b)", dst, product)

			ScalarMulVecInto(dst, a, &s)
			check("ScalarMulVecInto", dst, scaled)
			copy(dst, a)
			ScalarMulVecInto(dst, dst, &s)
			check("ScalarMulVecInto(dst=a)", dst, scaled)

			diff := func(i int) *big.Int { return refimpl.Fr.Mul(refimpl.Fr.Sub(av[i], bv[i]), sv) }
			SubScalarMulVecInto(dst, a, b, &s)
			check("SubScalarMulVecInto", dst, diff)
			copy(dst, a)
			SubScalarMulVecInto(dst, dst, b, &s)
			check("SubScalarMulVecInto(dst=a)", dst, diff)
			copy(dst, b)
			SubScalarMulVecInto(dst, a, dst, &s)
			check("SubScalarMulVecInto(dst=b)", dst, diff)

			lo, hi := append([]Element(nil), a...), append([]Element(nil), b...)
			TwiddleButterflyVec(lo, hi, tw)
			check("TwiddleButterflyVec.a", lo, func(i int) *big.Int { return refimpl.Fr.Add(av[i], refimpl.Fr.Mul(bv[i], twv[i])) })
			check("TwiddleButterflyVec.b", hi, func(i int) *big.Int { return refimpl.Fr.Sub(av[i], refimpl.Fr.Mul(bv[i], twv[i])) })
		})
	})
}

// TestFrLanesBitIdentical checks that the backends return the same bits
// at the quotient's and the FFT levels' shapes, which the fuzz target's
// 40 elements do not reach: a 2¹²-element product, a scalar product and
// a butterfly, each with odd lengths and offsets so the blocks start off
// the slice's alignment. It logs which backends ran.
func TestFrLanesBitIdentical(t *testing.T) {
	t.Logf("fr scalar Mul backend: %s; IFMA lanes: %v", MulBackend(), lanes.SupportIFMA)
	rng := rand.New(rand.NewSource(15))
	const n = 1<<12 + 5
	a, b, tw := make([]Element, n), make([]Element, n), make([]Element, n)
	for i := range a {
		a[i], b[i], tw[i] = randElement(rng), randElement(rng), randElement(rng)
	}
	s := randElement(rng)
	type result struct{ mul, scaled, lo, hi []Element }
	var want *result
	var ran []string
	withVecBackends(t, func(be vecBackend) {
		ran = append(ran, be.name)
		r := &result{make([]Element, n), make([]Element, n), append([]Element(nil), a...), append([]Element(nil), b...)}
		MulVecInto(r.mul[3:], a[3:], b[3:])
		ScalarMulVecInto(r.scaled[1:], a[1:], &s)
		TwiddleButterflyVec(r.lo[2:], r.hi[2:], tw[2:])
		if want == nil {
			want = r
			return
		}
		for i := range r.mul {
			if r.mul[i] != want.mul[i] || r.scaled[i] != want.scaled[i] || r.lo[i] != want.lo[i] || r.hi[i] != want.hi[i] {
				t.Fatalf("%s differs from %s at element %d", be.name, ran[0], i)
			}
		}
	})
	t.Logf("backends compared: %v", ran)
}

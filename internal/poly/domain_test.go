package poly

import (
	"math/big"
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
)

func randFr(rng *rand.Rand) fr.Element {
	var e fr.Element
	b := make([]byte, 40)
	rng.Read(b)
	e.SetBigInt(new(big.Int).SetBytes(b))
	return e
}

func randPoly(rng *rand.Rand, n int) []fr.Element {
	out := make([]fr.Element, n)
	for i := range out {
		out[i] = randFr(rng)
	}
	return out
}

// evalPoly evaluates the coefficient vector at x with Horner's rule.
func evalPoly(coeffs []fr.Element, x *fr.Element) fr.Element {
	var res fr.Element
	for i := len(coeffs) - 1; i >= 0; i-- {
		res.Mul(&res, x)
		res.Add(&res, &coeffs[i])
	}
	return res
}

// mulNaive returns the product of two coefficient vectors in O(n·m), the
// oracle the FFT-based products are checked against.
func mulNaive(a, b []fr.Element) []fr.Element {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	out := make([]fr.Element, len(a)+len(b)-1)
	for i := range a {
		if a[i].IsZero() {
			continue
		}
		for j := range b {
			var t fr.Element
			t.Mul(&a[i], &b[j])
			out[i+j].Add(&out[i+j], &t)
		}
	}
	return out
}

func TestNextPow2(t *testing.T) {
	cases := map[uint64]uint64{1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1023: 1024, 1024: 1024, 1025: 2048}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Fatalf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(60))
	for _, n := range []uint64{1, 2, 4, 16, 64, 256} {
		d, err := NewDomain(n)
		if err != nil {
			t.Fatal(err)
		}
		coeffs := randPoly(rng, int(d.N))
		work := append([]fr.Element(nil), coeffs...)
		d.FFT(work)
		d.IFFT(work)
		for i := range coeffs {
			if !work[i].Equal(&coeffs[i]) {
				t.Fatalf("FFT/IFFT round trip failed at n=%d index %d", n, i)
			}
		}
	}
}

func TestFFTMatchesHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d, err := NewDomain(32)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := randPoly(rng, int(d.N))
	evals := append([]fr.Element(nil), coeffs...)
	d.FFT(evals)
	for i := uint64(0); i < d.N; i++ {
		x := d.Element(i)
		want := evalPoly(coeffs, &x)
		if !evals[i].Equal(&want) {
			t.Fatalf("FFT disagrees with Horner at %d", i)
		}
	}
}

func TestCosetFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	d, err := NewDomain(64)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := randPoly(rng, int(d.N))
	work := append([]fr.Element(nil), coeffs...)
	d.FFTCoset(work)
	d.IFFTCoset(work)
	for i := range coeffs {
		if !work[i].Equal(&coeffs[i]) {
			t.Fatalf("coset round trip failed at %d", i)
		}
	}
}

func TestCosetFFTMatchesHorner(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	d, err := NewDomain(16)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := randPoly(rng, int(d.N))
	evals := append([]fr.Element(nil), coeffs...)
	d.FFTCoset(evals)
	for i := uint64(0); i < d.N; i++ {
		x := d.Element(i)
		x.Mul(&x, &d.CosetShift)
		want := evalPoly(coeffs, &x)
		if !evals[i].Equal(&want) {
			t.Fatalf("coset FFT disagrees with Horner at %d", i)
		}
	}
}

func TestVanishing(t *testing.T) {
	d, err := NewDomain(32)
	if err != nil {
		t.Fatal(err)
	}
	// Z vanishes on H.
	for _, i := range []uint64{0, 1, 7, 31} {
		x := d.Element(i)
		z := d.VanishingEval(&x)
		if !z.IsZero() {
			t.Fatalf("Z(ω^%d) != 0", i)
		}
	}
	// Z is the same non-zero constant across the coset.
	zc := d.VanishingOnCoset()
	if zc.IsZero() {
		t.Fatal("Z on coset is zero; coset intersects H")
	}
	for _, i := range []uint64{1, 9, 20} {
		x := d.Element(i)
		x.Mul(&x, &d.CosetShift)
		z := d.VanishingEval(&x)
		if !z.Equal(&zc) {
			t.Fatal("Z not constant on coset")
		}
	}
}

func TestLagrangeBasisAt(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	d, err := NewDomain(16)
	if err != nil {
		t.Fatal(err)
	}
	tau := randFr(rng)
	basis := d.LagrangeBasisAt(&tau)

	// Σ coeffs[i]·L_i(τ) must equal the interpolated polynomial at τ.
	evals := randPoly(rng, int(d.N))
	var viaBasis fr.Element
	for i := range evals {
		var t1 fr.Element
		t1.Mul(&evals[i], &basis[i])
		viaBasis.Add(&viaBasis, &t1)
	}
	coeffs := append([]fr.Element(nil), evals...)
	d.IFFT(coeffs)
	viaHorner := evalPoly(coeffs, &tau)
	if !viaBasis.Equal(&viaHorner) {
		t.Fatal("Lagrange basis evaluation disagrees with interpolation")
	}
}

func TestLagrangeBasisOnDomainPoint(t *testing.T) {
	d, err := NewDomain(8)
	if err != nil {
		t.Fatal(err)
	}
	x := d.Element(3)
	basis := d.LagrangeBasisAt(&x)
	for i := range basis {
		if i == 3 {
			if !basis[i].IsOne() {
				t.Fatal("L_3(ω³) != 1")
			}
		} else if !basis[i].IsZero() {
			t.Fatalf("L_%d(ω³) != 0", i)
		}
	}
}

func TestMulNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	a := randPoly(rng, 5)
	b := randPoly(rng, 7)
	prod := mulNaive(a, b)
	x := randFr(rng)
	ea := evalPoly(a, &x)
	eb := evalPoly(b, &x)
	var want fr.Element
	want.Mul(&ea, &eb)
	got := evalPoly(prod, &x)
	if !got.Equal(&want) {
		t.Fatal("naive multiplication wrong")
	}
	if mulNaive(nil, a) != nil {
		t.Fatal("empty operand should give nil")
	}
}

func TestFFTMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	a := randPoly(rng, 10)
	b := randPoly(rng, 12)
	want := mulNaive(a, b)

	d, err := NewDomain(uint64(len(a) + len(b)))
	if err != nil {
		t.Fatal(err)
	}
	fa := make([]fr.Element, d.N)
	fb := make([]fr.Element, d.N)
	copy(fa, a)
	copy(fb, b)
	d.FFT(fa)
	d.FFT(fb)
	for i := range fa {
		fa[i].Mul(&fa[i], &fb[i])
	}
	d.IFFT(fa)
	for i := range want {
		if !fa[i].Equal(&want[i]) {
			t.Fatalf("FFT product mismatch at %d", i)
		}
	}
	for i := len(want); i < len(fa); i++ {
		if !fa[i].IsZero() {
			t.Fatal("FFT product has spurious high coefficients")
		}
	}
}

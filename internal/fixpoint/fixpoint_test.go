package fixpoint

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"zkrownn/internal/bn254/fr"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	p := Default16
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{0, 1, -1, 0.5, -0.25, 3.14159, -123.456, 100.0} {
		v := p.Encode(x)
		back := p.Decode(v)
		if math.Abs(back-x) > 1.0/float64(p.Scale()) {
			t.Fatalf("round trip error too large for %v: got %v", x, back)
		}
	}
}

func TestRescaleFloorSemantics(t *testing.T) {
	p := Params{FracBits: 4, MagBits: 20}
	// 2^4 = 16. Rescale must floor toward -∞, like the circuit gadget.
	cases := map[int64]int64{
		32: 2, 33: 2, 47: 2, 48: 3,
		-32: -2, -33: -3, -47: -3, -48: -3, -49: -4,
		0: 0, 15: 0, -1: -1, -16: -1,
	}
	for in, want := range cases {
		if got := p.Rescale(in); got != want {
			t.Fatalf("Rescale(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestMulRescaleApproximatesProduct(t *testing.T) {
	p := Default16
	rng := rand.New(rand.NewSource(90))
	for i := 0; i < 1000; i++ {
		a := rng.Float64()*200 - 100
		b := rng.Float64()*200 - 100
		fa, fb := p.Encode(a), p.Encode(b)
		prod := p.MulRescale(fa, fb)
		got := p.Decode(prod)
		want := a * b
		tol := (math.Abs(a)+math.Abs(b)+1)/float64(p.Scale()) + 1.0/float64(p.Scale())
		if math.Abs(got-want) > tol {
			t.Fatalf("MulRescale(%v, %v) = %v, want ≈ %v", a, b, got, want)
		}
	}
}

func TestFieldRoundTrip(t *testing.T) {
	if err := quick.Check(func(v int64) bool {
		v %= 1 << 50
		e := ToField(v)
		back, err := FromField(&e)
		return err == nil && back == v
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	// A huge field element must be rejected.
	var big fr.Element
	big.SetUint64(1)
	for i := 0; i < 100; i++ {
		big.Double(&big) // 2^100, not ±small
	}
	if _, err := FromField(&big); err == nil {
		t.Fatal("2^100 accepted as fixed-point value")
	}
}

func TestSigmoidPolyMatchesFloat(t *testing.T) {
	p := Default16
	for x := -4.0; x <= 4.0; x += 0.37 {
		fx := p.Encode(x)
		got := p.Decode(p.SigmoidPoly(fx))
		want := SigmoidFloat(x)
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("sigmoid(%v): fixed %v vs float %v", x, got, want)
		}
	}
}

// sigmoidSweep walks every input of the clamp range and two beyond each
// end. It returns the first input at which SigmoidPoly thresholds at ½
// against the input's sign, or strays more than 2^-8 + 6·2^-f from
// SigmoidFloat (x⁹'s coefficient rounding costs up to 0.0026 at |x| = 8,
// each floor at most an ulp), and false; or true if there is none.
func sigmoidSweep(p Params) (bad int64, ok bool) {
	half := p.Encode(0.5)
	bound := math.Ldexp(1, -8) + 6*math.Ldexp(1, -p.FracBits)
	lim := p.Encode(SigmoidClampAbs) + 2
	for z := -lim; z <= lim; z++ {
		s := p.SigmoidPoly(z)
		want := SigmoidFloat(p.Decode(p.ClampSigmoidInput(z)))
		if (s >= half) != (z >= 0) || math.Abs(p.Decode(s)-want) > bound {
			return z, false
		}
	}
	return 0, true
}

// TestSigmoidFormats: at every FracBits Validate accepts, the
// fixed-point sigmoid is right or refused. An accepted format passes the
// whole sweep; a refused one up to FracBits 20 fails it somewhere (past
// 20 the clamp range is too long to sweep, and the power chain
// overflows int64 from 18 on).
func TestSigmoidFormats(t *testing.T) {
	for f := 1; f <= 30; f++ {
		p := Params{FracBits: f, MagBits: 50}
		if err := p.Validate(); err != nil {
			t.Fatal(err)
		}
		err := p.CheckSigmoid()
		switch {
		case err == nil:
			if z, ok := sigmoidSweep(p); !ok {
				t.Errorf("FracBits %d accepted, but sigmoid(%v) = %v (float %v)", f,
					p.Decode(z), p.Decode(p.SigmoidPoly(z)), SigmoidFloat(p.Decode(p.ClampSigmoidInput(z))))
			}
		case f <= 20:
			if _, ok := sigmoidSweep(p); ok {
				t.Errorf("FracBits %d refused (%v), but right over the whole clamp range", f, err)
			}
		}
	}
	// At the default format the coefficients are the 2^(2f) ones, so the
	// sweep above also pins that [SigmoidPoly(z) ≥ ½] = [z ≥ 0] on
	// ±(8·2^16 + 2) for the polynomial every earlier release used.
	if _, _, fc := Default16.SigmoidCoefficients(); fc != 2*Default16.FracBits {
		t.Fatalf("Default16 coefficients scaled by 2^%d, want 2^%d", fc, 2*Default16.FracBits)
	}
	if err := Default16.CheckSigmoid(); err != nil {
		t.Fatal(err)
	}
}

func TestSigmoidApproximatesTrueSigmoid(t *testing.T) {
	// The Chebyshev polynomial should approximate 1/(1+e^-x) on a
	// moderate interval (the paper uses it for thresholding at 0.5, so
	// only the sign of S(x)-0.5 really matters).
	for x := -3.0; x <= 3.0; x += 0.25 {
		approx := SigmoidFloat(x)
		truth := 1.0 / (1.0 + math.Exp(-x))
		if math.Abs(approx-truth) > 0.05 {
			t.Fatalf("Chebyshev deviates at %v: %v vs %v", x, approx, truth)
		}
		// Threshold agreement.
		if (approx >= 0.5) != (truth >= 0.5) {
			t.Fatalf("threshold disagreement at %v", x)
		}
	}
}

func TestReLUAndThreshold(t *testing.T) {
	if ReLU(-5) != 0 || ReLU(0) != 0 || ReLU(7) != 7 {
		t.Fatal("ReLU wrong")
	}
	if HardThreshold(5, 5) != 1 || HardThreshold(4, 5) != 0 || HardThreshold(-1, 0) != 0 {
		t.Fatal("HardThreshold wrong")
	}
}

func TestAverage(t *testing.T) {
	p := Default16
	vs := []int64{p.Encode(1.0), p.Encode(2.0), p.Encode(3.0), p.Encode(6.0)}
	avg := p.Decode(p.Average(vs))
	if math.Abs(avg-3.0) > 0.001 {
		t.Fatalf("Average = %v, want 3.0", avg)
	}
	if p.Average(nil) != 0 {
		t.Fatal("Average(nil) != 0")
	}
	// Non-power-of-two length exercises the reciprocal rounding.
	vs3 := []int64{p.Encode(1.0), p.Encode(2.0), p.Encode(4.0)}
	avg3 := p.Decode(p.Average(vs3))
	if math.Abs(avg3-7.0/3.0) > 0.001 {
		t.Fatalf("Average3 = %v, want %v", avg3, 7.0/3.0)
	}
}

func TestValidateRejectsBadParams(t *testing.T) {
	bad := []Params{
		{FracBits: 0, MagBits: 10},
		{FracBits: 31, MagBits: 40},
		{FracBits: 16, MagBits: 10},
		{FracBits: 16, MagBits: 51}, // exceeds accumulated-value cap
	}
	for _, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("params %+v accepted", p)
		}
	}
	if err := Default16.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSliceHelpers(t *testing.T) {
	p := Default16
	xs := []float64{1.5, -2.25, 0}
	enc := p.EncodeSlice(xs)
	dec := p.DecodeSlice(enc)
	for i := range xs {
		if math.Abs(dec[i]-xs[i]) > 1e-4 {
			t.Fatal("slice round trip failed")
		}
	}
	fe := ToFieldSlice(enc)
	for i := range fe {
		v, err := FromField(&fe[i])
		if err != nil || v != enc[i] {
			t.Fatal("field slice round trip failed")
		}
	}
}

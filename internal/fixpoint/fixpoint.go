// Package fixpoint defines the signed binary fixed-point representation
// shared by the in-circuit gadgets and the plain integer reference
// simulator. The paper (§III-B) avoids floating point inside zkSNARK
// circuits by scaling inputs "by several orders of magnitude and
// truncating"; this package pins down those semantics exactly so that
// watermark extraction inside the circuit is bit-identical to extraction
// outside it:
//
//   - a real number x is represented as round(x·2^f) for f fraction bits;
//   - products of two fixed-point numbers carry 2f fraction bits and are
//     rescaled by floor division by 2^f (arithmetic shift, rounding
//     toward -∞), matching the circuit's shift-and-decompose truncation
//     gadget.
package fixpoint

import (
	"fmt"
	"math"
	"math/big"

	"zkrownn/internal/bn254/fr"
)

// Params fixes the fixed-point format.
type Params struct {
	// FracBits is f, the number of fraction bits (scale 2^f).
	FracBits int
	// MagBits bounds the magnitude of representable values:
	// |v| < 2^(MagBits) in scaled integer units. It determines range-check
	// widths inside circuits. MagBits counts scaled-integer bits, i.e.
	// it already includes the f fraction bits.
	MagBits int
}

// Default16 is the default format: 16 fraction bits with generous
// 44-bit magnitudes, comfortably covering dense-layer accumulations of
// 784-wide inner products over [-128, 128) activations.
var Default16 = Params{FracBits: 16, MagBits: 44}

// Scale returns 2^f as an int64.
func (p Params) Scale() int64 { return 1 << uint(p.FracBits) }

// Validate checks that the format fits comfortably in int64 arithmetic
// (products need 2·MagBits bits plus sign).
func (p Params) Validate() error {
	if p.FracBits <= 0 || p.FracBits > 30 {
		return fmt.Errorf("fixpoint: FracBits %d out of range (1..30)", p.FracBits)
	}
	if p.MagBits <= p.FracBits {
		return fmt.Errorf("fixpoint: MagBits %d must exceed FracBits %d", p.MagBits, p.FracBits)
	}
	if p.MagBits > 50 {
		// MagBits bounds *accumulated* values (range-check width in
		// circuits). Values that are multiplied together are much
		// smaller; callers must keep bits(a)+bits(b) ≤ 63 per product,
		// which every gadget in this repository does by construction.
		return fmt.Errorf("fixpoint: MagBits %d too large (max 50)", p.MagBits)
	}
	return nil
}

// Encode converts a float to the scaled integer representation
// (round-to-nearest).
func (p Params) Encode(x float64) int64 {
	return int64(math.Round(x * float64(p.Scale())))
}

// Decode converts a scaled integer back to a float.
func (p Params) Decode(v int64) float64 {
	return float64(v) / float64(p.Scale())
}

// EncodeSlice encodes a float slice.
func (p Params) EncodeSlice(xs []float64) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = p.Encode(x)
	}
	return out
}

// DecodeSlice decodes a scaled-integer slice.
func (p Params) DecodeSlice(vs []int64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = p.Decode(v)
	}
	return out
}

// Rescale divides by 2^f rounding toward -∞ (arithmetic shift), the
// canonical post-multiplication truncation.
func (p Params) Rescale(v int64) int64 {
	return v >> uint(p.FracBits)
}

// MulRescale multiplies two fixed-point values and rescales the result
// back to f fraction bits.
func (p Params) MulRescale(a, b int64) int64 {
	return p.Rescale(a * b)
}

// ToField maps a signed scaled integer into F_r (negative values wrap to
// r - |v|), the encoding used for circuit wires.
func ToField(v int64) fr.Element {
	var e fr.Element
	e.SetInt64(v)
	return e
}

// ToFieldSlice maps a scaled-integer slice into field elements.
func ToFieldSlice(vs []int64) []fr.Element {
	out := make([]fr.Element, len(vs))
	for i, v := range vs {
		out[i] = ToField(v)
	}
	return out
}

// FromField recovers a signed integer from its field encoding. Values in
// (r/2, r) are interpreted as negative. An error is returned when the
// magnitude exceeds 2^62 (not a plausible fixed-point value).
func FromField(e *fr.Element) (int64, error) {
	v := e.ToBigInt()
	half := new(big.Int).Rsh(fr.Modulus(), 1)
	neg := false
	if v.Cmp(half) > 0 {
		v.Sub(fr.Modulus(), v)
		neg = true
	}
	if v.BitLen() > 62 {
		return 0, fmt.Errorf("fixpoint: field value too large for int64 (%d bits)", v.BitLen())
	}
	out := v.Int64()
	if neg {
		out = -out
	}
	return out, nil
}

// SigmoidCoefficients returns the scaled Chebyshev coefficients of the
// paper's degree-9 sigmoid approximation (§III-B.3):
//
//	S(x) = 0.5 + 0.2159198015·x - 0.0082176259·x³ + 0.0001825597·x⁵
//	     - 0.0000018848·x⁷ + 0.0000000072·x⁹
//
// Index i holds the coefficient of x^(2i+1); C0 (at f fraction bits) is
// returned separately. The odd coefficients are scaled by
// 2^coeffFracBits = 2^max(2f, 32) — the degree-7 and degree-9
// coefficients would truncate to zero at 2^f ("scaling by several
// orders of magnitude", §III-B), and at 2^(2f) the x⁹ coefficient still
// rounds to 0 for f ≤ 13 — so each term product must be rescaled by
// coeffFracBits. At 2^32 the x⁹ coefficient is 31, 0.3 % from 7.2e-9.
func (p Params) SigmoidCoefficients() (c0 int64, odd [5]int64, coeffFracBits int) {
	coeffFracBits = max(2*p.FracBits, 32)
	scale := math.Ldexp(1, coeffFracBits)
	c0 = p.Encode(0.5)
	for i, c := range []float64{
		0.2159198015, -0.0082176259, 0.0001825597, -0.0000018848, 0.0000000072,
	} {
		odd[i] = int64(math.Round(c * scale))
	}
	return c0, odd, coeffFracBits
}

// The formats at which the fixed-point sigmoid is right: it thresholds
// at ½ as the sign of its input and stays within 2^-8 + 6·2^-f of
// SigmoidFloat over the whole clamp range (TestSigmoidFormats sweeps
// every input). Below SigmoidMinFracBits the floored terms carry
// inputs to the wrong side of ½; above SigmoidMaxFracBits the power
// chain's raw product x⁷·x², 2^(27+2f) at the clamp bound, overflows
// int64.
const (
	SigmoidMinFracBits = 4
	SigmoidMaxFracBits = 17
)

// CheckSigmoid reports an error when the fixed-point sigmoid
// (SigmoidPoly and the circuit gadget that mirrors it) is not right at
// this format. Every sigmoid layer and circuit calls it first.
func (p Params) CheckSigmoid() error {
	if p.FracBits < SigmoidMinFracBits || p.FracBits > SigmoidMaxFracBits {
		return fmt.Errorf("fixpoint: the degree-9 sigmoid needs FracBits %d..%d, got %d",
			SigmoidMinFracBits, SigmoidMaxFracBits, p.FracBits)
	}
	return nil
}

// SigmoidClampAbs bounds the sigmoid input: the degree-9 Chebyshev
// approximation is only meaningful on a bounded interval, and clamping
// keeps every in-circuit intermediate inside its range check. Inputs are
// saturated to ±SigmoidClampAbs before evaluation (threshold decisions
// for |x| ≥ 8 are sign-determined, so extraction semantics are
// unaffected).
const SigmoidClampAbs = 8.0

// ClampSigmoidInput saturates a scaled value to ±SigmoidClampAbs.
func (p Params) ClampSigmoidInput(x int64) int64 {
	bound := p.Encode(SigmoidClampAbs)
	if x > bound {
		return bound
	}
	if x < -bound {
		return -bound
	}
	return x
}

// SigmoidPoly evaluates the fixed-point sigmoid polynomial with the
// exact operation order the circuit gadget uses: the input is clamped to
// ±SigmoidClampAbs, odd powers are built by successive MulRescale with
// x², each term is scaled by its coefficient and floor-divided by
// 2^coeffFracBits, and the terms are summed exactly. Its values are
// meaningful only at formats CheckSigmoid accepts.
func (p Params) SigmoidPoly(x int64) int64 {
	x = p.ClampSigmoidInput(x)
	c0, odd, fc := p.SigmoidCoefficients()
	x2 := p.MulRescale(x, x)
	res := c0
	pow := x // x^1
	for i := 0; i < 5; i++ {
		term := (odd[i] * pow) >> uint(fc)
		res += term
		if i < 4 {
			pow = p.MulRescale(pow, x2)
		}
	}
	return res
}

// SigmoidFloat is the float reference of the same polynomial, used to
// bound the fixed-point error in tests.
func SigmoidFloat(x float64) float64 {
	return 0.5 + 0.2159198015*x - 0.0082176259*math.Pow(x, 3) +
		0.0001825597*math.Pow(x, 5) - 0.0000018848*math.Pow(x, 7) +
		0.0000000072*math.Pow(x, 9)
}

// ReLU applies max(0, v) to a scaled integer.
func ReLU(v int64) int64 {
	if v < 0 {
		return 0
	}
	return v
}

// HardThreshold returns 1 when v ≥ threshold, else 0 (both scaled).
func HardThreshold(v, threshold int64) int64 {
	if v >= threshold {
		return 1
	}
	return 0
}

// Average computes the fixed-point mean of scaled values with the same
// multiply-by-reciprocal-and-truncate semantics as the circuit's
// zkAverage gadget: sum · round(2^f/n), rescaled.
func (p Params) Average(vs []int64) int64 {
	if len(vs) == 0 {
		return 0
	}
	var sum int64
	for _, v := range vs {
		sum += v
	}
	recip := int64(math.Round(float64(p.Scale()) / float64(len(vs))))
	return p.MulRescale(sum, recip)
}

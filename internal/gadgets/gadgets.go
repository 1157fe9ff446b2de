// Package gadgets implements the zkSNARK circuits of ZKROWNN §III-B as
// composable builder fragments: matrix multiplication, 3-D convolution
// (im2col + 1-D inner products), ReLU, averaging, the degree-9 Chebyshev
// sigmoid, hard thresholding, bit-error-rate checking, and max pooling.
// Each gadget can be used standalone in its own zkSNARK (the paper's
// "modular design approach") or composed into the end-to-end watermark
// extraction circuits in internal/core.
//
// Numeric convention: wires carry signed fixed-point values per
// internal/fixpoint; every gadget documents its constraint cost and the
// magnitude bound (boundBits) its range checks assume. Rescales and sign
// checks all decompose x + 2^boundBits into boundBits+1 bits
// (boundBits+2 rows): the top bit is [x ≥ 0] and the high bits are the
// floored quotient. A layer followed by ReLU reads both off that one
// decomposition (RescaleReLU, boundBits+3 rows) instead of a rescale and
// a ReLU (2·boundBits+5 rows), as zkDL's zkReLU does.
package gadgets

import (
	"fmt"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/frontend"
)

// Ctx bundles the builder with the fixed-point format so gadget call
// sites stay terse.
type Ctx struct {
	B *frontend.Builder
	P fixpoint.Params
}

// NewCtx returns a gadget context over a fresh builder.
func NewCtx(p fixpoint.Params) *Ctx {
	return &Ctx{B: frontend.NewBuilder(), P: p}
}

// fieldPow2 returns 2^k as a field element.
func fieldPow2(k int) fr.Element {
	var two, out fr.Element
	two.SetUint64(2)
	out.SetOne()
	for i := 0; i < k; i++ {
		out.Mul(&out, &two)
	}
	return out
}

// offsetBits is the shift-and-decompose idiom every rescale and sign
// check is built on: for a signed x with |x| < 2^boundBits, x + 2^boundBits
// is non-negative and fits boundBits+1 bits. The top bit is [x ≥ 0], and
// the bits from shift up recompose ⌊x/2^shift⌋ + 2^(boundBits−shift)
// (see quotient). Cost: boundBits+2 constraints (one booleanity row per
// bit plus the recomposition equality).
func (c *Ctx) offsetBits(x frontend.Variable, boundBits int) []frontend.Variable {
	offset := c.B.Constant(fieldPow2(boundBits))
	shifted := c.B.Add(x, offset)
	return c.B.ToBinary(shifted, boundBits+1)
}

// quotient recomposes ⌊x/2^shift⌋ from offsetBits' decomposition of x:
// the bits from shift up, less the offset they carry. Free (linear).
func (c *Ctx) quotient(bits []frontend.Variable, shift int) frontend.Variable {
	boundBits := len(bits) - 1
	if shift > boundBits {
		panic(fmt.Sprintf("gadgets: shift %d exceeds boundBits %d", shift, boundBits))
	}
	q := c.B.FromBinary(bits[shift:])
	qOffset := c.B.Constant(fieldPow2(boundBits - shift))
	return c.B.Sub(q, qOffset)
}

// RescaleBits computes floor(x / 2^shift) for a signed x with
// |x| < 2^boundBits from one offset decomposition (offsetBits).
// Cost: boundBits+2 constraints.
func (c *Ctx) RescaleBits(x frontend.Variable, shift, boundBits int) frontend.Variable {
	if shift <= 0 {
		return x
	}
	return c.quotient(c.offsetBits(x, boundBits), shift)
}

// RescaleReLU computes max(0, ⌊x/2^shift⌋) for a signed x with
// |x| < 2^boundBits: a layer's rescale and the ReLU after it read off one
// offset decomposition. ⌊x/2^shift⌋ ≥ 0 exactly when x ≥ 0, so the top
// bit is the ReLU's sign, and |⌊x/2^shift⌋| < 2^boundBits follows from
// the bound on x, so nothing the separate ReLU checked is lost.
// Cost: boundBits+3 constraints (the decomposition and one product).
func (c *Ctx) RescaleReLU(x frontend.Variable, shift, boundBits int) frontend.Variable {
	bits := c.offsetBits(x, boundBits)
	return c.B.Mul(bits[boundBits], c.quotient(bits, shift))
}

// Rescale divides by the fixed-point scale 2^f (after a product of two
// f-bit-fraction values).
func (c *Ctx) Rescale(x frontend.Variable, boundBits int) frontend.Variable {
	return c.RescaleBits(x, c.P.FracBits, boundBits)
}

// MulRescale multiplies two fixed-point variables and rescales back to f
// fraction bits. boundBits must bound the raw product magnitude.
func (c *Ctx) MulRescale(a, b frontend.Variable, boundBits int) frontend.Variable {
	prod := c.B.Mul(a, b)
	return c.Rescale(prod, boundBits)
}

// IsNonNegative returns a boolean wire = 1 iff x ≥ 0 (as a signed value
// with |x| < 2^boundBits). Cost: boundBits+2 constraints.
func (c *Ctx) IsNonNegative(x frontend.Variable, boundBits int) frontend.Variable {
	return c.offsetBits(x, boundBits)[boundBits]
}

// GreaterEq returns 1 iff a ≥ b (signed comparison under the bound).
func (c *Ctx) GreaterEq(a, b frontend.Variable, boundBits int) frontend.Variable {
	diff := c.B.Sub(a, b)
	return c.IsNonNegative(diff, boundBits)
}

// ReLU computes max(0, x) (§III-B.4). Cost: boundBits+3 constraints.
func (c *Ctx) ReLU(x frontend.Variable, boundBits int) frontend.Variable {
	sign := c.IsNonNegative(x, boundBits)
	return c.B.Mul(sign, x)
}

// ReLUVec applies ReLU element-wise.
func (c *Ctx) ReLUVec(xs []frontend.Variable, boundBits int) []frontend.Variable {
	out := make([]frontend.Variable, len(xs))
	for i := range xs {
		out[i] = c.ReLU(xs[i], boundBits)
	}
	return out
}

// HardThreshold computes the paper's piecewise step (§III-B.4):
// 1 if x ≥ β, else 0. β is a circuit constant (scaled).
func (c *Ctx) HardThreshold(x frontend.Variable, beta int64, boundBits int) frontend.Variable {
	betaVar := c.B.Constant(fixpoint.ToField(beta))
	return c.GreaterEq(x, betaVar, boundBits)
}

// HardThresholdVec thresholds a vector, yielding the extracted
// watermark bits.
func (c *Ctx) HardThresholdVec(xs []frontend.Variable, beta int64, boundBits int) []frontend.Variable {
	out := make([]frontend.Variable, len(xs))
	for i := range xs {
		out[i] = c.HardThreshold(xs[i], beta, boundBits)
	}
	return out
}

// InnerProduct computes Σ aᵢ·bᵢ (raw, carrying 2f fraction bits if both
// operands carry f). Cost: n multiplications + 1 reduction.
func (c *Ctx) InnerProduct(a, b []frontend.Variable) frontend.Variable {
	if len(a) != len(b) {
		panic("gadgets: inner product length mismatch")
	}
	prods := make([]frontend.Variable, len(a))
	for i := range a {
		prods[i] = c.B.Mul(a[i], b[i])
	}
	return c.B.Reduce(c.B.Sum(prods...))
}

// MatMul computes A(M×N) × B(N×L) (§III-B.1). When rescale is true each
// entry is floor-divided by 2^f so outputs carry f fraction bits again.
// Cost: M·L·(N+1) constraints plus rescaling.
func (c *Ctx) MatMul(a, b [][]frontend.Variable, rescale bool, boundBits int) [][]frontend.Variable {
	m := len(a)
	if m == 0 {
		return nil
	}
	n := len(a[0])
	if len(b) != n {
		panic(fmt.Sprintf("gadgets: matmul inner dimensions %d vs %d", n, len(b)))
	}
	l := len(b[0])
	// Column views of B to reuse InnerProduct.
	bCols := make([][]frontend.Variable, l)
	for j := 0; j < l; j++ {
		col := make([]frontend.Variable, n)
		for k := 0; k < n; k++ {
			col[k] = b[k][j]
		}
		bCols[j] = col
	}
	out := make([][]frontend.Variable, m)
	for i := 0; i < m; i++ {
		out[i] = make([]frontend.Variable, l)
		for j := 0; j < l; j++ {
			v := c.InnerProduct(a[i], bCols[j])
			if rescale {
				v = c.Rescale(v, boundBits)
			}
			out[i][j] = v
		}
	}
	return out
}

// Dense computes W·x + bias with an optional rescale, the zkSNARK
// fully-connected layer of the feed-forward step.
func (c *Ctx) Dense(w [][]frontend.Variable, x, bias []frontend.Variable, rescale bool, boundBits int) []frontend.Variable {
	if bias != nil && len(bias) != len(w) {
		panic("gadgets: bias length mismatch")
	}
	out := make([]frontend.Variable, len(w))
	for i := range w {
		acc := c.InnerProduct(w[i], x)
		if bias != nil {
			// Bias carries f fraction bits; align to the 2f-bit product
			// domain before adding, so a single rescale suffices.
			scaled := c.B.MulConst(bias[i], fieldPow2(c.P.FracBits))
			acc = c.B.Add(acc, scaled)
		}
		if rescale {
			acc = c.Rescale(acc, boundBits)
		}
		out[i] = acc
	}
	return out
}

// Conv3DShape describes a 3-D convolution (§III-B.2): input volume
// C×H×W, OutC kernels of size C×K×K, stride S, no padding.
type Conv3DShape struct {
	InC, InH, InW int
	OutC, K, S    int
}

// OutH returns the output height.
func (s Conv3DShape) OutH() int { return (s.InH-s.K)/s.S + 1 }

// OutW returns the output width.
func (s Conv3DShape) OutW() int { return (s.InW-s.K)/s.S + 1 }

// Validate checks the shape parameters.
func (s Conv3DShape) Validate() error {
	if s.InC <= 0 || s.InH <= 0 || s.InW <= 0 || s.OutC <= 0 || s.K <= 0 || s.S <= 0 {
		return fmt.Errorf("gadgets: non-positive conv dimension %+v", s)
	}
	if s.K > s.InH || s.K > s.InW {
		return fmt.Errorf("gadgets: kernel %d exceeds input %dx%d", s.K, s.InH, s.InW)
	}
	return nil
}

// Conv3D implements the paper's convolution circuit: the input volume is
// flattened and regrouped by kernel window (im2col) and each output is a
// 1-D inner product of the window with the flattened kernel.
//
// input is indexed [c][h][w]; kernels [o][c][kh][kw]; the result is
// [o][oh][ow]. Cost per output element: C·K² multiplications + 1
// reduction (+ rescale).
func (c *Ctx) Conv3D(shape Conv3DShape, input [][][]frontend.Variable, kernels [][][][]frontend.Variable, bias []frontend.Variable, rescale bool, boundBits int) [][][]frontend.Variable {
	if err := shape.Validate(); err != nil {
		panic(err)
	}
	oh, ow := shape.OutH(), shape.OutW()
	out := make([][][]frontend.Variable, shape.OutC)

	// Flatten each kernel once.
	flatKernels := make([][]frontend.Variable, shape.OutC)
	for o := 0; o < shape.OutC; o++ {
		flat := make([]frontend.Variable, 0, shape.InC*shape.K*shape.K)
		for ch := 0; ch < shape.InC; ch++ {
			for kh := 0; kh < shape.K; kh++ {
				for kw := 0; kw < shape.K; kw++ {
					flat = append(flat, kernels[o][ch][kh][kw])
				}
			}
		}
		flatKernels[o] = flat
	}

	for o := 0; o < shape.OutC; o++ {
		out[o] = make([][]frontend.Variable, oh)
		for i := 0; i < oh; i++ {
			out[o][i] = make([]frontend.Variable, ow)
			for j := 0; j < ow; j++ {
				// im2col window for output position (i, j).
				window := make([]frontend.Variable, 0, shape.InC*shape.K*shape.K)
				for ch := 0; ch < shape.InC; ch++ {
					for kh := 0; kh < shape.K; kh++ {
						for kw := 0; kw < shape.K; kw++ {
							window = append(window, input[ch][i*shape.S+kh][j*shape.S+kw])
						}
					}
				}
				acc := c.InnerProduct(window, flatKernels[o])
				if bias != nil {
					scaled := c.B.MulConst(bias[o], fieldPow2(c.P.FracBits))
					acc = c.B.Add(acc, scaled)
				}
				if rescale {
					acc = c.Rescale(acc, boundBits)
				}
				out[o][i][j] = acc
			}
		}
	}
	return out
}

// Average computes the fixed-point mean of xs with the zkAverage
// semantics shared with fixpoint.Average: sum · round(2^f/n) then
// rescale. Cost: boundBits+2 constraints (one rescale).
func (c *Ctx) Average(xs []frontend.Variable, boundBits int) frontend.Variable {
	if len(xs) == 0 {
		return c.B.Zero()
	}
	sum := c.B.Sum(xs...)
	recip := int64(float64(c.P.Scale())/float64(len(xs)) + 0.5)
	scaled := c.B.MulConst(sum, fixpoint.ToField(recip))
	return c.Rescale(scaled, boundBits)
}

// AverageRows computes per-row means of a matrix (the paper's Average2D
// benchmark and the activation-map averaging of Algorithm 1).
func (c *Ctx) AverageRows(rows [][]frontend.Variable, boundBits int) []frontend.Variable {
	out := make([]frontend.Variable, len(rows))
	for i := range rows {
		out[i] = c.Average(rows[i], boundBits)
	}
	return out
}

// AverageCols computes per-column means of a matrix: the Gaussian-center
// estimation across trigger activations (rows = triggers).
func (c *Ctx) AverageCols(rows [][]frontend.Variable, boundBits int) []frontend.Variable {
	if len(rows) == 0 {
		return nil
	}
	n := len(rows[0])
	out := make([]frontend.Variable, n)
	col := make([]frontend.Variable, len(rows))
	for j := 0; j < n; j++ {
		for i := range rows {
			col[i] = rows[i][j]
		}
		out[j] = c.Average(col, boundBits)
	}
	return out
}

// Clamp saturates x to the constant interval [lo, hi] (scaled values),
// data-obliviously: two comparisons and two selects.
func (c *Ctx) Clamp(x frontend.Variable, lo, hi int64, boundBits int) frontend.Variable {
	hiV := c.B.Constant(fixpoint.ToField(hi))
	loV := c.B.Constant(fixpoint.ToField(lo))
	geHi := c.GreaterEq(x, hiV, boundBits)
	x = c.B.Select(geHi, hiV, x)
	leLo := c.GreaterEq(loV, x, boundBits)
	return c.B.Select(leLo, loV, x)
}

// Sigmoid evaluates the degree-9 Chebyshev approximation (§III-B.3) with
// the identical operation order as fixpoint.SigmoidPoly: the input is
// saturated to ±fixpoint.SigmoidClampAbs first (keeping the odd-power
// intermediates inside their range checks), then the polynomial is
// evaluated term by term. It refuses the formats
// fixpoint.Params.CheckSigmoid refuses.
func (c *Ctx) Sigmoid(x frontend.Variable, boundBits int) (frontend.Variable, error) {
	if err := c.P.CheckSigmoid(); err != nil {
		return frontend.Variable{}, err
	}
	clampAbs := c.P.Encode(fixpoint.SigmoidClampAbs)
	x = c.Clamp(x, -clampAbs, clampAbs, boundBits)
	c0, odd, fc := c.P.SigmoidCoefficients()

	// The raw power-chain products reach 8⁹·2^(2f) ≈ 2^(27+2f) at the
	// clamp boundary, which can exceed the caller's accumulation bound;
	// range-check them at their own width. So do the scaled terms:
	// |odd[i]|·8^(2i+1) < 6·2^fc, so each stays below 2^(fc+f+3).
	powBound := max(2*c.P.FracBits+29, boundBits)
	termBound := max(fc+c.P.FracBits+3, boundBits+c.P.FracBits)
	x2 := c.MulRescale(x, x, powBound)
	res := c.B.Constant(fixpoint.ToField(c0))
	pow := x
	for i := 0; i < 5; i++ {
		scaled := c.B.MulConst(pow, fixpoint.ToField(odd[i]))
		term := c.RescaleBits(scaled, fc, termBound)
		res = c.B.Add(res, term)
		if i < 4 {
			pow = c.MulRescale(pow, x2, powBound)
		}
	}
	return res, nil
}

// SigmoidVec applies the sigmoid gadget element-wise.
func (c *Ctx) SigmoidVec(xs []frontend.Variable, boundBits int) ([]frontend.Variable, error) {
	out := make([]frontend.Variable, len(xs))
	for i := range xs {
		var err error
		if out[i], err = c.Sigmoid(xs[i], boundBits); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// BER compares the private watermark bits wm with the extracted bits
// wmHat (§III-B.5) and returns 1 iff at most maxErrors bits differ.
// Both inputs must be boolean wires (the gadget re-asserts wm for
// defence in depth; wmHat normally comes from HardThreshold and is
// already boolean). Cost: N multiplications + a small comparison.
func (c *Ctx) BER(wm, wmHat []frontend.Variable, maxErrors int) frontend.Variable {
	if len(wm) != len(wmHat) {
		panic("gadgets: BER length mismatch")
	}
	diffs := make([]frontend.Variable, len(wm))
	for i := range wm {
		c.B.AssertBoolean(wm[i])
		// XOR: a + b - 2ab
		prod := c.B.Mul(wm[i], wmHat[i])
		two := c.B.MulConst(prod, fieldPow2(1))
		diffs[i] = c.B.Sub(c.B.Add(wm[i], wmHat[i]), two)
	}
	count := c.B.Reduce(c.B.Sum(diffs...))
	// count ≤ maxErrors, with count ∈ [0, N]: small comparison width.
	width := 1
	for 1<<width <= len(wm)+1 {
		width++
	}
	maxVar := c.B.ConstUint64(uint64(maxErrors))
	return c.GreaterEq(maxVar, count, width+1)
}

// Max returns max(a, b) via one comparison and one select.
func (c *Ctx) Max(a, b frontend.Variable, boundBits int) frontend.Variable {
	ge := c.GreaterEq(a, b, boundBits)
	return c.B.Select(ge, a, b)
}

// MaxPool2D applies K×K max pooling with stride S to a [h][w] plane
// (Table II's MP layers; provided for deeper-layer extraction support).
func (c *Ctx) MaxPool2D(plane [][]frontend.Variable, k, s, boundBits int) [][]frontend.Variable {
	h := len(plane)
	w := len(plane[0])
	oh := (h-k)/s + 1
	ow := (w-k)/s + 1
	out := make([][]frontend.Variable, oh)
	for i := 0; i < oh; i++ {
		out[i] = make([]frontend.Variable, ow)
		for j := 0; j < ow; j++ {
			cur := plane[i*s][j*s]
			for di := 0; di < k; di++ {
				for dj := 0; dj < k; dj++ {
					if di == 0 && dj == 0 {
						continue
					}
					cur = c.Max(cur, plane[i*s+di][j*s+dj], boundBits)
				}
			}
			out[i][j] = cur
		}
	}
	return out
}

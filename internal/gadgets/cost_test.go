package gadgets

import (
	"testing"

	"zkrownn/internal/fixpoint"
	"zkrownn/internal/frontend"
)

// TestConstraintCostContracts pins the per-gadget constraint costs that
// the doc comments advertise, so documentation and implementation cannot
// drift apart. boundBits = 30 throughout.
func TestConstraintCostContracts(t *testing.T) {
	const bound = 30
	p := fixpoint.Params{FracBits: 8, MagBits: bound}

	// RescaleBits: boundBits+2 — ToBinary(boundBits+1) emits one
	// booleanity constraint per bit plus one recomposition equality.
	{
		c := NewCtx(p)
		x := secret(c, 1000)
		before := c.B.NbConstraints()
		c.Rescale(x, bound)
		if d := c.B.NbConstraints() - before; d != bound+2 {
			t.Errorf("Rescale cost %d, want %d", d, bound+2)
		}
	}

	// IsNonNegative: boundBits+2 (one shifted bit decomposition).
	{
		c := NewCtx(p)
		x := secret(c, -5)
		before := c.B.NbConstraints()
		c.IsNonNegative(x, bound)
		if d := c.B.NbConstraints() - before; d != bound+2 {
			t.Errorf("IsNonNegative cost %d, want %d", d, bound+2)
		}
	}

	// ReLU: boundBits+3 (comparison + one product with the sign bit).
	{
		c := NewCtx(p)
		x := secret(c, -5)
		before := c.B.NbConstraints()
		c.ReLU(x, bound)
		if d := c.B.NbConstraints() - before; d != bound+3 {
			t.Errorf("ReLU cost %d, want %d", d, bound+3)
		}
	}

	// RescaleReLU: boundBits+3 (one shifted decomposition + one product
	// of its sign bit with its quotient).
	{
		c := NewCtx(p)
		x := secret(c, -5000)
		before := c.B.NbConstraints()
		c.RescaleReLU(x, p.FracBits, bound)
		if d := c.B.NbConstraints() - before; d != bound+3 {
			t.Errorf("RescaleReLU cost %d, want %d", d, bound+3)
		}
	}

	// InnerProduct of length n: n multiplications + 1 reduction.
	{
		c := NewCtx(p)
		a := secretVec(c, []int64{1, 2, 3, 4, 5})
		b := secretVec(c, []int64{5, 4, 3, 2, 1})
		before := c.B.NbConstraints()
		c.InnerProduct(a, b)
		if d := c.B.NbConstraints() - before; d != 6 {
			t.Errorf("InnerProduct(5) cost %d, want 6", d)
		}
	}

	// MatMul m×n × n×l without rescale: m·l·(n+1).
	{
		c := NewCtx(p)
		aM := matVars(c, [][]int64{{1, 2, 3}, {4, 5, 6}})
		bM := matVars(c, [][]int64{{1, 0}, {0, 1}, {1, 1}})
		before := c.B.NbConstraints()
		c.MatMul(aM, bM, false, bound)
		want := 2 * 2 * (3 + 1)
		if d := c.B.NbConstraints() - before; d != want {
			t.Errorf("MatMul cost %d, want %d", d, want)
		}
	}

	// Dense with bias and rescale over (out=2, in=3):
	// out·(in + 1 + rescale) where rescale = bound+3.
	{
		c := NewCtx(p)
		w := matVars(c, [][]int64{{1, 2, 3}, {4, 5, 6}})
		x := secretVec(c, []int64{1, 1, 1})
		bias := secretVec(c, []int64{1, 2})
		before := c.B.NbConstraints()
		c.Dense(w, x, bias, true, bound)
		want := 2 * (3 + 1 + bound + 2)
		if d := c.B.NbConstraints() - before; d != want {
			t.Errorf("Dense cost %d, want %d", d, want)
		}
	}

	// Dense and its ReLU fused over (out=2, in=3): the accumulator stays
	// unrescaled and RescaleReLU decomposes it once, so
	// out·(in + 1 + bound+3) against out·(in + 1 + bound+2 + bound+3)
	// for a rescaling Dense followed by ReLUVec.
	{
		c := NewCtx(p)
		w := matVars(c, [][]int64{{1, 2, 3}, {4, 5, 6}})
		x := secretVec(c, []int64{1, 1, 1})
		bias := secretVec(c, []int64{1, 2})
		before := c.B.NbConstraints()
		for _, acc := range c.Dense(w, x, bias, false, bound) {
			c.RescaleReLU(acc, p.FracBits, bound)
		}
		want := 2 * (3 + 1 + bound + 3)
		if d := c.B.NbConstraints() - before; d != want {
			t.Errorf("fused Dense+ReLU cost %d, want %d", d, want)
		}
	}

	// Average of n values: the constant scaling is free, so the cost is
	// exactly one rescale — bound+2.
	{
		c := NewCtx(p)
		xs := secretVec(c, []int64{10, 20, 30, 40})
		before := c.B.NbConstraints()
		c.Average(xs, bound)
		if d := c.B.NbConstraints() - before; d != bound+2 {
			t.Errorf("Average cost %d, want %d", d, bound+2)
		}
	}
}

// TestConstraintCostScaling: costs must scale linearly in the documented
// dimensions.
func TestConstraintCostScaling(t *testing.T) {
	p := fixpoint.Params{FracBits: 8, MagBits: 30}
	costOfReLUVec := func(n int) int {
		c := NewCtx(p)
		xs := make([]int64, n)
		v := secretVec(c, xs)
		before := c.B.NbConstraints()
		c.ReLUVec(v, 30)
		return c.B.NbConstraints() - before
	}
	c8, c16 := costOfReLUVec(8), costOfReLUVec(16)
	if c16 != 2*c8 {
		t.Errorf("ReLUVec not linear: %d vs %d", c8, c16)
	}
}

func matVars(c *Ctx, m [][]int64) [][]frontend.Variable {
	out := make([][]frontend.Variable, len(m))
	for i := range m {
		out[i] = secretVec(c, m[i])
	}
	return out
}

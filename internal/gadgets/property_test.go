package gadgets

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"zkrownn/internal/fixpoint"
)

// boundedVal is a quick.Generator producing signed values inside the
// test format's safe multiplication range.
type boundedVal int64

func (boundedVal) Generate(rng *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(boundedVal(rng.Int63n(1<<14) - (1 << 13)))
}

// TestQuickRescaleMatchesSimulator: circuit rescale == integer rescale
// for arbitrary in-range values.
func TestQuickRescaleMatchesSimulator(t *testing.T) {
	f := func(v boundedVal) bool {
		c := NewCtx(testParams)
		got := c.Rescale(secret(c, int64(v)), 30)
		e := got.Value()
		gi, err := fixpoint.FromField(&e)
		if err != nil {
			return false
		}
		if gi != testParams.Rescale(int64(v)) {
			return false
		}
		res, err := c.B.Compile()
		if err != nil {
			return false
		}
		ok, _ := res.System.IsSatisfied(res.Witness)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickMulRescale: circuit fixed-point product == simulator product.
func TestQuickMulRescale(t *testing.T) {
	f := func(a, b boundedVal) bool {
		c := NewCtx(testParams)
		got := c.MulRescale(secret(c, int64(a)), secret(c, int64(b)), 30)
		e := got.Value()
		gi, err := fixpoint.FromField(&e)
		if err != nil {
			return false
		}
		return gi == testParams.MulRescale(int64(a), int64(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickReLUAndThreshold: sign-dependent gadgets agree with the
// simulator across the signed range.
func TestQuickReLUAndThreshold(t *testing.T) {
	beta := testParams.Encode(0.5)
	f := func(v boundedVal) bool {
		c := NewCtx(testParams)
		r := c.ReLU(secret(c, int64(v)), 20)
		th := c.HardThreshold(secret(c, int64(v)), beta, 20)
		er := r.Value()
		et := th.Value()
		ri, err1 := fixpoint.FromField(&er)
		ti, err2 := fixpoint.FromField(&et)
		if err1 != nil || err2 != nil {
			return false
		}
		return ri == fixpoint.ReLU(int64(v)) && ti == fixpoint.HardThreshold(int64(v), beta)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestRescaleReLUMatchesSimulator: the fused gadget equals the
// simulator's rescale-then-ReLU on random in-range values and on the
// edges (0, −1, ±(2^B − 1), multiples of 2^f and their neighbours), and
// it is unsatisfiable outside the decomposition's range. The offset
// decomposition's bits are the only wires the gadget adds besides its
// output, and a (B+1)-bit recomposition, far below the field modulus,
// has one candidate per value: the builder computes it, so when that
// candidate violates a row no witness satisfies the circuit. The range is
// [−2^B, 2^B): x = −2^B decomposes to all-zero bits and reads 0, which
// is its ReLU.
func TestRescaleReLUMatchesSimulator(t *testing.T) {
	const bound = 30
	p := testParams
	f := p.FracBits
	check := func(v int64) {
		t.Helper()
		c := NewCtx(p)
		got := valOf(t, c.RescaleReLU(secret(c, v), f, bound))
		if want := fixpoint.ReLU(p.Rescale(v)); got != want {
			t.Fatalf("RescaleReLU(%d) = %d, want %d", v, got, want)
		}
		checkSatisfied(t, c)
	}
	edges := []int64{0, -1, 1, 1<<bound - 1, -(1<<bound - 1), -(1 << bound)}
	for _, k := range []int64{1, 2, 3, 1000, 1 << (bound - f - 1)} {
		for _, m := range []int64{k << f, -(k << f)} {
			edges = append(edges, m-1, m, m+1)
		}
	}
	for _, v := range edges {
		check(v)
	}
	rng := rand.New(rand.NewSource(903))
	for i := 0; i < 200; i++ {
		check(rng.Int63n(1<<(bound+1)) - 1<<bound)
	}

	for _, v := range []int64{1 << bound, 1<<bound + 1, -(1<<bound + 1), 1 << (bound + 5), -(1 << (bound + 5))} {
		c := NewCtx(p)
		c.RescaleReLU(secret(c, v), f, bound)
		res, err := c.B.Compile()
		if err != nil {
			t.Fatal(err)
		}
		w, err := res.System.SolveAssignment(res.Assignment)
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := res.System.IsSatisfied(w); ok {
			t.Fatalf("RescaleReLU satisfied at x = %d, outside [-2^%d, 2^%d)", v, bound, bound)
		}
	}
}

// TestQuickSigmoidEquality: the circuit sigmoid is bit-identical to the
// simulator including the clamp region.
func TestQuickSigmoidEquality(t *testing.T) {
	f := func(raw int16) bool {
		// Spread over roughly [-16, 16] to cover both clamp branches.
		v := int64(raw) * testParams.Scale() / 2048
		c := NewCtx(testParams)
		s, err := c.Sigmoid(secret(c, v), 40)
		if err != nil {
			return false
		}
		e := s.Value()
		si, err := fixpoint.FromField(&e)
		if err != nil {
			return false
		}
		if si != testParams.SigmoidPoly(v) {
			return false
		}
		res, err := c.B.Compile()
		if err != nil {
			return false
		}
		ok, _ := res.System.IsSatisfied(res.Witness)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickGreaterEqTotalOrder: the comparison gadget implements a
// total order consistent with integer comparison.
func TestQuickGreaterEqTotalOrder(t *testing.T) {
	f := func(a, b boundedVal) bool {
		c := NewCtx(testParams)
		ge := c.GreaterEq(secret(c, int64(a)), secret(c, int64(b)), 20)
		le := c.GreaterEq(secret(c, int64(b)), secret(c, int64(a)), 20)
		eg := ge.Value()
		el := le.Value()
		gi, _ := fixpoint.FromField(&eg)
		li, _ := fixpoint.FromField(&el)
		wantGe := int64(0)
		if a >= b {
			wantGe = 1
		}
		wantLe := int64(0)
		if b >= a {
			wantLe = 1
		}
		// At least one direction always holds; both iff equal.
		if gi|li == 0 {
			return false
		}
		return gi == wantGe && li == wantLe
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickClampIdempotent: clamping twice equals clamping once, and the
// result is always inside the interval.
func TestQuickClampIdempotent(t *testing.T) {
	lo := testParams.Encode(-2)
	hi := testParams.Encode(3)
	f := func(v boundedVal) bool {
		c := NewCtx(testParams)
		once := c.Clamp(secret(c, int64(v)), lo, hi, 25)
		twice := c.Clamp(once, lo, hi, 25)
		e1 := once.Value()
		e2 := twice.Value()
		v1, _ := fixpoint.FromField(&e1)
		v2, _ := fixpoint.FromField(&e2)
		return v1 == v2 && v1 >= lo && v1 <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickBERCount: the BER gadget verdict matches a direct popcount
// comparison for random bit strings and thresholds.
func TestQuickBERCount(t *testing.T) {
	rng := rand.New(rand.NewSource(900))
	for trial := 0; trial < 40; trial++ {
		n := 4 + rng.Intn(12)
		a := make([]int64, n)
		b := make([]int64, n)
		diff := 0
		for i := range a {
			a[i] = int64(rng.Intn(2))
			b[i] = int64(rng.Intn(2))
			if a[i] != b[i] {
				diff++
			}
		}
		theta := rng.Intn(n + 1)
		want := int64(0)
		if diff <= theta {
			want = 1
		}
		c := NewCtx(testParams)
		verdict := c.BER(secretVec(c, a), secretVec(c, b), theta)
		e := verdict.Value()
		got, err := fixpoint.FromField(&e)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("BER verdict %d, want %d (diff=%d θ=%d)", got, want, diff, theta)
		}
		res, err := c.B.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if ok, bad := res.System.IsSatisfied(res.Witness); !ok {
			t.Fatalf("constraint %d violated", bad)
		}
	}
}

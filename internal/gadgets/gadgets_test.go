package gadgets

import (
	"math/rand"
	"testing"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/frontend"
	"zkrownn/internal/groth16"
)

var testParams = fixpoint.Params{FracBits: 8, MagBits: 30}

func secret(c *Ctx, v int64) frontend.Variable {
	return c.B.SecretInput("", fixpoint.ToField(v))
}

func secretVec(c *Ctx, vs []int64) []frontend.Variable {
	out := make([]frontend.Variable, len(vs))
	for i, v := range vs {
		out[i] = secret(c, v)
	}
	return out
}

func valOf(t *testing.T, v frontend.Variable) int64 {
	t.Helper()
	e := v.Value()
	got, err := fixpoint.FromField(&e)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func checkSatisfied(t *testing.T, c *Ctx) {
	t.Helper()
	res, err := c.B.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if ok, bad := res.System.IsSatisfied(res.Witness); !ok {
		t.Fatalf("constraint %d violated", bad)
	}
}

func TestRescaleBitsMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	c := NewCtx(testParams)
	for i := 0; i < 200; i++ {
		v := rng.Int63n(1<<29) - (1 << 28)
		want := testParams.Rescale(v)
		got := valOf(t, c.Rescale(secret(c, v), 30))
		if got != want {
			t.Fatalf("Rescale(%d) = %d, want %d", v, got, want)
		}
	}
	// Explicit negative floor cases.
	for _, v := range []int64{-1, -255, -256, -257, 255, 256, 0} {
		want := testParams.Rescale(v)
		got := valOf(t, c.Rescale(secret(c, v), 30))
		if got != want {
			t.Fatalf("Rescale(%d) = %d, want %d", v, got, want)
		}
	}
	checkSatisfied(t, c)
}

func TestMulRescaleMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	c := NewCtx(testParams)
	for i := 0; i < 100; i++ {
		a := rng.Int63n(1<<14) - (1 << 13)
		b := rng.Int63n(1<<14) - (1 << 13)
		want := testParams.MulRescale(a, b)
		got := valOf(t, c.MulRescale(secret(c, a), secret(c, b), 30))
		if got != want {
			t.Fatalf("MulRescale(%d,%d) = %d, want %d", a, b, got, want)
		}
	}
	checkSatisfied(t, c)
}

func TestReLUMatchesSimulator(t *testing.T) {
	c := NewCtx(testParams)
	for _, v := range []int64{-1000, -1, 0, 1, 12345, -(1 << 20), 1 << 20} {
		want := fixpoint.ReLU(v)
		got := valOf(t, c.ReLU(secret(c, v), 25))
		if got != want {
			t.Fatalf("ReLU(%d) = %d, want %d", v, got, want)
		}
	}
	checkSatisfied(t, c)
}

func TestHardThresholdMatchesSimulator(t *testing.T) {
	c := NewCtx(testParams)
	beta := testParams.Encode(0.5)
	for _, v := range []int64{beta - 1, beta, beta + 1, 0, -beta, 10 * beta} {
		want := fixpoint.HardThreshold(v, beta)
		got := valOf(t, c.HardThreshold(secret(c, v), beta, 25))
		if got != want {
			t.Fatalf("HardThreshold(%d) = %d, want %d", v, got, want)
		}
	}
	checkSatisfied(t, c)
}

func TestGreaterEq(t *testing.T) {
	c := NewCtx(testParams)
	cases := []struct{ a, b, want int64 }{
		{5, 3, 1}, {3, 5, 0}, {4, 4, 1}, {-2, -7, 1}, {-7, -2, 0}, {0, 0, 1},
	}
	for _, tc := range cases {
		got := valOf(t, c.GreaterEq(secret(c, tc.a), secret(c, tc.b), 20))
		if got != tc.want {
			t.Fatalf("GreaterEq(%d,%d) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	checkSatisfied(t, c)
}

func TestMatMulMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	const m, n, l = 3, 4, 2
	a := make([][]int64, m)
	b := make([][]int64, n)
	for i := range a {
		a[i] = make([]int64, n)
		for j := range a[i] {
			a[i][j] = rng.Int63n(1<<12) - (1 << 11)
		}
	}
	for i := range b {
		b[i] = make([]int64, l)
		for j := range b[i] {
			b[i][j] = rng.Int63n(1<<12) - (1 << 11)
		}
	}
	// Reference with rescale.
	want := make([][]int64, m)
	for i := 0; i < m; i++ {
		want[i] = make([]int64, l)
		for j := 0; j < l; j++ {
			var acc int64
			for k := 0; k < n; k++ {
				acc += a[i][k] * b[k][j]
			}
			want[i][j] = testParams.Rescale(acc)
		}
	}

	c := NewCtx(testParams)
	av := make([][]frontend.Variable, m)
	for i := range av {
		av[i] = secretVec(c, a[i])
	}
	bv := make([][]frontend.Variable, n)
	for i := range bv {
		bv[i] = secretVec(c, b[i])
	}
	out := c.MatMul(av, bv, true, 30)
	for i := 0; i < m; i++ {
		for j := 0; j < l; j++ {
			if got := valOf(t, out[i][j]); got != want[i][j] {
				t.Fatalf("matmul[%d][%d] = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	checkSatisfied(t, c)
}

func TestDenseWithBias(t *testing.T) {
	c := NewCtx(testParams)
	// 2x3 weights, input length 3, bias length 2; all f-fraction values.
	w := [][]int64{{256, -256, 512}, {128, 128, 0}} // 1.0, -1.0, 2.0 / 0.5, 0.5, 0
	x := []int64{256, 512, 256}                     // 1.0, 2.0, 1.0
	bias := []int64{256, -128}                      // 1.0, -0.5
	// row0: 1·1 - 1·2 + 2·1 + 1 = 2.0 → 512 ; row1: 0.5+1+0-0.5 = 1.0 → 256
	wv := make([][]frontend.Variable, len(w))
	for i := range w {
		wv[i] = secretVec(c, w[i])
	}
	out := c.Dense(wv, secretVec(c, x), secretVec(c, bias), true, 30)
	if got := valOf(t, out[0]); got != 512 {
		t.Fatalf("dense[0] = %d, want 512", got)
	}
	if got := valOf(t, out[1]); got != 256 {
		t.Fatalf("dense[1] = %d, want 256", got)
	}
	checkSatisfied(t, c)
}

// refConv3D is the im2col reference in plain integers.
func refConv3D(p fixpoint.Params, shape Conv3DShape, input [][][]int64, kernels [][][][]int64, rescale bool) [][][]int64 {
	oh, ow := shape.OutH(), shape.OutW()
	out := make([][][]int64, shape.OutC)
	for o := 0; o < shape.OutC; o++ {
		out[o] = make([][]int64, oh)
		for i := 0; i < oh; i++ {
			out[o][i] = make([]int64, ow)
			for j := 0; j < ow; j++ {
				var acc int64
				for ch := 0; ch < shape.InC; ch++ {
					for kh := 0; kh < shape.K; kh++ {
						for kw := 0; kw < shape.K; kw++ {
							acc += input[ch][i*shape.S+kh][j*shape.S+kw] * kernels[o][ch][kh][kw]
						}
					}
				}
				if rescale {
					acc = p.Rescale(acc)
				}
				out[o][i][j] = acc
			}
		}
	}
	return out
}

func TestConv3DMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	shape := Conv3DShape{InC: 2, InH: 6, InW: 6, OutC: 3, K: 3, S: 2}
	input := make([][][]int64, shape.InC)
	for ch := range input {
		input[ch] = make([][]int64, shape.InH)
		for i := range input[ch] {
			input[ch][i] = make([]int64, shape.InW)
			for j := range input[ch][i] {
				input[ch][i][j] = rng.Int63n(1<<10) - (1 << 9)
			}
		}
	}
	kernels := make([][][][]int64, shape.OutC)
	for o := range kernels {
		kernels[o] = make([][][]int64, shape.InC)
		for ch := range kernels[o] {
			kernels[o][ch] = make([][]int64, shape.K)
			for kh := range kernels[o][ch] {
				kernels[o][ch][kh] = make([]int64, shape.K)
				for kw := range kernels[o][ch][kh] {
					kernels[o][ch][kh][kw] = rng.Int63n(1<<10) - (1 << 9)
				}
			}
		}
	}
	want := refConv3D(testParams, shape, input, kernels, true)

	c := NewCtx(testParams)
	iv := make([][][]frontend.Variable, shape.InC)
	for ch := range input {
		iv[ch] = make([][]frontend.Variable, shape.InH)
		for i := range input[ch] {
			iv[ch][i] = secretVec(c, input[ch][i])
		}
	}
	kv := make([][][][]frontend.Variable, shape.OutC)
	for o := range kernels {
		kv[o] = make([][][]frontend.Variable, shape.InC)
		for ch := range kernels[o] {
			kv[o][ch] = make([][]frontend.Variable, shape.K)
			for kh := range kernels[o][ch] {
				kv[o][ch][kh] = secretVec(c, kernels[o][ch][kh])
			}
		}
	}
	out := c.Conv3D(shape, iv, kv, nil, true, 30)
	for o := 0; o < shape.OutC; o++ {
		for i := 0; i < shape.OutH(); i++ {
			for j := 0; j < shape.OutW(); j++ {
				if got := valOf(t, out[o][i][j]); got != want[o][i][j] {
					t.Fatalf("conv[%d][%d][%d] = %d, want %d", o, i, j, got, want[o][i][j])
				}
			}
		}
	}
	checkSatisfied(t, c)
}

func TestAverageMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for _, n := range []int{1, 3, 4, 7, 16} {
		c := NewCtx(testParams)
		vs := make([]int64, n)
		for i := range vs {
			vs[i] = rng.Int63n(1<<16) - (1 << 15)
		}
		want := testParams.Average(vs)
		got := valOf(t, c.Average(secretVec(c, vs), 35))
		if got != want {
			t.Fatalf("Average(n=%d) = %d, want %d", n, got, want)
		}
		checkSatisfied(t, c)
	}
}

func TestSigmoidMatchesSimulatorExactly(t *testing.T) {
	c := NewCtx(testParams)
	for _, x := range []float64{-4, -2.5, -1, -0.1, 0, 0.1, 1, 2.5, 4} {
		v := testParams.Encode(x)
		want := testParams.SigmoidPoly(v)
		s, err := c.Sigmoid(secret(c, v), 45)
		if err != nil {
			t.Fatal(err)
		}
		if got := valOf(t, s); got != want {
			t.Fatalf("Sigmoid(%v): circuit %d vs simulator %d", x, got, want)
		}
	}
	checkSatisfied(t, c)
}

// TestSigmoidRefusesFormats: at a format where the fixed-point
// polynomial is wrong the gadget answers with an error, not a wire.
func TestSigmoidRefusesFormats(t *testing.T) {
	for _, f := range []int{fixpoint.SigmoidMinFracBits - 1, fixpoint.SigmoidMaxFracBits + 1} {
		c := NewCtx(fixpoint.Params{FracBits: f, MagBits: 48})
		if _, err := c.SigmoidVec([]frontend.Variable{secret(c, 1)}, 48); err == nil {
			t.Errorf("FracBits %d: sigmoid accepted", f)
		}
	}
}

func TestBER(t *testing.T) {
	c := NewCtx(testParams)
	wm := []int64{1, 0, 1, 1, 0, 0, 1, 0}
	same := secretVec(c, wm)
	wmV := secretVec(c, wm)
	ok := c.BER(wmV, same, 0)
	if got := valOf(t, ok); got != 1 {
		t.Fatal("BER of identical strings with θ=0 should pass")
	}

	// Two flipped bits: fails θ=1, passes θ=2.
	flipped := append([]int64(nil), wm...)
	flipped[0] ^= 1
	flipped[5] ^= 1
	wmV2 := secretVec(c, wm)
	flipV := secretVec(c, flipped)
	fail := c.BER(wmV2, flipV, 1)
	if got := valOf(t, fail); got != 0 {
		t.Fatal("BER with 2 errors should fail θ=1")
	}
	wmV3 := secretVec(c, wm)
	flipV2 := secretVec(c, flipped)
	pass := c.BER(wmV3, flipV2, 2)
	if got := valOf(t, pass); got != 1 {
		t.Fatal("BER with 2 errors should pass θ=2")
	}
	checkSatisfied(t, c)
}

func TestBERNonBooleanInputRejected(t *testing.T) {
	c := NewCtx(testParams)
	wm := secretVec(c, []int64{2, 0}) // 2 is not a bit
	other := secretVec(c, []int64{1, 0})
	_ = c.BER(wm, other, 1)
	res, err := c.B.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := res.System.IsSatisfied(res.Witness); ok {
		t.Fatal("non-boolean watermark bit accepted")
	}
}

func TestMaxAndMaxPool(t *testing.T) {
	c := NewCtx(testParams)
	if got := valOf(t, c.Max(secret(c, 5), secret(c, -3), 20)); got != 5 {
		t.Fatal("Max wrong")
	}
	if got := valOf(t, c.Max(secret(c, -5), secret(c, -3), 20)); got != -3 {
		t.Fatal("Max of negatives wrong")
	}

	plane := [][]int64{
		{1, 5, 2, 0},
		{3, 4, 1, 1},
		{0, 2, 9, 8},
		{1, 1, 7, 6},
	}
	pv := make([][]frontend.Variable, 4)
	for i := range plane {
		pv[i] = secretVec(c, plane[i])
	}
	pooled := c.MaxPool2D(pv, 2, 2, 20)
	want := [][]int64{{5, 2}, {2, 9}}
	for i := range want {
		for j := range want[i] {
			if got := valOf(t, pooled[i][j]); got != want[i][j] {
				t.Fatalf("maxpool[%d][%d] = %d, want %d", i, j, got, want[i][j])
			}
		}
	}
	checkSatisfied(t, c)
}

func TestGadgetsAreDataOblivious(t *testing.T) {
	build := func(seed int64) int {
		rng := rand.New(rand.NewSource(seed))
		c := NewCtx(testParams)
		xs := make([]int64, 8)
		for i := range xs {
			xs[i] = rng.Int63n(1<<13) - 1<<12
		}
		v := secretVec(c, xs)
		r := c.ReLUVec(v, 25)
		for i := range v {
			_ = c.RescaleReLU(v[i], testParams.FracBits, 25)
		}
		s, err := c.SigmoidVec(r[:4], 45)
		if err != nil {
			t.Fatal(err)
		}
		th := c.HardThresholdVec(s, testParams.Encode(0.5), 25)
		_ = c.BER(th, th, 1)
		_ = c.Average(v, 30)
		return c.B.NbConstraints()
	}
	if build(1) != build(2) {
		t.Fatal("constraint count depends on input values; circuits not data-oblivious")
	}
}

// TestGadgetProveVerify runs a small matmul circuit through the full
// Groth16 pipeline: private inputs, public outputs, honest and tampered.
func TestGadgetProveVerify(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	c := NewCtx(testParams)

	a := [][]int64{{256, 512}, {-256, 128}}
	b := [][]int64{{512, 0}, {256, 256}}
	av := make([][]frontend.Variable, 2)
	bv := make([][]frontend.Variable, 2)
	for i := 0; i < 2; i++ {
		av[i] = secretVec(c, a[i])
		bv[i] = secretVec(c, b[i])
	}
	out := c.MatMul(av, bv, true, 30)
	// Publish the outputs (private inputs, public outputs — Table I's
	// standalone-circuit convention).
	for i := range out {
		for j := range out[i] {
			c.B.PublicOutput("out", out[i][j])
		}
	}
	res, err := c.B.Compile()
	if err != nil {
		t.Fatal(err)
	}
	sys, w := res.System, res.Witness
	pk, vk, err := groth16.Setup(sys, rng)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := groth16.Prove(sys, pk, w, rng)
	if err != nil {
		t.Fatal(err)
	}
	pub := sys.PublicValues(w)
	if err := groth16.Verify(vk, proof, pub); err != nil {
		t.Fatal(err)
	}
	// Claiming a different output must fail.
	bad := append([]fr.Element(nil), pub...)
	bad[0].SetUint64(123456)
	if err := groth16.Verify(vk, proof, bad); err == nil {
		t.Fatal("wrong public output accepted")
	}
}

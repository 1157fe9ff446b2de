package nn

import (
	"math"
	"math/rand"
	"testing"

	"zkrownn/internal/dataset"
	"zkrownn/internal/fixpoint"
)

// numericalGradientCheck compares backprop gradients to central finite
// differences for a tiny network.
func TestDenseGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(110))
	net := &Network{Layers: []Layer{
		NewDense(4, 5, rng),
		NewReLU(5),
		NewDense(5, 3, rng),
	}}
	x := []float64{0.3, -0.5, 0.8, 0.1}
	label := 2

	lossOf := func() float64 {
		out := net.Forward(x)
		l, _ := SoftmaxCrossEntropy(out, label)
		return l
	}

	net.ZeroGrads()
	out := net.Forward(x)
	_, grad := SoftmaxCrossEntropy(out, label)
	net.Backward(grad)

	const eps = 1e-5
	for li, layer := range net.Layers {
		params := layer.Params()
		grads := layer.Grads()
		for pi := range params {
			p := params[pi]
			g := grads[pi]
			for i := 0; i < len(p); i += 3 { // sample every third param
				orig := p[i]
				p[i] = orig + eps
				lp := lossOf()
				p[i] = orig - eps
				lm := lossOf()
				p[i] = orig
				numeric := (lp - lm) / (2 * eps)
				if math.Abs(numeric-g[i]) > 1e-4*(1+math.Abs(numeric)) {
					t.Fatalf("layer %d param %d[%d]: backprop %v vs numeric %v", li, pi, i, g[i], numeric)
				}
			}
		}
	}
}

func TestConvGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(111))
	conv := NewConv2D(2, 5, 5, 3, 3, 1, rng)
	net := &Network{Layers: []Layer{
		conv,
		NewReLU(conv.OutputSize()),
		NewDense(conv.OutputSize(), 2, rng),
	}}
	x := make([]float64, 2*5*5)
	for i := range x {
		x[i] = rng.NormFloat64() * 0.5
	}
	label := 1

	lossOf := func() float64 {
		out := net.Forward(x)
		l, _ := SoftmaxCrossEntropy(out, label)
		return l
	}

	net.ZeroGrads()
	out := net.Forward(x)
	_, grad := SoftmaxCrossEntropy(out, label)
	net.Backward(grad)

	const eps = 1e-5
	p := conv.W
	g := conv.gw
	for i := 0; i < len(p); i += 7 {
		orig := p[i]
		p[i] = orig + eps
		lp := lossOf()
		p[i] = orig - eps
		lm := lossOf()
		p[i] = orig
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-g[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("conv W[%d]: backprop %v vs numeric %v", i, g[i], numeric)
		}
	}
}

func TestMaxPoolForwardBackward(t *testing.T) {
	mp := NewMaxPool2D(1, 4, 4, 2, 2)
	x := []float64{
		1, 5, 2, 0,
		3, 4, 1, 1,
		0, 2, 9, 8,
		1, 1, 7, 6,
	}
	out := mp.Forward(x)
	want := []float64{5, 2, 2, 9}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("pool[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	grad := []float64{1, 2, 3, 4}
	in := mp.Backward(grad)
	// Gradient must land exactly on the argmax positions.
	if in[1] != 1 || in[2] != 2 || in[9] != 3 || in[10] != 4 {
		t.Fatalf("pool backward wrong: %v", in)
	}
}

func TestTrainLearnsSyntheticData(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Samples: 400, Dim: 20, Classes: 4, ClusterStd: 0.25, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	train, test := ds.Split(0.2)
	rng := rand.New(rand.NewSource(112))
	net := NewMLP(MLPConfig{In: 20, Hidden: []int{32}, Classes: 4}, rng)

	before := net.Accuracy(test.X, test.Y)
	net.Train(train.X, train.Y, TrainConfig{Epochs: 20, BatchSize: 16, LearningRate: 0.1, Silent: true}, rng)
	after := net.Accuracy(test.X, test.Y)
	if after < 0.9 {
		t.Fatalf("model failed to learn: accuracy %.2f -> %.2f", before, after)
	}
}

func TestTableIIArchitectures(t *testing.T) {
	rng := rand.New(rand.NewSource(113))
	mlp := NewMNISTMLP(rng)
	if got := mlp.String(); got != "FC(512) - ReLU - FC(512) - ReLU - FC(10)" {
		t.Fatalf("MLP architecture: %s", got)
	}
	out := mlp.Forward(make([]float64, 784))
	if len(out) != 10 {
		t.Fatalf("MLP output size %d", len(out))
	}

	cnn := NewCIFAR10CNN(rng)
	out = cnn.Forward(make([]float64, 3*32*32))
	if len(out) != 10 {
		t.Fatalf("CNN output size %d", len(out))
	}
	wantArch := "C(32,3,2) - ReLU - C(32,3,1) - ReLU - MP(2,1) - C(64,3,1) - ReLU - C(64,3,1) - ReLU - MP(2,1) - FC(512) - ReLU - FC(10)"
	if got := cnn.String(); got != wantArch {
		t.Fatalf("CNN architecture:\n got  %s\n want %s", got, wantArch)
	}
}

func TestForwardUpToMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(114))
	net := NewMLP(MLPConfig{In: 6, Hidden: []int{8, 4}, Classes: 3}, rng)
	x := []float64{1, -1, 0.5, 0.2, -0.3, 0.9}
	// Layer 1 output = ReLU(Dense0(x)).
	d0 := net.Layers[0].(*Dense)
	manual := make([]float64, d0.Out)
	for o := 0; o < d0.Out; o++ {
		acc := d0.B[o]
		for i := range x {
			acc += d0.W[o*d0.In+i] * x[i]
		}
		if acc < 0 {
			acc = 0
		}
		manual[o] = acc
	}
	got := net.ForwardUpTo(x, 1)
	for i := range manual {
		if math.Abs(got[i]-manual[i]) > 1e-12 {
			t.Fatalf("ForwardUpTo mismatch at %d", i)
		}
	}
}

func TestQuantizedForwardApproximatesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(115))
	p := fixpoint.Default16
	net := NewMLP(MLPConfig{In: 10, Hidden: []int{16}, Classes: 4}, rng)
	q, err := Quantize(net, p)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		x := make([]float64, 10)
		for i := range x {
			x[i] = rng.Float64()*2 - 1
		}
		want := net.ForwardUpTo(x, 1) // through first ReLU
		got, err := q.ForwardUpTo(p.EncodeSlice(x), 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			diff := math.Abs(p.Decode(got[i]) - want[i])
			if diff > 0.01 {
				t.Fatalf("quantized forward deviates by %v at %d", diff, i)
			}
		}
	}
}

func TestQuantizedCNNForward(t *testing.T) {
	rng := rand.New(rand.NewSource(116))
	p := fixpoint.Default16
	net := NewSmallCNN(SmallCNNConfig{
		InC: 1, InH: 8, InW: 8, OutC: 4, K: 3, S: 2, Hidden: 8, Classes: 3,
	}, rng)
	q, err := Quantize(net, p)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 64)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	want := net.ForwardUpTo(x, 1) // conv + relu
	got, err := q.ForwardUpTo(p.EncodeSlice(x), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatal("quantized conv output size mismatch")
	}
	for i := range want {
		if math.Abs(p.Decode(got[i])-want[i]) > 0.01 {
			t.Fatal("quantized conv deviates from float")
		}
	}
}

func TestQuantizeRejectsUnknownLayer(t *testing.T) {
	net := &Network{Layers: []Layer{fakeLayer{}}}
	if _, err := Quantize(net, fixpoint.Default16); err == nil {
		t.Fatal("unknown layer quantized")
	}
}

// TestQuantizedSigmoidRefusesFormats: a sigmoid layer at a format where
// the fixed-point polynomial is wrong fails the forward pass with an
// error instead of returning wrong activations.
func TestQuantizedSigmoidRefusesFormats(t *testing.T) {
	for _, f := range []int{2, 12, 20} {
		q := &QuantizedNetwork{
			Params: fixpoint.Params{FracBits: f, MagBits: 48},
			Layers: []QuantizedLayer{{Kind: "sigmoid", Out: 2}},
		}
		_, err := q.Forward([]int64{1, -1})
		if refused := q.Params.CheckSigmoid() != nil; refused != (err != nil) {
			t.Errorf("FracBits %d: forward error %v, format refused %v", f, err, refused)
		}
	}
}

type fakeLayer struct{}

func (fakeLayer) Forward(x []float64) []float64  { return x }
func (fakeLayer) Backward(g []float64) []float64 { return g }
func (fakeLayer) Params() [][]float64            { return nil }
func (fakeLayer) Grads() [][]float64             { return nil }
func (fakeLayer) OutputSize() int                { return 0 }
func (fakeLayer) Name() string                   { return "fake" }

func TestSoftmaxCrossEntropy(t *testing.T) {
	loss, grad := SoftmaxCrossEntropy([]float64{1, 1, 1}, 0)
	if math.Abs(loss-math.Log(3)) > 1e-9 {
		t.Fatalf("uniform loss = %v, want ln 3", loss)
	}
	// Gradient sums to zero.
	var sum float64
	for _, g := range grad {
		sum += g
	}
	if math.Abs(sum) > 1e-9 {
		t.Fatal("CE gradient does not sum to zero")
	}
	// Confident correct prediction → tiny loss.
	loss, _ = SoftmaxCrossEntropy([]float64{10, -10, -10}, 0)
	if loss > 1e-6 {
		t.Fatalf("confident loss = %v", loss)
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(117))
	net := NewMLP(MLPConfig{In: 10, Hidden: []int{5}, Classes: 2}, rng)
	// 10·5 + 5 + 5·2 + 2 = 67
	if got := net.NumParams(); got != 67 {
		t.Fatalf("NumParams = %d, want 67", got)
	}
}

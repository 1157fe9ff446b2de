// Verifiable inference: the paper closes by noting that ZKROWNN's
// individual circuits "can be combined to perform a myriad of tasks,
// including verifiable machine learning inference". This example does
// exactly that: a server proves that its (public) model classifies a
// client's (private) input as a particular (public) class — running the
// entire MLP feed-forward plus an in-circuit argmax — without revealing
// the input.
//
//	go run ./examples/verifiable_inference
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"zkrownn"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/frontend"
	"zkrownn/internal/gadgets"
	"zkrownn/internal/groth16"
	"zkrownn/internal/nn"
)

func main() {
	rng := rand.New(rand.NewSource(77))
	p := fixpoint.Params{FracBits: 12, MagBits: 40}

	// A trained model (public) and a private input.
	ds, err := zkrownn.SyntheticMNIST(300, 77)
	if err != nil {
		log.Fatal(err)
	}
	for i := range ds.X {
		ds.X[i] = ds.X[i][:32]
	}
	ds.Dim = 32
	model := zkrownn.NewMLP(32, []int{24}, ds.Classes, rng)
	zkrownn.Train(model, ds, zkrownn.TrainOptions{Epochs: 10, BatchSize: 16, LearningRate: 0.1}, rng)

	input := ds.X[0]
	label := model.Predict(input)
	fmt.Printf("model predicts class %d for the private input\n", label)

	q, err := nn.Quantize(model, p)
	if err != nil {
		log.Fatal(err)
	}

	// Build the inference circuit: public weights, private input, public
	// claimed class; the circuit asserts the claimed class has the
	// maximal logit.
	c := gadgets.NewCtx(p)

	// Public model parameters.
	var weightVars [][]frontend.Variable // per dense layer: flat weights
	var biasVars [][]frontend.Variable
	for li, l := range q.Layers {
		if l.Kind != "dense" {
			continue
		}
		wv := make([]frontend.Variable, len(l.W))
		for i, w := range l.W {
			wv[i] = c.B.PublicInput(fmt.Sprintf("w%d", li), fixpoint.ToField(w))
		}
		bv := make([]frontend.Variable, len(l.B))
		for i, b := range l.B {
			bv[i] = c.B.PublicInput(fmt.Sprintf("b%d", li), fixpoint.ToField(b))
		}
		weightVars = append(weightVars, wv)
		biasVars = append(biasVars, bv)
	}

	// Private input.
	xq := p.EncodeSlice(input)
	cur := make([]frontend.Variable, len(xq))
	for i, v := range xq {
		cur[i] = c.B.SecretInput("x", fixpoint.ToField(v))
	}

	// Feed forward through every layer using the §III-B gadgets. A dense
	// layer followed by ReLU proves the pair as one rescale-and-sign
	// decomposition per neuron.
	denseIdx := 0
	for li := 0; li < len(q.Layers); li++ {
		l := q.Layers[li]
		switch l.Kind {
		case "dense":
			rows := make([][]frontend.Variable, l.Out)
			for o := 0; o < l.Out; o++ {
				rows[o] = weightVars[denseIdx][o*l.In : (o+1)*l.In]
			}
			fused := li+1 < len(q.Layers) && q.Layers[li+1].Kind == "relu"
			cur = c.Dense(rows, cur, biasVars[denseIdx], !fused, p.MagBits)
			denseIdx++
			if fused {
				for i := range cur {
					cur[i] = c.RescaleReLU(cur[i], p.FracBits, p.MagBits)
				}
				li++
			}
		case "relu":
			cur = c.ReLUVec(cur, p.MagBits)
		}
	}

	// In-circuit argmax assertion: logit[label] ≥ logit[j] for all j.
	checks := make([]frontend.Variable, 0, len(cur)-1)
	for j := range cur {
		if j == label {
			continue
		}
		checks = append(checks, c.GreaterEq(cur[label], cur[j], p.MagBits))
	}
	allOk := c.B.Sum(checks...)
	c.B.AssertEqual(allOk, c.B.ConstUint64(uint64(len(checks))))

	// Publish the claimed class.
	claimed := c.B.PublicInput("class", fixpoint.ToField(int64(label)))
	c.B.AssertEqual(claimed, c.B.ConstUint64(uint64(label)))

	res, err := c.B.Compile()
	if err != nil {
		log.Fatal(err)
	}
	sys := res.System
	fmt.Printf("inference circuit: %d constraints\n", sys.NbConstraints())

	start := time.Now()
	pk, vk, err := groth16.Setup(sys, nil)
	if err != nil {
		log.Fatal(err)
	}
	// Compile-once / solve-many: the witness is re-derived from the
	// recorded inputs by the solver program — the same call a server
	// would make per request with fresh private inputs.
	witness, err := sys.SolveAssignment(res.Assignment)
	if err != nil {
		log.Fatal(err)
	}
	proof, err := groth16.Prove(sys, pk, witness, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("setup+prove: %.1fs, proof %d B\n", time.Since(start).Seconds(), proof.PayloadSize())

	public := sys.PublicValues(witness)
	start = time.Now()
	if err := groth16.Verify(vk, proof, public); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("verified in %.1fms: the public model assigns class %d to SOME input the prover knows —\n",
		float64(time.Since(start).Microseconds())/1e3, label)
	fmt.Println("the input itself never leaves the prover (verifiable private inference)")
}

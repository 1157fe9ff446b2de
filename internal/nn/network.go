package nn

import (
	"math"
	"math/rand"
	"strings"
)

// Network is a feed-forward stack of layers trained with SGD.
type Network struct {
	Layers []Layer
}

// Forward runs a full forward pass for one sample.
func (n *Network) Forward(x []float64) []float64 {
	cur := x
	for _, l := range n.Layers {
		cur = l.Forward(cur)
	}
	return cur
}

// ForwardUpTo runs the forward pass through layers [0, upTo] inclusive
// and returns that intermediate activation — the zkFeedForward "until
// layer l_wm" step of Algorithm 1.
func (n *Network) ForwardUpTo(x []float64, upTo int) []float64 {
	cur := x
	for i := 0; i <= upTo && i < len(n.Layers); i++ {
		cur = n.Layers[i].Forward(cur)
	}
	return cur
}

// Backward propagates ∂L/∂out through the whole stack (after a Forward),
// accumulating parameter gradients.
func (n *Network) Backward(grad []float64) []float64 {
	cur := grad
	for i := len(n.Layers) - 1; i >= 0; i-- {
		cur = n.Layers[i].Backward(cur)
	}
	return cur
}

// BackwardFrom injects a gradient at the output of layer `from` and
// propagates it down to the input. Layers above `from` are untouched.
// Forward (or ForwardUpTo(≥from)) must have run for this sample.
func (n *Network) BackwardFrom(from int, grad []float64) []float64 {
	cur := grad
	for i := from; i >= 0; i-- {
		cur = n.Layers[i].Backward(cur)
	}
	return cur
}

// ZeroGrads clears accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, l := range n.Layers {
		for _, g := range l.Grads() {
			for i := range g {
				g[i] = 0
			}
		}
	}
}

// Step applies one SGD update with learning rate lr (gradients are
// whatever has been accumulated since the last ZeroGrads) and clears
// the gradients.
func (n *Network) Step(lr float64) {
	for _, l := range n.Layers {
		params := l.Params()
		grads := l.Grads()
		for pi := range params {
			p := params[pi]
			g := grads[pi]
			for i := range p {
				p[i] -= lr * g[i]
				g[i] = 0
			}
		}
	}
}

// String renders the architecture in the paper's Table II notation.
func (n *Network) String() string {
	parts := make([]string, len(n.Layers))
	for i, l := range n.Layers {
		parts[i] = l.Name()
	}
	return strings.Join(parts, " - ")
}

// NumParams counts trainable parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			total += len(p)
		}
	}
	return total
}

// SoftmaxCrossEntropy returns the loss and ∂L/∂logits for a single
// sample with integer label.
func SoftmaxCrossEntropy(logits []float64, label int) (float64, []float64) {
	maxL := math.Inf(-1)
	for _, v := range logits {
		if v > maxL {
			maxL = v
		}
	}
	var sum float64
	exps := make([]float64, len(logits))
	for i, v := range logits {
		exps[i] = math.Exp(v - maxL)
		sum += exps[i]
	}
	grad := make([]float64, len(logits))
	for i := range grad {
		p := exps[i] / sum
		grad[i] = p
	}
	loss := -math.Log(math.Max(exps[label]/sum, 1e-12))
	grad[label] -= 1
	return loss, grad
}

// Predict returns the argmax class of the logits for x.
func (n *Network) Predict(x []float64) int {
	out := n.Forward(x)
	best := 0
	for i := 1; i < len(out); i++ {
		if out[i] > out[best] {
			best = i
		}
	}
	return best
}

// Accuracy evaluates classification accuracy on a dataset.
func (n *Network) Accuracy(xs [][]float64, ys []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	correct := 0
	for i := range xs {
		if n.Predict(xs[i]) == ys[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(xs))
}

// TrainConfig controls SGD training.
type TrainConfig struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
	// Silent suppresses progress output.
	Silent bool
	// Logf receives progress lines when not Silent (fmt.Printf signature);
	// nil means no output.
	Logf func(format string, args ...any)
}

// Train runs plain SGD classification training.
func (n *Network) Train(xs [][]float64, ys []int, cfg TrainConfig, rng *rand.Rand) {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		var totalLoss float64
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for _, s := range idx[start:end] {
				out := n.Forward(xs[s])
				loss, grad := SoftmaxCrossEntropy(out, ys[s])
				totalLoss += loss
				scale := 1.0 / float64(end-start)
				for i := range grad {
					grad[i] *= scale
				}
				n.Backward(grad)
			}
			n.Step(cfg.LearningRate)
		}
		if !cfg.Silent && cfg.Logf != nil {
			cfg.Logf("epoch %d/%d loss=%.4f\n", epoch+1, cfg.Epochs, totalLoss/float64(len(idx)))
		}
	}
}

// SnapshotParams deep-copies every trainable parameter, for best-state
// tracking during watermark embedding.
func (n *Network) SnapshotParams() [][]float64 {
	var snap [][]float64
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			cp := make([]float64, len(p))
			copy(cp, p)
			snap = append(snap, cp)
		}
	}
	return snap
}

// RestoreParams writes a snapshot taken by SnapshotParams back into the
// network.
func (n *Network) RestoreParams(snap [][]float64) {
	i := 0
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			copy(p, snap[i])
			i++
		}
	}
}

// Package watermark implements the DeepSigns white-box watermarking
// scheme (Rouhani, Chen, Koushanfar — ASPLOS 2019) that ZKROWNN builds
// on: an N-bit owner signature is embedded into the probability density
// function of the activation maps of a chosen hidden layer, keyed by a
// secret trigger set and a secret projection matrix.
//
// Embedding fine-tunes the model with an additional loss that pushes
// sigmoid(mean-activation · A) toward the signature bits; extraction
// queries the model with the trigger keys, averages the activations,
// projects, thresholds, and compares bit error rate — exactly the
// pipeline ZKROWNN's Algorithm 1 runs inside a zkSNARK. Thresholding the
// squashed projection at ½ is reading its sign, since sigmoid(0) = ½.
package watermark

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"zkrownn/internal/nn"
)

// Key is the owner's secret watermarking material: the embedded layer,
// the target Gaussian class, the trigger inputs (a subset of training
// data of that class), and the projection matrix A.
type Key struct {
	// LayerIndex is l_wm: extraction reads the activation produced by
	// net.Layers[LayerIndex] (normally the ReLU after the first hidden
	// dense/conv layer).
	LayerIndex int
	// TargetClass is the Gaussian class s whose distribution carries
	// the watermark.
	TargetClass int
	// Triggers is X_key.
	Triggers [][]float64
	// A is the M×N projection matrix (M = activation dim, N = bits).
	A [][]float64
	// Signature is the owner's N-bit watermark.
	Signature []int
}

// Validate checks structural consistency.
func (k *Key) Validate() error {
	if len(k.Triggers) == 0 {
		return errors.New("watermark: empty trigger set")
	}
	if len(k.A) == 0 || len(k.A[0]) != len(k.Signature) {
		return fmt.Errorf("watermark: projection is %dx%d but signature has %d bits",
			len(k.A), len(k.A[0]), len(k.Signature))
	}
	for _, b := range k.Signature {
		if b != 0 && b != 1 {
			return errors.New("watermark: signature must be binary")
		}
	}
	return nil
}

// NbBits returns the signature length N.
func (k *Key) NbBits() int { return len(k.Signature) }

// GenerateKey draws a fresh watermark key: an iid random binary
// signature (the DeepSigns "arbitrary binary string"), a Gaussian
// projection matrix, and a trigger set sampled from the provided
// class-s inputs.
func GenerateKey(rng *rand.Rand, layerIndex, targetClass, activationDim, nbBits, nbTriggers int, classInputs [][]float64) (*Key, error) {
	if len(classInputs) < nbTriggers {
		return nil, fmt.Errorf("watermark: need %d trigger candidates, have %d", nbTriggers, len(classInputs))
	}
	k := &Key{
		LayerIndex:  layerIndex,
		TargetClass: targetClass,
		Signature:   make([]int, nbBits),
		A:           make([][]float64, activationDim),
	}
	for i := range k.Signature {
		k.Signature[i] = rng.Intn(2)
	}
	for i := range k.A {
		k.A[i] = make([]float64, nbBits)
		for j := range k.A[i] {
			k.A[i][j] = rng.NormFloat64()
		}
	}
	perm := rng.Perm(len(classInputs))
	for t := 0; t < nbTriggers; t++ {
		src := classInputs[perm[t]]
		trigger := make([]float64, len(src))
		copy(trigger, src)
		k.Triggers = append(k.Triggers, trigger)
	}
	return k, nil
}

// meanActivation computes μ, the per-dimension mean of the layer-l_wm
// activations over the trigger set.
func meanActivation(net *nn.Network, k *Key) []float64 {
	var mu []float64
	for _, trig := range k.Triggers {
		act := net.ForwardUpTo(trig, k.LayerIndex)
		if mu == nil {
			mu = make([]float64, len(act))
		}
		for i, v := range act {
			mu[i] += v
		}
	}
	for i := range mu {
		mu[i] /= float64(len(k.Triggers))
	}
	return mu
}

// project computes z = μ·A.
func project(mu []float64, a [][]float64) []float64 {
	n := len(a[0])
	z := make([]float64, n)
	for i, m := range mu {
		if i >= len(a) {
			break
		}
		for j := 0; j < n; j++ {
			z[j] += m * a[i][j]
		}
	}
	return z
}

// Extract runs plain (float) watermark extraction and returns the
// recovered bits and the bit error rate against the key's signature.
func Extract(net *nn.Network, k *Key) (bits []int, ber float64) {
	mu := meanActivation(net, k)
	z := project(mu, k.A)
	bits = make([]int, len(z))
	errCount := 0
	for j := range z {
		// [sigmoid(z) ≥ ½] = [z ≥ 0]: sigmoid is monotone with
		// sigmoid(0) = ½.
		if z[j] >= 0 {
			bits[j] = 1
		}
		if bits[j] != k.Signature[j] {
			errCount++
		}
	}
	return bits, float64(errCount) / float64(len(z))
}

// ExtractQuantized runs extraction through the fixed-point pipeline that
// the zkSNARK circuit implements: quantized triggers, quantized forward
// pass, column-wise fixed-point averaging and the raw projection
// acc = μ·A. Algorithm 1's [sigmoid(z) ≥ ½] is read as [acc ≥ 0]: sigmoid
// is monotone with sigmoid(0) = ½, and ⌊acc/2^f⌋ ≥ 0 ⇔ acc ≥ 0, so the
// rule is exact at every format. The returned bits are the circuit's
// extracted bits.
func ExtractQuantized(q *nn.QuantizedNetwork, k *Key) (bits []int, nbErrors int, err error) {
	p := q.Params

	// Activations per trigger.
	var acts [][]int64
	for _, trig := range k.Triggers {
		a, err := q.ForwardUpTo(p.EncodeSlice(trig), k.LayerIndex)
		if err != nil {
			return nil, 0, err
		}
		acts = append(acts, a)
	}

	// Column-wise fixed-point means (zkAverage semantics).
	m := len(acts[0])
	mu := make([]int64, m)
	col := make([]int64, len(acts))
	for i := 0; i < m; i++ {
		for t := range acts {
			col[t] = acts[t][i]
		}
		mu[i] = p.Average(col)
	}

	// Raw projection μ·A at 2f fraction bits (zkMatMult without its
	// rescale: only the sign is read).
	aq := make([][]int64, len(k.A))
	for i := range k.A {
		aq[i] = p.EncodeSlice(k.A[i])
	}
	n := k.NbBits()
	bits = make([]int, n)
	for j := 0; j < n; j++ {
		var acc int64
		for i := 0; i < m && i < len(aq); i++ {
			acc += mu[i] * aq[i][j]
		}
		if acc >= 0 {
			bits[j] = 1
		}
		if bits[j] != k.Signature[j] {
			nbErrors++
		}
	}
	return bits, nbErrors, nil
}

// BER returns the fraction of differing bits between two equal-length
// bit strings.
func BER(a, b []int) float64 {
	if len(a) != len(b) {
		return 1
	}
	if len(a) == 0 {
		return 0
	}
	diff := 0
	for i := range a {
		if a[i] != b[i] {
			diff++
		}
	}
	return float64(diff) / float64(len(a))
}

// EmbedConfig controls the fine-tuning that embeds the watermark.
type EmbedConfig struct {
	Epochs       int
	BatchSize    int
	LearningRate float64
	// LambdaWM weights the watermark (BCE) loss against the task loss.
	LambdaWM float64
	// LambdaTight weights the activation-tightening term that pulls
	// trigger activations toward their Gaussian center (DeepSigns loss2).
	LambdaTight float64
	// WMSteps is the number of watermark gradient steps per epoch.
	WMSteps int
	// PolishSteps caps the pure-watermark gradient steps run after the
	// main loop (no task interleaving) to push the margin to target.
	PolishSteps int
	// StraightThrough injects the watermark gradient at the
	// pre-activation when l_wm is a ReLU, bypassing the dead-unit mask
	// (a straight-through estimator). Dead units can then be revived,
	// which the pure post-ReLU gradient cannot do.
	StraightThrough bool
	// MarginTarget stops embedding early once every projected logit
	// z_j has the correct sign with |z_j| ≥ MarginTarget; the margin
	// makes the embedded bits robust to fixed-point quantization.
	MarginTarget float64
	Silent       bool
	Logf         func(format string, args ...any)
}

// DefaultEmbedConfig returns sensible fine-tuning defaults.
func DefaultEmbedConfig() EmbedConfig {
	return EmbedConfig{
		Epochs: 50, BatchSize: 16, LearningRate: 0.05,
		LambdaWM: 1.0, LambdaTight: 0.01,
		WMSteps: 5, PolishSteps: 400, MarginTarget: 2.0,
		StraightThrough: true, Silent: true,
	}
}

// Embed fine-tunes net so that the watermark extracts with zero BER
// while task accuracy is maintained: each epoch interleaves task SGD
// with a watermark step whose gradient is the BCE derivative of
// sigmoid(μ·A) against the signature, distributed over the trigger
// activations (μ is their mean). When its budgets run out with bits
// still wrong it returns an error naming the BER, and leaves net at the
// best-margin state it saw.
func Embed(net *nn.Network, k *Key, xs [][]float64, ys []int, cfg EmbedConfig, rng *rand.Rand) error {
	if err := k.Validate(); err != nil {
		return err
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 16
	}
	if cfg.WMSteps <= 0 {
		cfg.WMSteps = 1
	}
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}

	// Straight-through injection point: when l_wm is a ReLU, inject the
	// watermark gradient at the layer below so dead units can recover.
	injectAt := k.LayerIndex
	if cfg.StraightThrough && injectAt > 0 {
		if _, isReLU := net.Layers[injectAt].(*nn.ReLULayer); isReLU {
			injectAt--
		}
	}

	// wmStep runs one watermark gradient step, returning the BCE loss
	// and the minimum signed margin min_j (2·wm_j - 1)·z_j.
	wmStep := func() (float64, float64) {
		mu := meanActivation(net, k)
		z := project(mu, k.A)
		// ∂BCE/∂z_j = σ(z_j) - wm_j ; ∂/∂μ_i = Σ_j A_ij (σ(z_j) - wm_j)
		dz := make([]float64, len(z))
		var wmLoss float64
		minMargin := math.Inf(1)
		for j := range z {
			g := 1.0 / (1.0 + math.Exp(-z[j]))
			dz[j] = g - float64(k.Signature[j])
			if k.Signature[j] == 1 {
				wmLoss += -math.Log(math.Max(g, 1e-12))
			} else {
				wmLoss += -math.Log(math.Max(1-g, 1e-12))
			}
			margin := (2*float64(k.Signature[j]) - 1) * z[j]
			if margin < minMargin {
				minMargin = margin
			}
		}
		dmu := make([]float64, len(mu))
		for i := range mu {
			if i >= len(k.A) {
				break
			}
			for j := range dz {
				dmu[i] += k.A[i][j] * dz[j]
			}
		}
		invT := 1.0 / float64(len(k.Triggers))
		for _, trig := range k.Triggers {
			act := net.ForwardUpTo(trig, k.LayerIndex)
			grad := make([]float64, len(act))
			for i := range grad {
				grad[i] = cfg.LambdaWM * dmu[i] * invT
				// Tightening: pull the activation toward the center.
				grad[i] += cfg.LambdaTight * (act[i] - mu[i]) * invT
			}
			net.BackwardFrom(injectAt, grad)
		}
		net.Step(cfg.LearningRate)
		return wmLoss, minMargin
	}

	bestMargin := math.Inf(-1)
	var bestSnap [][]float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Task pass.
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(idx) {
				end = len(idx)
			}
			for _, s := range idx[start:end] {
				out := net.Forward(xs[s])
				_, grad := nn.SoftmaxCrossEntropy(out, ys[s])
				scale := 1.0 / float64(end-start)
				for i := range grad {
					grad[i] *= scale
				}
				net.Backward(grad)
			}
			net.Step(cfg.LearningRate)
		}

		// Watermark passes.
		var wmLoss, minMargin float64
		for s := 0; s < cfg.WMSteps; s++ {
			wmLoss, minMargin = wmStep()
		}
		if minMargin > bestMargin {
			bestMargin = minMargin
			bestSnap = net.SnapshotParams()
		}

		if !cfg.Silent && cfg.Logf != nil {
			_, ber := Extract(net, k)
			cfg.Logf("embed epoch %d/%d wmLoss=%.4f margin=%.2f BER=%.3f\n",
				epoch+1, cfg.Epochs, wmLoss, minMargin, ber)
		}
		if cfg.MarginTarget > 0 && minMargin >= cfg.MarginTarget {
			return nil
		}
	}
	// Polish: pure watermark steps without task interleaving, which
	// reliably push the margin past the quantization-robustness target
	// while barely moving the task loss (the gradient only touches
	// layers at or below l_wm and shrinks as the logits saturate).
	lastMargin := math.Inf(-1)
	for s := 0; s < cfg.PolishSteps; s++ {
		_, lastMargin = wmStep()
		if lastMargin > bestMargin {
			bestMargin = lastMargin
			bestSnap = net.SnapshotParams()
		}
		if cfg.MarginTarget > 0 && lastMargin >= cfg.MarginTarget {
			return nil
		}
	}
	// Budgets exhausted: keep the best-margin state seen (training
	// oscillates around the embedding boundary; the last step is not
	// necessarily the best one).
	if bestSnap != nil && bestMargin > lastMargin {
		net.RestoreParams(bestSnap)
	}
	if _, ber := Extract(net, k); ber > 0 {
		return fmt.Errorf("watermark: embedding did not converge: BER %.4g (%d of %d bits wrong) after %d epochs and %d polish steps",
			ber, int(math.Round(ber*float64(k.NbBits()))), k.NbBits(), cfg.Epochs, cfg.PolishSteps)
	}
	return nil
}

// Package core implements ZKROWNN itself: the zero-knowledge watermark
// extraction circuit of Algorithm 1 and the standalone benchmark
// circuits of Table I, together with the setup/prove/verify pipeline
// and its metrics.
//
// The prover convinces any third-party verifier that the (public)
// suspect model M' produces the owner's watermark when queried with the
// owner's trigger keys:
//
//	Public:  model weights up to l_wm, target BER θ, the claim bit.
//	Fixed in the circuit: trigger keys X_key, projection matrix A,
//	         watermark wm and the embedded layer's index.
//
// The key is compiled into the constraint coefficients, so the circuit
// digest, and with it the verifying key, names one key: a proof under a
// registered key's VK is a proof about that key, and a key chosen after
// the model was seen needs its own setup. Groth16's zero knowledge
// covers the witness, not these constants; the README states what that
// leaves a VK holder.
//
// Circuit: zkFeedForward → zkAverage → projection → sign → zkBER,
// assembled from the gadgets package. The paper's zkSigmoid →
// zkHardThresholding at ½ is the sign of the projection: sigmoid is
// monotone with sigmoid(0) = ½, so [sigmoid(z) ≥ ½] = [z ≥ 0] exactly,
// and the circuit checks that sign bit alone.
package core

import (
	"fmt"
	"math/rand"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/frontend"
	"zkrownn/internal/gadgets"
	"zkrownn/internal/nn"
	"zkrownn/internal/r1cs"
	"zkrownn/internal/watermark"
)

// CircuitKey is the fixed-point image of a watermark key, ready to be
// compiled into the extraction circuit as constants.
type CircuitKey struct {
	LayerIndex int
	Triggers   [][]int64
	A          [][]int64
	Signature  []int
}

// QuantizeKey converts a float watermark key with the given format.
func QuantizeKey(k *watermark.Key, p fixpoint.Params) *CircuitKey {
	ck := &CircuitKey{LayerIndex: k.LayerIndex, Signature: append([]int(nil), k.Signature...)}
	for _, t := range k.Triggers {
		ck.Triggers = append(ck.Triggers, p.EncodeSlice(t))
	}
	for _, row := range k.A {
		ck.A = append(ck.A, p.EncodeSlice(row))
	}
	return ck
}

// Artifact is a compiled circuit plus the input assignment recorded at
// build time, ready for the Groth16 pipeline. The compiled system is the
// reusable half (one per architecture and, for extraction circuits, per
// watermark key — cache it, set up keys for it, solve it against many
// assignments); the assignment and eager witness are the build-time
// instance.
type Artifact struct {
	Name   string
	System *r1cs.CompiledSystem
	// Assignment binds the circuit's declared inputs to the values the
	// circuit was built with. Repeat proofs rebind inputs (e.g. suspect
	// weights via BindSuspectInputs) instead of recompiling.
	Assignment r1cs.Assignment
	// Witness is the eager witness the builder computed during
	// compilation — identical to System.Solve(Assignment). Long-lived
	// holders that only re-solve (the proof service) may nil it out to
	// reclaim NbWires×32 bytes per pinned circuit.
	Witness []fr.Element

	// arch pins the layer shapes and fixed-point format the extraction
	// circuit was compiled for, so BindSuspectInputs can enforce full
	// architecture equality. Nil for non-extraction artifacts; a
	// committed one pins only the format (QuantizeSuspects reads it),
	// since its weights are constants no binding reaches.
	arch       []layerShape
	archParams fixpoint.Params
	// slots is the number of suspect-model weight slots a batched
	// extraction circuit embeds (0 or 1 for everything else).
	slots int
}

// Slots returns the number of suspect-model claim slots the circuit
// carries: K for BatchedExtractionCircuit, 1 otherwise. The last
// Slots() public inputs of an extraction instance are the per-slot
// claim bits, in slot order.
func (a *Artifact) Slots() int {
	if a.slots < 1 {
		return 1
	}
	return a.slots
}

// ClaimBits extracts the per-slot ownership verdicts from an extraction
// instance: batched circuits publish their K claim bits as the last K
// public inputs, single circuits as the last one.
func ClaimBits(public []fr.Element, slots int) ([]bool, error) {
	if slots < 1 {
		return nil, fmt.Errorf("core: claim slots must be >= 1, got %d", slots)
	}
	if len(public) < slots {
		return nil, fmt.Errorf("core: instance has %d public inputs, need at least %d claim bits", len(public), slots)
	}
	var one fr.Element
	one.SetOne()
	out := make([]bool, slots)
	for i := range out {
		out[i] = public[len(public)-slots+i].Equal(&one)
	}
	return out, nil
}

// newArtifact wraps a frontend compile result.
func newArtifact(name string, res *frontend.CompileResult) *Artifact {
	return &Artifact{Name: name, System: res.System, Assignment: res.Assignment, Witness: res.Witness}
}

// PublicInputs returns the instance for Verify.
func (a *Artifact) PublicInputs() []fr.Element {
	return a.System.PublicValues(a.Witness)
}

// secretVec declares a vector of private inputs.
func secretVec(c *gadgets.Ctx, vs []int64) []frontend.Variable {
	out := make([]frontend.Variable, len(vs))
	for i, v := range vs {
		out[i] = c.B.SecretInput("", fixpoint.ToField(v))
	}
	return out
}

// constVec declares a vector of circuit constants: no wire, and a
// product with one is a linear combination, not a row.
func constVec(c *gadgets.Ctx, vs []int64) []frontend.Variable {
	out := make([]frontend.Variable, len(vs))
	for i, v := range vs {
		out[i] = c.B.Constant(fixpoint.ToField(v))
	}
	return out
}

// publicVec declares a vector of public inputs.
func publicVec(c *gadgets.Ctx, name string, vs []int64) []frontend.Variable {
	out := make([]frontend.Variable, len(vs))
	for i, v := range vs {
		out[i] = c.B.PublicInput(name, fixpoint.ToField(v))
	}
	return out
}

// publishOutputs exposes circuit outputs as public wires (the Table I
// standalone convention "private inputs, public outputs"). Outputs are
// *computed* publics: the solver program re-derives them per assignment,
// so solve-time callers only supply true inputs.
func publishOutputs(c *gadgets.Ctx, name string, outs []frontend.Variable) {
	for i := range outs {
		c.B.PublicOutput(name, outs[i])
	}
}

// publishChecksum exposes a single public affine checksum Σ ρⁱ·outᵢ of a
// large output matrix, keeping the verifying key small (the paper's
// MatMult/Conv3D rows have sub-KB verifying keys, implying a compact
// public interface).
func publishChecksum(c *gadgets.Ctx, name string, outs []frontend.Variable) {
	var rho, cur fr.Element
	rho.SetUint64(0x9e3779b1) // fixed public mixing constant
	cur.SetOne()
	terms := make([]frontend.Variable, len(outs))
	for i := range outs {
		terms[i] = c.B.MulConst(outs[i], cur)
		cur.Mul(&cur, &rho)
	}
	sum := c.B.Sum(terms...)
	c.B.PublicOutput(name, sum)
}

// randMatrix draws an n×m matrix of small fixed-point values.
func randMatrix(rng *rand.Rand, p fixpoint.Params, n, m int, mag float64) [][]int64 {
	out := make([][]int64, n)
	for i := range out {
		out[i] = make([]int64, m)
		for j := range out[i] {
			out[i][j] = p.Encode(rng.Float64()*2*mag - mag)
		}
	}
	return out
}

// MatMultCircuit builds the Table I MatMult benchmark: private n×n
// matrices, checksum-public product.
func MatMultCircuit(p fixpoint.Params, n int, rng *rand.Rand) (*Artifact, error) {
	c := gadgets.NewCtx(p)
	a := randMatrix(rng, p, n, n, 2)
	b := randMatrix(rng, p, n, n, 2)
	av := make([][]frontend.Variable, n)
	bv := make([][]frontend.Variable, n)
	for i := 0; i < n; i++ {
		av[i] = secretVec(c, a[i])
		bv[i] = secretVec(c, b[i])
	}
	out := c.MatMul(av, bv, true, p.MagBits)
	flat := make([]frontend.Variable, 0, n*n)
	for i := range out {
		flat = append(flat, out[i]...)
	}
	publishChecksum(c, "c_checksum", flat)
	res, err := c.B.Compile()
	if err != nil {
		return nil, err
	}
	return newArtifact(fmt.Sprintf("MatMult-%dx%d", n, n), res), nil
}

// Conv3DCircuit builds the Table I Conv3D benchmark (32×32×3 input, 32
// output channels, 3×3 filters, stride 2 at full scale).
func Conv3DCircuit(p fixpoint.Params, shape gadgets.Conv3DShape, rng *rand.Rand) (*Artifact, error) {
	if err := shape.Validate(); err != nil {
		return nil, err
	}
	c := gadgets.NewCtx(p)
	input := make([][][]frontend.Variable, shape.InC)
	for ch := range input {
		input[ch] = make([][]frontend.Variable, shape.InH)
		for i := range input[ch] {
			row := make([]int64, shape.InW)
			for j := range row {
				row[j] = p.Encode(rng.Float64()*2 - 1)
			}
			input[ch][i] = secretVec(c, row)
		}
	}
	kernels := make([][][][]frontend.Variable, shape.OutC)
	for o := range kernels {
		kernels[o] = make([][][]frontend.Variable, shape.InC)
		for ch := range kernels[o] {
			kernels[o][ch] = make([][]frontend.Variable, shape.K)
			for kh := range kernels[o][ch] {
				row := make([]int64, shape.K)
				for kw := range row {
					row[kw] = p.Encode(rng.Float64()*2 - 1)
				}
				kernels[o][ch][kh] = secretVec(c, row)
			}
		}
	}
	out := c.Conv3D(shape, input, kernels, nil, true, p.MagBits)
	var flat []frontend.Variable
	for o := range out {
		for i := range out[o] {
			flat = append(flat, out[o][i]...)
		}
	}
	publishChecksum(c, "conv_checksum", flat)
	res, err := c.B.Compile()
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("Conv3D-%dx%dx%d-o%d-k%d-s%d", shape.InC, shape.InH, shape.InW, shape.OutC, shape.K, shape.S)
	return newArtifact(name, res), nil
}

// ReLUCircuit builds the Table I ReLU benchmark: length-n private
// vector, public outputs.
func ReLUCircuit(p fixpoint.Params, n int, rng *rand.Rand) (*Artifact, error) {
	c := gadgets.NewCtx(p)
	in := make([]int64, n)
	for i := range in {
		in[i] = p.Encode(rng.Float64()*8 - 4)
	}
	xs := secretVec(c, in)
	outs := c.ReLUVec(xs, p.MagBits)
	publishOutputs(c, "relu_out", outs)
	res, err := c.B.Compile()
	if err != nil {
		return nil, err
	}
	return newArtifact(fmt.Sprintf("ReLU-%d", n), res), nil
}

// Average2DCircuit builds the Table I Average2D benchmark: n×n private
// matrix, public row means.
func Average2DCircuit(p fixpoint.Params, n int, rng *rand.Rand) (*Artifact, error) {
	c := gadgets.NewCtx(p)
	rows := make([][]frontend.Variable, n)
	for i := range rows {
		row := make([]int64, n)
		for j := range row {
			row[j] = p.Encode(rng.Float64()*4 - 2)
		}
		rows[i] = secretVec(c, row)
	}
	outs := c.AverageRows(rows, p.MagBits)
	publishOutputs(c, "avg_out", outs)
	res, err := c.B.Compile()
	if err != nil {
		return nil, err
	}
	return newArtifact(fmt.Sprintf("Average2D-%dx%d", n, n), res), nil
}

// SigmoidCircuit builds the Table I Sigmoid benchmark: length-n private
// vector through the degree-9 Chebyshev polynomial, public outputs.
func SigmoidCircuit(p fixpoint.Params, n int, rng *rand.Rand) (*Artifact, error) {
	c := gadgets.NewCtx(p)
	in := make([]int64, n)
	for i := range in {
		in[i] = p.Encode(rng.Float64()*8 - 4)
	}
	xs := secretVec(c, in)
	outs, err := c.SigmoidVec(xs, p.MagBits)
	if err != nil {
		return nil, err
	}
	publishOutputs(c, "sigmoid_out", outs)
	res, err := c.B.Compile()
	if err != nil {
		return nil, err
	}
	return newArtifact(fmt.Sprintf("Sigmoid-%d", n), res), nil
}

// HardThresholdingCircuit builds the Table I HardThresholding benchmark
// at β = 0.5.
func HardThresholdingCircuit(p fixpoint.Params, n int, rng *rand.Rand) (*Artifact, error) {
	c := gadgets.NewCtx(p)
	in := make([]int64, n)
	for i := range in {
		in[i] = p.Encode(rng.Float64()*2 - 0.5)
	}
	xs := secretVec(c, in)
	outs := c.HardThresholdVec(xs, p.Encode(0.5), p.MagBits)
	publishOutputs(c, "threshold_out", outs)
	res, err := c.B.Compile()
	if err != nil {
		return nil, err
	}
	return newArtifact(fmt.Sprintf("HardThresholding-%d", n), res), nil
}

// BERCircuit builds the Table I BER benchmark: two private n-bit strings
// compared under maxErrors tolerance, public verdict.
func BERCircuit(p fixpoint.Params, n, maxErrors int, rng *rand.Rand) (*Artifact, error) {
	c := gadgets.NewCtx(p)
	a := make([]int64, n)
	b := make([]int64, n)
	for i := range a {
		a[i] = int64(rng.Intn(2))
		b[i] = a[i]
	}
	// Flip a couple of bits so the comparison is non-trivial but within
	// tolerance when maxErrors ≥ 2.
	if n > 3 {
		b[1] ^= 1
		b[3] ^= 1
	}
	av := secretVec(c, a)
	bv := secretVec(c, b)
	// BER asserts booleanity of the first operand; assert the second too
	// since here both are raw private inputs.
	for i := range bv {
		c.B.AssertBoolean(bv[i])
	}
	valid := c.BER(av, bv, maxErrors)
	publishOutputs(c, "ber_valid", []frontend.Variable{valid})
	res, err := c.B.Compile()
	if err != nil {
		return nil, err
	}
	return newArtifact(fmt.Sprintf("BER-%d", n), res), nil
}

// layerVars holds one weight slot's circuit variables for the evaluated
// model prefix: public inputs in the plain extraction circuit, private
// digest-bound wires in the committed variant.
type layerVars struct {
	w    []frontend.Variable
	bias []frontend.Variable
}

// slotPrefix names slot s's weight inputs. Single-slot circuits keep
// the unprefixed "w<li>"/"b<li>" names (layout-compatible with the
// pre-batching circuits); batched slots are "s<slot>.w<li>".
func slotPrefix(slot, nbSlots int) string {
	if nbSlots == 1 {
		return ""
	}
	return fmt.Sprintf("s%d.", slot)
}

// claimName names slot s's public claim output ("claim" when single).
func claimName(slot, nbSlots int) string {
	if nbSlots == 1 {
		return "claim"
	}
	return fmt.Sprintf("claim%d", slot)
}

// declareSlotWeights declares one slot's model weights as named public
// inputs for layers 0..upTo.
func declareSlotWeights(c *gadgets.Ctx, q *nn.QuantizedNetwork, upTo int, prefix string) []layerVars {
	lv := make([]layerVars, upTo+1)
	for li := 0; li <= upTo; li++ {
		l := &q.Layers[li]
		switch l.Kind {
		case "dense", "conv":
			lv[li].w = publicVec(c, fmt.Sprintf("%sw%d", prefix, li), l.W)
			lv[li].bias = publicVec(c, fmt.Sprintf("%sb%d", prefix, li), l.B)
		}
	}
	return lv
}

// forwardPrefix is zkFeedForward: it evaluates layers 0..upTo of the
// model on cur, using the slot's weight variables. A dense or conv layer
// whose next layer, still inside the prefix, is relu proves the pair as
// one step: its accumulators stay unrescaled and RescaleReLU reads the
// rescaled value and its sign off one decomposition. ⌊acc/2^f⌋ ≥ 0
// exactly when acc ≥ 0, so every value is the separate layers' value.
func forwardPrefix(c *gadgets.Ctx, q *nn.QuantizedNetwork, lv []layerVars, cur []frontend.Variable, upTo int) ([]frontend.Variable, error) {
	p := q.Params
	for li := 0; li <= upTo; li++ {
		l := &q.Layers[li]
		fused := (l.Kind == "dense" || l.Kind == "conv") && li < upTo && q.Layers[li+1].Kind == "relu"
		switch l.Kind {
		case "dense":
			if len(cur) != l.In {
				return nil, fmt.Errorf("core: dense layer %d expects %d inputs, got %d", li, l.In, len(cur))
			}
			wRows := make([][]frontend.Variable, l.Out)
			for o := 0; o < l.Out; o++ {
				wRows[o] = lv[li].w[o*l.In : (o+1)*l.In]
			}
			cur = c.Dense(wRows, cur, lv[li].bias, !fused, p.MagBits)
		case "relu":
			cur = c.ReLUVec(cur, p.MagBits)
		case "sigmoid":
			var err error
			if cur, err = c.SigmoidVec(cur, p.MagBits); err != nil {
				return nil, err
			}
		case "conv":
			shape := gadgets.Conv3DShape{
				InC: l.InC, InH: l.InH, InW: l.InW,
				OutC: l.OutC, K: l.K, S: l.S,
			}
			vol := reshapeVolume(cur, l.InC, l.InH, l.InW)
			kv := reshapeKernels(lv[li].w, l.OutC, l.InC, l.K)
			out := c.Conv3D(shape, vol, kv, lv[li].bias, !fused, p.MagBits)
			cur = flattenVolume(out)
		case "maxpool":
			oh := (l.InH-l.K)/l.S + 1
			ow := (l.InW-l.K)/l.S + 1
			vol := reshapeVolume(cur, l.InC, l.InH, l.InW)
			var flat []frontend.Variable
			for ch := 0; ch < l.InC; ch++ {
				pooled := c.MaxPool2D(vol[ch], l.K, l.S, p.MagBits)
				for i := 0; i < oh; i++ {
					flat = append(flat, pooled[i][:ow]...)
				}
			}
			cur = flat
		default:
			return nil, fmt.Errorf("core: unsupported layer kind %q", l.Kind)
		}
		if fused {
			for i := range cur {
				cur[i] = c.RescaleReLU(cur[i], p.FracBits, p.MagBits)
			}
			li++ // the relu is proved
		}
	}
	return cur, nil
}

// sharedKeyVars caches the watermark-key constants shared by every slot
// of a batched extraction circuit: the trigger inputs, projection
// columns, and signature bits are declared once (by the first slot that
// needs them) and reused.
type sharedKeyVars struct {
	trigs  [][]frontend.Variable
	aCols  [][]frontend.Variable
	wmVars []frontend.Variable
}

// extractionSlot runs Algorithm 1's tail for one weight slot:
// zkFeedForward per trigger → zkAverage → projection → sign → zkBER,
// returning the slot's verdict wire. Algorithm 1 thresholds
// sigmoid(zⱼ) at ½; sigmoid is monotone with sigmoid(0) = ½, so that is
// exactly zⱼ ≥ 0, and the slot pays for one sign bit per signature bit
// instead of a rescale, a degree-9 polynomial and a comparison.
//
// The key is constants, so trigger × weight in the first dense or conv
// layer, μ·A and the BER's XOR products fold into linear combinations
// and cost no row. A quantized trigger entry of 0 drops its weight from
// that trigger's row. A weight wire that every trigger zeroes appears in
// no constraint: its QAP polynomials are 0, so its IC point in the VK is
// the identity and the verifier accepts any value in that position. The
// claim bit is unaffected, because no trigger's forward pass reads that
// weight: it is the same for every value the instance could carry.
func extractionSlot(c *gadgets.Ctx, q *nn.QuantizedNetwork, ck *CircuitKey, lv []layerVars, kv *sharedKeyVars, maxErrors int) (frontend.Variable, error) {
	p := q.Params

	// zkFeedForward per trigger, collecting l_wm activations.
	acts := make([][]frontend.Variable, len(ck.Triggers))
	for t, trig := range ck.Triggers {
		if t == len(kv.trigs) {
			kv.trigs = append(kv.trigs, constVec(c, trig))
		}
		cur, err := forwardPrefix(c, q, lv, kv.trigs[t], ck.LayerIndex)
		if err != nil {
			return frontend.Variable{}, err
		}
		acts[t] = cur
	}

	// zkAverage: Gaussian-center estimate across triggers. Each mean is
	// a rescale's bit recomposition, MagBits+1−f terms wide; one Reduce
	// row makes it a wire, so a projection row carries one term a mean,
	// its coefficient the key's A entry, instead of the recomposition
	// scaled by every A entry: one distinct coefficient per bit and entry
	// (15k on the bench circuit, each 32 bytes in the constraint file).
	mu := c.AverageCols(acts, p.MagBits)
	for i := range mu {
		mu[i] = c.B.Reduce(mu[i])
	}

	// Projection by the key's A.
	m := len(mu)
	if len(ck.A) < m {
		return frontend.Variable{}, fmt.Errorf("core: projection has %d rows, activations have %d", len(ck.A), m)
	}
	nbits := len(ck.Signature)
	if kv.aCols == nil {
		kv.aCols = make([][]frontend.Variable, nbits)
		for j := 0; j < nbits; j++ {
			kv.aCols[j] = make([]frontend.Variable, m)
		}
		for i := 0; i < m; i++ {
			rowVars := constVec(c, ck.A[i][:nbits])
			for j := 0; j < nbits; j++ {
				kv.aCols[j][i] = rowVars[j]
			}
		}
	}
	// zkSigmoid + zkHardThresholding at ½, as the sign of the raw
	// projection: sigmoid is monotone with sigmoid(0) = ½, and the
	// rescale is a floor, so [sigmoid(⌊acc/2^f⌋) ≥ ½] = [acc ≥ 0]. The
	// sign check decomposes acc + 2^MagBits into the same MagBits+1 bits
	// the rescale did, so the satisfiable witnesses are the same.
	wmHat := make([]frontend.Variable, nbits)
	for j := 0; j < nbits; j++ {
		wmHat[j] = c.IsNonNegative(c.InnerProduct(mu, kv.aCols[j]), p.MagBits)
	}

	// zkBER against the key's signature. BER's booleanity check on a
	// constant bit is made when the circuit is built.
	if kv.wmVars == nil {
		wmBits := make([]int64, nbits)
		for j, b := range ck.Signature {
			wmBits[j] = int64(b)
		}
		kv.wmVars = constVec(c, wmBits)
	}
	return c.BER(kv.wmVars, wmHat, maxErrors), nil
}

// ExtractionCircuit builds the end-to-end Algorithm 1 circuit for a
// quantized model and key: public model weights (layers 0..l_wm), the
// trigger keys / projection / watermark compiled in as constants, and a
// public claim bit that the circuit constrains to the zkBER verdict.
//
// maxErrors is the public BER tolerance θ·N. The returned artifact's
// final public input carries the verdict (1 for a valid ownership
// claim), so a verifier checks the proof against claim = 1.
func ExtractionCircuit(q *nn.QuantizedNetwork, ck *CircuitKey, maxErrors int) (*Artifact, error) {
	return BatchedExtractionCircuit(q, ck, maxErrors, 1)
}

// BatchedExtractionCircuit builds Algorithm 1 with K independent
// suspect-model weight slots sharing one watermark key: one
// circuit (and therefore one trusted setup and one Groth16 proof)
// attests ownership claims against a whole batch of suspects. Every
// slot carries its own public weight inputs ("s<slot>.w<li>" /
// "s<slot>.b<li>"), evaluated against the shared triggers, projection,
// and signature; the last K public inputs are the per-slot
// claim bits, in slot order (ClaimBits decodes them).
//
// All slots are initially bound to q's weights; BindSuspectSlots
// rebinds individual slots to same-architecture suspect models without
// recompiling. k = 1 degenerates to exactly ExtractionCircuit (same
// wire layout, names, and digest).
func BatchedExtractionCircuit(q *nn.QuantizedNetwork, ck *CircuitKey, maxErrors, k int) (*Artifact, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: batched extraction needs at least one slot, got %d", k)
	}
	if len(ck.Triggers) == 0 {
		return nil, fmt.Errorf("core: no triggers in circuit key")
	}
	if ck.LayerIndex >= len(q.Layers) {
		return nil, fmt.Errorf("core: layer index %d out of range", ck.LayerIndex)
	}
	c := gadgets.NewCtx(q.Params)

	kv := &sharedKeyVars{}
	claims := make([]frontend.Variable, k)
	for s := 0; s < k; s++ {
		lv := declareSlotWeights(c, q, ck.LayerIndex, slotPrefix(s, k))
		valid, err := extractionSlot(c, q, ck, lv, kv, maxErrors)
		if err != nil {
			return nil, err
		}
		claims[s] = valid
	}

	// Public claims: check ∧ valid_BER per slot (check is the constant 1
	// of Algorithm 1; the conjunction is simply the verdict wire). The
	// claims are computed public outputs — the solver derives them per
	// assignment — published together so they sit at the tail of the
	// instance in slot order.
	for s := 0; s < k; s++ {
		c.B.PublicOutput(claimName(s, k), claims[s])
	}

	res, err := c.B.Compile()
	if err != nil {
		return nil, err
	}
	name := "WatermarkExtraction"
	if k > 1 {
		name = fmt.Sprintf("BatchedExtraction-x%d", k)
	}
	art := newArtifact(name, res)
	art.arch = archShapes(q, ck.LayerIndex)
	art.archParams = q.Params
	art.slots = k
	return art, nil
}

// reshapeVolume views a flat activation as [c][h][w].
func reshapeVolume(flat []frontend.Variable, ch, h, w int) [][][]frontend.Variable {
	out := make([][][]frontend.Variable, ch)
	for cIdx := 0; cIdx < ch; cIdx++ {
		out[cIdx] = make([][]frontend.Variable, h)
		for i := 0; i < h; i++ {
			start := (cIdx*h + i) * w
			out[cIdx][i] = flat[start : start+w]
		}
	}
	return out
}

// flattenVolume is the inverse of reshapeVolume.
func flattenVolume(vol [][][]frontend.Variable) []frontend.Variable {
	var out []frontend.Variable
	for _, plane := range vol {
		for _, row := range plane {
			out = append(out, row...)
		}
	}
	return out
}

// reshapeKernels views flat conv weights as [o][c][kh][kw].
func reshapeKernels(flat []frontend.Variable, outC, inC, k int) [][][][]frontend.Variable {
	out := make([][][][]frontend.Variable, outC)
	for o := 0; o < outC; o++ {
		out[o] = make([][][]frontend.Variable, inC)
		for ch := 0; ch < inC; ch++ {
			out[o][ch] = make([][]frontend.Variable, k)
			for kh := 0; kh < k; kh++ {
				start := ((o*inC+ch)*k + kh) * k
				out[o][ch][kh] = flat[start : start+k]
			}
		}
	}
	return out
}

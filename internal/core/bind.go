package core

import (
	"fmt"
	"strconv"
	"strings"

	"zkrownn/internal/bn254/fr"
	"zkrownn/internal/fixpoint"
	"zkrownn/internal/nn"
	"zkrownn/internal/r1cs"
)

// Suspect-model input rebinding.
//
// The non-committed extraction circuit exposes the suspect model's
// weights as *public inputs* named "w<layer>" / "b<layer>". The circuit
// depends on the architecture (shapes and layer kinds) and the watermark
// key, not on the weight values — so proving the same registered key
// against a different suspect model of the same architecture does not
// need a recompile: the
// compiled system is reused and only the weight slots of the input
// assignment are rewritten. This is the solve-many path the proof
// service's prove queue runs on.

// layerShape is the weight-free image of one quantized layer: enough to
// decide circuit-shape equality without retaining the weights
// themselves. Artifacts pin the shapes of the model they were compiled
// for, so suspect rebinding can enforce full architecture equality even
// when the registered network is long gone.
type layerShape struct {
	Kind                      string
	In, Out                   int
	InC, InH, InW, OutC, K, S int
	NbW, NbB                  int
}

func layerShapeOf(l *nn.QuantizedLayer) layerShape {
	return layerShape{
		Kind: l.Kind,
		In:   l.In, Out: l.Out,
		InC: l.InC, InH: l.InH, InW: l.InW,
		OutC: l.OutC, K: l.K, S: l.S,
		NbW: len(l.W), NbB: len(l.B),
	}
}

// archShapes captures the compile-time architecture of an extraction
// circuit (layers 0..upTo plus the fixed-point format).
func archShapes(q *nn.QuantizedNetwork, upTo int) []layerShape {
	out := make([]layerShape, upTo+1)
	for li := 0; li <= upTo; li++ {
		out[li] = layerShapeOf(&q.Layers[li])
	}
	return out
}

func sameLayerShape(want layerShape, got *nn.QuantizedLayer, li int) error {
	switch {
	case want.Kind != got.Kind:
		return fmt.Errorf("core: architecture mismatch: layer %d kind %q vs %q", li, want.Kind, got.Kind)
	case want.In != got.In || want.Out != got.Out:
		return fmt.Errorf("core: architecture mismatch: layer %d dense shape %dx%d vs %dx%d", li, want.In, want.Out, got.In, got.Out)
	case want.InC != got.InC || want.InH != got.InH || want.InW != got.InW ||
		want.OutC != got.OutC || want.K != got.K || want.S != got.S:
		return fmt.Errorf("core: architecture mismatch: layer %d conv/pool shape differs", li)
	case want.NbW != len(got.W) || want.NbB != len(got.B):
		return fmt.Errorf("core: architecture mismatch: layer %d has %d/%d weights, suspect has %d/%d", li, want.NbW, want.NbB, len(got.W), len(got.B))
	}
	return nil
}

// BindSuspectInputs rebinds a compiled extraction circuit's public
// weight inputs ("w<i>"/"b<i>") to a suspect model's quantized weights;
// the key is constants in the circuit and no binding reaches it. The
// returned assignment drives CompiledSystem.Solve — no circuit
// recompilation. On a batched circuit the same suspect is bound into
// every slot; use BindSuspectSlots to bind different suspects per slot.
//
// The artifact must come from ExtractionCircuit (committed circuits bake
// the model into constraint coefficients and cannot be rebound; they
// report an error here because their public inputs carry no weight
// names). The suspect must match the architecture the artifact was
// compiled for: the artifact pins the compile-time layer shapes and
// fixed-point format, and any mismatch — layer kind, dimensions, or
// quantization — is rejected before binding. Matching flat weight
// counts are NOT enough: a 4×3 dense layer and a 6×2 one both carry 12
// weights but compile to different circuits.
func BindSuspectInputs(art *Artifact, suspect *nn.QuantizedNetwork) (r1cs.Assignment, error) {
	suspects := make([]*nn.QuantizedNetwork, art.Slots())
	for i := range suspects {
		suspects[i] = suspect
	}
	return BindSuspectSlots(art, suspects)
}

// QuantizeSuspects quantizes suspect models in the fixed-point format
// the artifact was compiled for, ready for BindSuspectSlots. A nil entry
// stays nil: the compiled-in model keeps that slot.
func QuantizeSuspects(art *Artifact, nets []*nn.Network) ([]*nn.QuantizedNetwork, error) {
	qs := make([]*nn.QuantizedNetwork, len(nets))
	for i, net := range nets {
		if net == nil {
			continue
		}
		q, err := nn.Quantize(net, art.archParams)
		if err != nil {
			return nil, fmt.Errorf("suspect slot %d: %w", i, err)
		}
		qs[i] = q
	}
	return qs, nil
}

// checkSuspectArch rejects a suspect whose architecture or fixed-point
// format differs from the one the artifact was compiled for.
func checkSuspectArch(art *Artifact, suspect *nn.QuantizedNetwork) error {
	if art.arch == nil {
		return nil
	}
	if suspect.Params != art.archParams {
		return fmt.Errorf("core: architecture mismatch: circuit compiled for fixed-point %+v, suspect quantized with %+v", art.archParams, suspect.Params)
	}
	if len(suspect.Layers) <= len(art.arch)-1 {
		return fmt.Errorf("core: architecture mismatch: circuit evaluates %d layers, suspect has %d", len(art.arch), len(suspect.Layers))
	}
	for li, want := range art.arch {
		if err := sameLayerShape(want, &suspect.Layers[li], li); err != nil {
			return err
		}
	}
	return nil
}

// splitSlotName resolves a public-input name to its batch slot and base
// weight name: "s2.w0" → (2, "w0"); unprefixed names ("w0", and every
// non-weight name) belong to slot 0.
func splitSlotName(name string) (slot int, base string) {
	if len(name) > 1 && name[0] == 's' {
		if dot := strings.IndexByte(name, '.'); dot > 1 {
			if n, err := strconv.Atoi(name[1:dot]); err == nil && n >= 0 {
				return n, name[dot+1:]
			}
		}
	}
	return 0, name
}

// BindSuspectSlots rebinds a batched extraction circuit's per-slot
// weight inputs to one suspect model per slot: suspects[s] replaces
// slot s's weights, a nil entry keeps the weights the circuit was
// compiled with (the registered model). len(suspects) must equal
// art.Slots(), and at least one entry must be non-nil. Every bound
// suspect must match the compile-time architecture exactly; any
// mismatch — layer kind, dimensions, quantization format, or weight
// count — is rejected before anything is bound.
func BindSuspectSlots(art *Artifact, suspects []*nn.QuantizedNetwork) (r1cs.Assignment, error) {
	if len(suspects) != art.Slots() {
		return r1cs.Assignment{}, fmt.Errorf("core: circuit has %d suspect slots, got %d models", art.Slots(), len(suspects))
	}
	any := false
	for s, suspect := range suspects {
		if suspect == nil {
			continue
		}
		any = true
		if err := checkSuspectArch(art, suspect); err != nil {
			return r1cs.Assignment{}, fmt.Errorf("slot %d: %w", s, err)
		}
	}
	if !any {
		return r1cs.Assignment{}, fmt.Errorf("core: no suspect models to bind (every slot is nil)")
	}
	asg := r1cs.Assignment{
		Public: append([]fr.Element(nil), art.Assignment.Public...),
		Secret: art.Assignment.Secret, // immutable, shared
	}
	bound := false
	// Per-name cursors: inputs declared under one name form an ordered
	// vector ("s1.w0" is slot 1, layer 0's flat weights in declaration
	// order).
	cursors := make(map[string]int)
	slotOf := make(map[string]*nn.QuantizedNetwork)
	for i, name := range art.System.PubInputNames {
		slot, base := splitSlotName(name)
		if slot >= len(suspects) {
			return r1cs.Assignment{}, fmt.Errorf("core: weight input %q names slot %d, circuit has %d", name, slot, art.Slots())
		}
		suspect := suspects[slot]
		if suspect == nil {
			continue // keep the registered weights in this slot
		}
		vec, ok, err := suspectVector(suspect, base)
		if err != nil {
			return r1cs.Assignment{}, err
		}
		if !ok {
			continue // not a weight input; keep the registered value
		}
		j := cursors[name]
		if j >= len(vec) {
			return r1cs.Assignment{}, fmt.Errorf("core: circuit declares more %q inputs than the suspect model has", name)
		}
		asg.Public[i] = fixpoint.ToField(vec[j])
		cursors[name] = j + 1
		slotOf[name] = suspect
		bound = true
	}
	for name, used := range cursors {
		_, base := splitSlotName(name)
		vec, _, _ := suspectVector(slotOf[name], base)
		if used != len(vec) {
			return r1cs.Assignment{}, fmt.Errorf("core: circuit binds %d of the suspect's %d %q weights: architecture mismatch", used, len(vec), name)
		}
	}
	if !bound {
		return r1cs.Assignment{}, fmt.Errorf("core: circuit has no weight inputs to rebind (committed circuits are fixed to their registered model)")
	}
	return asg, nil
}

// suspectVector resolves a public-input name of the form "w<i>"/"b<i>"
// to the corresponding quantized weight vector. ok is false for names
// that are not weight inputs (e.g. other circuits' output names).
func suspectVector(q *nn.QuantizedNetwork, name string) (vec []int64, ok bool, err error) {
	if len(name) < 2 || (name[0] != 'w' && name[0] != 'b') {
		return nil, false, nil
	}
	li, perr := strconv.Atoi(name[1:])
	if perr != nil {
		return nil, false, nil
	}
	if li < 0 || li >= len(q.Layers) {
		return nil, false, fmt.Errorf("core: weight input %q names layer %d, suspect has %d layers", name, li, len(q.Layers))
	}
	if name[0] == 'w' {
		return q.Layers[li].W, true, nil
	}
	return q.Layers[li].B, true, nil
}

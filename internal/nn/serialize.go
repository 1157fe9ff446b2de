package nn

import (
	"encoding/json"
	"fmt"
	"io"
)

// jsonLayer is the on-disk form of one layer.
type jsonLayer struct {
	Kind string    `json:"kind"`
	In   int       `json:"in,omitempty"`
	Out  int       `json:"out,omitempty"`
	InC  int       `json:"in_c,omitempty"`
	InH  int       `json:"in_h,omitempty"`
	InW  int       `json:"in_w,omitempty"`
	OutC int       `json:"out_c,omitempty"`
	K    int       `json:"k,omitempty"`
	S    int       `json:"s,omitempty"`
	Size int       `json:"size,omitempty"`
	W    []float64 `json:"w,omitempty"`
	B    []float64 `json:"b,omitempty"`
}

// jsonNetwork is the on-disk form of a network.
type jsonNetwork struct {
	Format int         `json:"format"`
	Layers []jsonLayer `json:"layers"`
}

// Save serializes the network as JSON.
func (n *Network) Save(w io.Writer) error {
	jn := jsonNetwork{Format: 1}
	for _, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			jn.Layers = append(jn.Layers, jsonLayer{
				Kind: "dense", In: layer.In, Out: layer.Out, W: layer.W, B: layer.B,
			})
		case *ReLULayer:
			jn.Layers = append(jn.Layers, jsonLayer{Kind: "relu", Size: layer.size})
		case *SigmoidLayer:
			jn.Layers = append(jn.Layers, jsonLayer{Kind: "sigmoid", Size: layer.size})
		case *Conv2D:
			jn.Layers = append(jn.Layers, jsonLayer{
				Kind: "conv",
				InC:  layer.InC, InH: layer.InH, InW: layer.InW,
				OutC: layer.OutC, K: layer.K, S: layer.S,
				W: layer.W, B: layer.B,
			})
		case *MaxPool2D:
			jn.Layers = append(jn.Layers, jsonLayer{
				Kind: "maxpool",
				InC:  layer.C, InH: layer.H, InW: layer.W2(),
				K: layer.K, S: layer.S,
			})
		default:
			return fmt.Errorf("nn: cannot serialize layer %T", l)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(jn)
}

// W2 returns the input width of a pooling layer (the W field name
// collides with the weights field in jsonLayer).
func (m *MaxPool2D) W2() int { return m.W }

// maxElems bounds every dimension and every flattened size a saved
// model declares: far above the paper's models (the CIFAR-10 CNN's
// widest activation holds 7,200 values, its widest weight matrix 1.6M),
// and low enough that no product of declared shapes overflows an int.
const maxElems = 1 << 24

// elems multiplies declared dimensions, each of which must be positive;
// ok is false when one is not, or when the product exceeds maxElems.
func elems(dims ...int) (n int, ok bool) {
	n = 1
	for _, d := range dims {
		if d < 1 || d > maxElems {
			return 0, false
		}
		if n *= d; n > maxElems {
			return 0, false
		}
	}
	return n, true
}

// shape checks one decoded layer — positive dimensions within maxElems,
// weights of the declared shape, a window that fits its input — and
// returns its flattened input and output sizes.
func (jl *jsonLayer) shape() (in, out int, err error) {
	bad := func(what string) (int, int, error) {
		return 0, 0, fmt.Errorf("%s layer has %s", jl.Kind, what)
	}
	switch jl.Kind {
	case "dense":
		w, ok := elems(jl.In, jl.Out)
		switch {
		case !ok:
			return bad("a dimension out of range")
		case len(jl.W) != w || len(jl.B) != jl.Out:
			return bad("inconsistent shapes")
		}
		return jl.In, jl.Out, nil
	case "relu", "sigmoid":
		n, ok := elems(jl.Size)
		if !ok {
			return bad("a size out of range")
		}
		return n, n, nil
	case "conv", "maxpool":
		in, ok := elems(jl.InC, jl.InH, jl.InW)
		if !ok || jl.K < 1 || jl.K > jl.InH || jl.K > jl.InW || jl.S < 1 {
			return bad("a dimension out of range")
		}
		outC := jl.InC
		if jl.Kind == "conv" {
			w, ok := elems(jl.OutC, jl.InC, jl.K, jl.K)
			switch {
			case !ok:
				return bad("a dimension out of range")
			case len(jl.W) != w || len(jl.B) != jl.OutC:
				return bad("inconsistent shapes")
			}
			outC = jl.OutC
		}
		out, ok := elems(outC, (jl.InH-jl.K)/jl.S+1, (jl.InW-jl.K)/jl.S+1)
		if !ok {
			return bad("an output out of range")
		}
		return in, out, nil
	}
	return 0, 0, fmt.Errorf("unknown layer kind %q", jl.Kind)
}

// Load deserializes a network saved by Save. The model may come from
// outside the program (the proof service decodes request bodies with
// it), so every layer's shape is checked before anything is sized from
// it, and each layer must take what the one before it gives.
func Load(r io.Reader) (*Network, error) {
	var jn jsonNetwork
	dec := json.NewDecoder(r)
	if err := dec.Decode(&jn); err != nil {
		return nil, fmt.Errorf("nn: decode network: %w", err)
	}
	if jn.Format != 1 {
		return nil, fmt.Errorf("nn: unsupported network format %d", jn.Format)
	}
	if len(jn.Layers) == 0 {
		return nil, fmt.Errorf("nn: network has no layers")
	}
	net := &Network{}
	prev := 0
	for i, jl := range jn.Layers {
		in, out, err := jl.shape()
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		if i > 0 && in != prev {
			return nil, fmt.Errorf("nn: layer %d takes %d inputs, layer %d gives %d", i, in, i-1, prev)
		}
		prev = out
		switch jl.Kind {
		case "dense":
			net.Layers = append(net.Layers, &Dense{
				In: jl.In, Out: jl.Out,
				W:  jl.W,
				B:  jl.B,
				gw: make([]float64, len(jl.W)),
				gb: make([]float64, len(jl.B)),
			})
		case "relu":
			net.Layers = append(net.Layers, NewReLU(jl.Size))
		case "sigmoid":
			net.Layers = append(net.Layers, NewSigmoid(jl.Size))
		case "conv":
			net.Layers = append(net.Layers, &Conv2D{
				InC: jl.InC, InH: jl.InH, InW: jl.InW,
				OutC: jl.OutC, K: jl.K, S: jl.S,
				W:  jl.W,
				B:  jl.B,
				gw: make([]float64, len(jl.W)),
				gb: make([]float64, len(jl.B)),
			})
		case "maxpool":
			net.Layers = append(net.Layers, NewMaxPool2D(jl.InC, jl.InH, jl.InW, jl.K, jl.S))
		}
	}
	return net, nil
}

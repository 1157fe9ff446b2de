package nn

import (
	"fmt"

	"zkrownn/internal/fixpoint"
)

// QuantizedLayer is the fixed-point image of a float layer: the exact
// integer weights the zkSNARK circuit sees and the exact arithmetic it
// performs (raw inner products at 2f fraction bits, bias aligned by
// shifting, one floor-rescale per output — matching gadgets.Dense and
// gadgets.Conv3D term for term).
type QuantizedLayer struct {
	Kind string // "dense", "relu", "conv", "maxpool", "sigmoid"

	// Dense fields.
	In, Out int
	W       []int64 // Out × In (dense) or OutC × InC × K × K (conv)
	B       []int64

	// Conv fields.
	InC, InH, InW int
	OutC, K, S    int

	// Pool fields reuse InC/InH/InW plus K, S.
}

// QuantizedNetwork is a fixed-point network ready for both plain
// inference and circuit construction.
type QuantizedNetwork struct {
	Params fixpoint.Params
	Layers []QuantizedLayer
}

// Quantize converts a float network into its fixed-point image.
func Quantize(n *Network, p fixpoint.Params) (*QuantizedNetwork, error) {
	q := &QuantizedNetwork{Params: p}
	for _, l := range n.Layers {
		switch layer := l.(type) {
		case *Dense:
			q.Layers = append(q.Layers, QuantizedLayer{
				Kind: "dense",
				In:   layer.In, Out: layer.Out,
				W: p.EncodeSlice(layer.W),
				B: p.EncodeSlice(layer.B),
			})
		case *ReLULayer:
			q.Layers = append(q.Layers, QuantizedLayer{Kind: "relu", Out: layer.size})
		case *SigmoidLayer:
			q.Layers = append(q.Layers, QuantizedLayer{Kind: "sigmoid", Out: layer.size})
		case *Conv2D:
			q.Layers = append(q.Layers, QuantizedLayer{
				Kind: "conv",
				InC:  layer.InC, InH: layer.InH, InW: layer.InW,
				OutC: layer.OutC, K: layer.K, S: layer.S,
				W: p.EncodeSlice(layer.W),
				B: p.EncodeSlice(layer.B),
			})
		case *MaxPool2D:
			q.Layers = append(q.Layers, QuantizedLayer{
				Kind: "maxpool",
				InC:  layer.C, InH: layer.H, InW: layer.W,
				K: layer.K, S: layer.S,
			})
		default:
			return nil, fmt.Errorf("nn: cannot quantize layer %T", l)
		}
	}
	return q, nil
}

// ForwardUpTo runs the fixed-point forward pass through layers
// [0, upTo] inclusive, returning the scaled-integer activation. This is
// the reference implementation the zkSNARK extraction circuit must
// reproduce bit for bit.
func (q *QuantizedNetwork) ForwardUpTo(x []int64, upTo int) ([]int64, error) {
	cur := x
	for i := 0; i <= upTo && i < len(q.Layers); i++ {
		var err error
		cur, err = q.forwardLayer(&q.Layers[i], cur)
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
	}
	return cur, nil
}

// Forward runs the whole quantized network.
func (q *QuantizedNetwork) Forward(x []int64) ([]int64, error) {
	return q.ForwardUpTo(x, len(q.Layers)-1)
}

func (q *QuantizedNetwork) forwardLayer(l *QuantizedLayer, x []int64) ([]int64, error) {
	p := q.Params
	switch l.Kind {
	case "dense":
		if len(x) != l.In {
			return nil, fmt.Errorf("dense expects %d inputs, got %d", l.In, len(x))
		}
		out := make([]int64, l.Out)
		for o := 0; o < l.Out; o++ {
			var acc int64
			row := l.W[o*l.In : (o+1)*l.In]
			for i, xi := range x {
				acc += row[i] * xi
			}
			acc += l.B[o] << uint(p.FracBits)
			out[o] = p.Rescale(acc)
		}
		return out, nil
	case "relu":
		out := make([]int64, len(x))
		for i, v := range x {
			out[i] = fixpoint.ReLU(v)
		}
		return out, nil
	case "sigmoid":
		if err := p.CheckSigmoid(); err != nil {
			return nil, err
		}
		out := make([]int64, len(x))
		for i, v := range x {
			out[i] = p.SigmoidPoly(v)
		}
		return out, nil
	case "conv":
		if len(x) != l.InC*l.InH*l.InW {
			return nil, fmt.Errorf("conv expects %d inputs, got %d", l.InC*l.InH*l.InW, len(x))
		}
		oh := (l.InH-l.K)/l.S + 1
		ow := (l.InW-l.K)/l.S + 1
		out := make([]int64, l.OutC*oh*ow)
		for o := 0; o < l.OutC; o++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					var acc int64
					for ch := 0; ch < l.InC; ch++ {
						for kh := 0; kh < l.K; kh++ {
							for kw := 0; kw < l.K; kw++ {
								wv := l.W[((o*l.InC+ch)*l.K+kh)*l.K+kw]
								xv := x[(ch*l.InH+i*l.S+kh)*l.InW+j*l.S+kw]
								acc += wv * xv
							}
						}
					}
					acc += l.B[o] << uint(p.FracBits)
					out[(o*oh+i)*ow+j] = p.Rescale(acc)
				}
			}
		}
		return out, nil
	case "maxpool":
		oh := (l.InH-l.K)/l.S + 1
		ow := (l.InW-l.K)/l.S + 1
		out := make([]int64, l.InC*oh*ow)
		for ch := 0; ch < l.InC; ch++ {
			for i := 0; i < oh; i++ {
				for j := 0; j < ow; j++ {
					best := x[(ch*l.InH+i*l.S)*l.InW+j*l.S]
					for di := 0; di < l.K; di++ {
						for dj := 0; dj < l.K; dj++ {
							v := x[(ch*l.InH+i*l.S+di)*l.InW+j*l.S+dj]
							if v > best {
								best = v
							}
						}
					}
					out[(ch*oh+i)*ow+j] = best
				}
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("unknown quantized layer kind %q", l.Kind)
	}
}

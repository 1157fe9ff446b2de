// Package nn is the neural-network substrate of the reproduction: dense
// and convolutional layers with full backpropagation for training and
// DeepSigns watermark embedding, plus a fixed-point inference path that
// is bit-identical to the zkSNARK gadgets so that in-circuit watermark
// extraction reproduces plain extraction exactly.
//
// The package is deliberately small-tensor oriented (flat float64
// slices, explicit shapes) — models here are the paper's Table II
// benchmarks, not production-scale networks.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Layer is one differentiable stage of a feed-forward network.
// Forward caches whatever Backward needs; layers are therefore stateful
// and must be used by one goroutine at a time.
type Layer interface {
	// Forward computes the layer output for a single sample.
	Forward(x []float64) []float64
	// Backward consumes ∂L/∂out and returns ∂L/∂in, accumulating
	// parameter gradients internally.
	Backward(grad []float64) []float64
	// Params returns parameter slices (aliased, for the optimizer).
	Params() [][]float64
	// Grads returns gradient slices parallel to Params.
	Grads() [][]float64
	// OutputSize returns the flattened output length.
	OutputSize() int
	// Name identifies the layer type for diagnostics.
	Name() string
}

// Dense is a fully connected layer: out = W·x + b.
type Dense struct {
	In, Out int
	W       []float64 // Out × In, row-major
	B       []float64
	gw      []float64
	gb      []float64
	lastX   []float64
}

// NewDense returns a dense layer with He-initialised weights drawn from
// rng.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In: in, Out: out,
		W:  make([]float64, in*out),
		B:  make([]float64, out),
		gw: make([]float64, in*out),
		gb: make([]float64, out),
	}
	std := math.Sqrt(2.0 / float64(in))
	for i := range d.W {
		d.W[i] = rng.NormFloat64() * std
	}
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x []float64) []float64 {
	if len(x) != d.In {
		panic(fmt.Sprintf("nn: dense expects %d inputs, got %d", d.In, len(x)))
	}
	d.lastX = append(d.lastX[:0], x...)
	out := make([]float64, d.Out)
	for o := 0; o < d.Out; o++ {
		acc := d.B[o]
		row := d.W[o*d.In : (o+1)*d.In]
		for i, xi := range x {
			acc += row[i] * xi
		}
		out[o] = acc
	}
	return out
}

// Backward implements Layer.
func (d *Dense) Backward(grad []float64) []float64 {
	in := make([]float64, d.In)
	for o := 0; o < d.Out; o++ {
		g := grad[o]
		d.gb[o] += g
		row := d.W[o*d.In : (o+1)*d.In]
		grow := d.gw[o*d.In : (o+1)*d.In]
		for i := 0; i < d.In; i++ {
			grow[i] += g * d.lastX[i]
			in[i] += g * row[i]
		}
	}
	return in
}

// Params implements Layer.
func (d *Dense) Params() [][]float64 { return [][]float64{d.W, d.B} }

// Grads implements Layer.
func (d *Dense) Grads() [][]float64 { return [][]float64{d.gw, d.gb} }

// OutputSize implements Layer.
func (d *Dense) OutputSize() int { return d.Out }

// Name implements Layer.
func (d *Dense) Name() string { return fmt.Sprintf("FC(%d)", d.Out) }

// ReLULayer applies max(0, x) element-wise.
type ReLULayer struct {
	size int
	mask []bool
}

// NewReLU returns a ReLU over size elements. Its backward mask is sized
// by the first Forward, so a declared size allocates nothing.
func NewReLU(size int) *ReLULayer { return &ReLULayer{size: size} }

// Forward implements Layer.
func (r *ReLULayer) Forward(x []float64) []float64 {
	if len(r.mask) != len(x) {
		r.mask = make([]bool, len(x))
	}
	out := make([]float64, len(x))
	for i, v := range x {
		if v > 0 {
			out[i] = v
			r.mask[i] = true
		} else {
			r.mask[i] = false
		}
	}
	return out
}

// Backward implements Layer.
func (r *ReLULayer) Backward(grad []float64) []float64 {
	in := make([]float64, len(grad))
	for i, g := range grad {
		if r.mask[i] {
			in[i] = g
		}
	}
	return in
}

// Params implements Layer.
func (r *ReLULayer) Params() [][]float64 { return nil }

// Grads implements Layer.
func (r *ReLULayer) Grads() [][]float64 { return nil }

// OutputSize implements Layer.
func (r *ReLULayer) OutputSize() int { return r.size }

// Name implements Layer.
func (r *ReLULayer) Name() string { return "ReLU" }

// SigmoidLayer applies the logistic function element-wise (the paper
// supports sigmoid activations as an alternative to ReLU).
type SigmoidLayer struct {
	size    int
	lastOut []float64
}

// NewSigmoid returns a sigmoid activation over size elements.
func NewSigmoid(size int) *SigmoidLayer { return &SigmoidLayer{size: size} }

// Forward implements Layer.
func (s *SigmoidLayer) Forward(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = 1.0 / (1.0 + math.Exp(-v))
	}
	s.lastOut = out
	return out
}

// Backward implements Layer.
func (s *SigmoidLayer) Backward(grad []float64) []float64 {
	in := make([]float64, len(grad))
	for i, g := range grad {
		o := s.lastOut[i]
		in[i] = g * o * (1 - o)
	}
	return in
}

// Params implements Layer.
func (s *SigmoidLayer) Params() [][]float64 { return nil }

// Grads implements Layer.
func (s *SigmoidLayer) Grads() [][]float64 { return nil }

// OutputSize implements Layer.
func (s *SigmoidLayer) OutputSize() int { return s.size }

// Name implements Layer.
func (s *SigmoidLayer) Name() string { return "Sigmoid" }

// Conv2D convolves a C×H×W input volume with OutC kernels of size
// C×K×K at stride S (no padding) — the paper's "Conv3D" operation on
// 3-D input volumes.
type Conv2D struct {
	InC, InH, InW int
	OutC, K, S    int
	W             []float64 // OutC × InC × K × K
	B             []float64
	gw            []float64
	gb            []float64
	lastX         []float64
}

// NewConv2D returns a He-initialised convolution layer.
func NewConv2D(inC, inH, inW, outC, k, s int, rng *rand.Rand) *Conv2D {
	c := &Conv2D{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, K: k, S: s,
		W:  make([]float64, outC*inC*k*k),
		B:  make([]float64, outC),
		gw: make([]float64, outC*inC*k*k),
		gb: make([]float64, outC),
	}
	std := math.Sqrt(2.0 / float64(inC*k*k))
	for i := range c.W {
		c.W[i] = rng.NormFloat64() * std
	}
	return c
}

// OutH returns the output height.
func (c *Conv2D) OutH() int { return (c.InH-c.K)/c.S + 1 }

// OutW returns the output width.
func (c *Conv2D) OutW() int { return (c.InW-c.K)/c.S + 1 }

// wIdx indexes the flat kernel tensor.
func (c *Conv2D) wIdx(o, ch, kh, kw int) int {
	return ((o*c.InC+ch)*c.K+kh)*c.K + kw
}

// xIdx indexes the flat input volume.
func (c *Conv2D) xIdx(ch, h, w int) int { return (ch*c.InH+h)*c.InW + w }

// Forward implements Layer.
func (c *Conv2D) Forward(x []float64) []float64 {
	if len(x) != c.InC*c.InH*c.InW {
		panic(fmt.Sprintf("nn: conv expects %d inputs, got %d", c.InC*c.InH*c.InW, len(x)))
	}
	c.lastX = append(c.lastX[:0], x...)
	oh, ow := c.OutH(), c.OutW()
	out := make([]float64, c.OutC*oh*ow)
	for o := 0; o < c.OutC; o++ {
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				acc := c.B[o]
				for ch := 0; ch < c.InC; ch++ {
					for kh := 0; kh < c.K; kh++ {
						for kw := 0; kw < c.K; kw++ {
							acc += c.W[c.wIdx(o, ch, kh, kw)] * x[c.xIdx(ch, i*c.S+kh, j*c.S+kw)]
						}
					}
				}
				out[(o*oh+i)*ow+j] = acc
			}
		}
	}
	return out
}

// Backward implements Layer.
func (c *Conv2D) Backward(grad []float64) []float64 {
	oh, ow := c.OutH(), c.OutW()
	in := make([]float64, len(c.lastX))
	for o := 0; o < c.OutC; o++ {
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				g := grad[(o*oh+i)*ow+j]
				c.gb[o] += g
				for ch := 0; ch < c.InC; ch++ {
					for kh := 0; kh < c.K; kh++ {
						for kw := 0; kw < c.K; kw++ {
							xi := c.xIdx(ch, i*c.S+kh, j*c.S+kw)
							c.gw[c.wIdx(o, ch, kh, kw)] += g * c.lastX[xi]
							in[xi] += g * c.W[c.wIdx(o, ch, kh, kw)]
						}
					}
				}
			}
		}
	}
	return in
}

// Params implements Layer.
func (c *Conv2D) Params() [][]float64 { return [][]float64{c.W, c.B} }

// Grads implements Layer.
func (c *Conv2D) Grads() [][]float64 { return [][]float64{c.gw, c.gb} }

// OutputSize implements Layer.
func (c *Conv2D) OutputSize() int { return c.OutC * c.OutH() * c.OutW() }

// Name implements Layer.
func (c *Conv2D) Name() string { return fmt.Sprintf("C(%d,%d,%d)", c.OutC, c.K, c.S) }

// MaxPool2D applies per-channel K×K max pooling at stride S.
type MaxPool2D struct {
	C, H, W, K, S int
	argmax        []int
}

// NewMaxPool2D returns a pooling layer over a C×H×W volume.
func NewMaxPool2D(c, h, w, k, s int) *MaxPool2D {
	return &MaxPool2D{C: c, H: h, W: w, K: k, S: s}
}

// OutH returns the output height.
func (m *MaxPool2D) OutH() int { return (m.H-m.K)/m.S + 1 }

// OutW returns the output width.
func (m *MaxPool2D) OutW() int { return (m.W-m.K)/m.S + 1 }

// Forward implements Layer.
func (m *MaxPool2D) Forward(x []float64) []float64 {
	oh, ow := m.OutH(), m.OutW()
	out := make([]float64, m.C*oh*ow)
	m.argmax = make([]int, len(out))
	for ch := 0; ch < m.C; ch++ {
		for i := 0; i < oh; i++ {
			for j := 0; j < ow; j++ {
				best := math.Inf(-1)
				bestIdx := -1
				for di := 0; di < m.K; di++ {
					for dj := 0; dj < m.K; dj++ {
						idx := (ch*m.H+i*m.S+di)*m.W + j*m.S + dj
						if x[idx] > best {
							best = x[idx]
							bestIdx = idx
						}
					}
				}
				oidx := (ch*oh+i)*ow + j
				out[oidx] = best
				m.argmax[oidx] = bestIdx
			}
		}
	}
	return out
}

// Backward implements Layer.
func (m *MaxPool2D) Backward(grad []float64) []float64 {
	in := make([]float64, m.C*m.H*m.W)
	for oidx, g := range grad {
		in[m.argmax[oidx]] += g
	}
	return in
}

// Params implements Layer.
func (m *MaxPool2D) Params() [][]float64 { return nil }

// Grads implements Layer.
func (m *MaxPool2D) Grads() [][]float64 { return nil }

// OutputSize implements Layer.
func (m *MaxPool2D) OutputSize() int { return m.C * m.OutH() * m.OutW() }

// Name implements Layer.
func (m *MaxPool2D) Name() string { return fmt.Sprintf("MP(%d,%d)", m.K, m.S) }

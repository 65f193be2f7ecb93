package nn

import (
	"fmt"
	"math"

	"osap/internal/linalg"
)

// DenseLayer is a fully connected affine layer: out = W·in + b.
type DenseLayer struct {
	In, Out int
	Weight  *Param // Out×In, row-major
	Bias    *Param // Out
}

// Dense returns an uninitialized fully connected layer; apply an
// initializer (HeInit) or deserialize weights before use.
func Dense(in, out int) *DenseLayer {
	if in <= 0 || out <= 0 {
		panic(fmt.Sprintf("nn: Dense(%d,%d) invalid dims", in, out))
	}
	return &DenseLayer{
		In:     in,
		Out:    out,
		Weight: &Param{Name: "dense.weight", W: make([]float64, out*in), G: make([]float64, out*in)},
		Bias:   &Param{Name: "dense.bias", W: make([]float64, out), G: make([]float64, out)},
	}
}

// InDim implements Layer.
func (d *DenseLayer) InDim() int { return d.In }

// OutDim implements Layer.
func (d *DenseLayer) OutDim() int { return d.Out }

// Kind implements Layer.
func (d *DenseLayer) Kind() string { return "dense" }

// Params implements Layer.
func (d *DenseLayer) Params() []*Param { return []*Param{d.Weight, d.Bias} }

// Forward implements Layer.
func (d *DenseLayer) Forward(in, out linalg.Vector) {
	w := d.Weight.W
	for i := 0; i < d.Out; i++ {
		row := w[i*d.In : (i+1)*d.In]
		s := d.Bias.W[i]
		for j, wij := range row {
			s += wij * in[j]
		}
		out[i] = s
	}
}

// Backward implements Layer.
func (d *DenseLayer) Backward(in, _, gradOut, gradIn linalg.Vector) {
	w := d.Weight.W
	gw := d.Weight.G
	gradIn.Zero()
	for i := 0; i < d.Out; i++ {
		gi := gradOut[i]
		d.Bias.G[i] += gi
		if gi == 0 {
			continue
		}
		row := w[i*d.In : (i+1)*d.In]
		grow := gw[i*d.In : (i+1)*d.In]
		for j := range row {
			grow[j] += gi * in[j]
			gradIn[j] += row[j] * gi
		}
	}
}

// Conv1DLayer is a 1-D convolution over a multi-channel sequence, as in
// Pensieve's feature extractors. The input is laid out channel-major:
// in[c*Length + t]. The output is filter-major: out[f*OutLen + p] with
// OutLen = Length - Kernel + 1 (stride 1, no padding).
type Conv1DLayer struct {
	Channels int    // input channels
	Length   int    // input sequence length per channel
	Filters  int    // number of filters
	Kernel   int    // kernel width
	Weight   *Param // Filters × (Channels*Kernel)
	Bias     *Param // Filters
}

// Conv1D returns an uninitialized 1-D convolution layer.
func Conv1D(channels, length, filters, kernel int) *Conv1DLayer {
	if channels <= 0 || length <= 0 || filters <= 0 || kernel <= 0 || kernel > length {
		panic(fmt.Sprintf("nn: Conv1D(%d,%d,%d,%d) invalid dims", channels, length, filters, kernel))
	}
	return &Conv1DLayer{
		Channels: channels,
		Length:   length,
		Filters:  filters,
		Kernel:   kernel,
		Weight: &Param{Name: "conv1d.weight",
			W: make([]float64, filters*channels*kernel),
			G: make([]float64, filters*channels*kernel)},
		Bias: &Param{Name: "conv1d.bias", W: make([]float64, filters), G: make([]float64, filters)},
	}
}

// OutLen returns the per-filter output sequence length.
func (c *Conv1DLayer) OutLen() int { return c.Length - c.Kernel + 1 }

// InDim implements Layer.
func (c *Conv1DLayer) InDim() int { return c.Channels * c.Length }

// OutDim implements Layer.
func (c *Conv1DLayer) OutDim() int { return c.Filters * c.OutLen() }

// Kind implements Layer.
func (c *Conv1DLayer) Kind() string { return "conv1d" }

// Params implements Layer.
func (c *Conv1DLayer) Params() []*Param { return []*Param{c.Weight, c.Bias} }

// Forward implements Layer.
func (c *Conv1DLayer) Forward(in, out linalg.Vector) {
	outLen := c.OutLen()
	for f := 0; f < c.Filters; f++ {
		wf := c.Weight.W[f*c.Channels*c.Kernel : (f+1)*c.Channels*c.Kernel]
		for p := 0; p < outLen; p++ {
			s := c.Bias.W[f]
			for ch := 0; ch < c.Channels; ch++ {
				seg := in[ch*c.Length+p : ch*c.Length+p+c.Kernel]
				wseg := wf[ch*c.Kernel : (ch+1)*c.Kernel]
				for k, w := range wseg {
					s += w * seg[k]
				}
			}
			out[f*outLen+p] = s
		}
	}
}

// Backward implements Layer.
func (c *Conv1DLayer) Backward(in, _, gradOut, gradIn linalg.Vector) {
	outLen := c.OutLen()
	gradIn.Zero()
	for f := 0; f < c.Filters; f++ {
		wf := c.Weight.W[f*c.Channels*c.Kernel : (f+1)*c.Channels*c.Kernel]
		gwf := c.Weight.G[f*c.Channels*c.Kernel : (f+1)*c.Channels*c.Kernel]
		for p := 0; p < outLen; p++ {
			g := gradOut[f*outLen+p]
			if g == 0 {
				continue
			}
			c.Bias.G[f] += g
			for ch := 0; ch < c.Channels; ch++ {
				base := ch*c.Length + p
				wseg := wf[ch*c.Kernel : (ch+1)*c.Kernel]
				gwseg := gwf[ch*c.Kernel : (ch+1)*c.Kernel]
				for k := 0; k < c.Kernel; k++ {
					gwseg[k] += g * in[base+k]
					gradIn[base+k] += g * wseg[k]
				}
			}
		}
	}
}

// ReLULayer applies max(0, x) element-wise.
type ReLULayer struct{ Dim int }

// ReLU returns a rectified-linear activation over dim elements.
func ReLU(dim int) *ReLULayer { return &ReLULayer{Dim: dim} }

// InDim implements Layer.
func (r *ReLULayer) InDim() int { return r.Dim }

// OutDim implements Layer.
func (r *ReLULayer) OutDim() int { return r.Dim }

// Kind implements Layer.
func (r *ReLULayer) Kind() string { return "relu" }

// Params implements Layer.
func (r *ReLULayer) Params() []*Param { return nil }

// Forward implements Layer.
func (r *ReLULayer) Forward(in, out linalg.Vector) {
	for i, x := range in {
		if x > 0 {
			out[i] = x
		} else {
			out[i] = 0
		}
	}
}

// Backward implements Layer.
func (r *ReLULayer) Backward(in, _, gradOut, gradIn linalg.Vector) {
	for i, x := range in {
		if x > 0 {
			gradIn[i] = gradOut[i]
		} else {
			gradIn[i] = 0
		}
	}
}

// TanhLayer applies tanh element-wise.
type TanhLayer struct{ Dim int }

// Tanh returns a hyperbolic-tangent activation over dim elements.
func Tanh(dim int) *TanhLayer { return &TanhLayer{Dim: dim} }

// InDim implements Layer.
func (t *TanhLayer) InDim() int { return t.Dim }

// OutDim implements Layer.
func (t *TanhLayer) OutDim() int { return t.Dim }

// Kind implements Layer.
func (t *TanhLayer) Kind() string { return "tanh" }

// Params implements Layer.
func (t *TanhLayer) Params() []*Param { return nil }

// Forward implements Layer.
func (t *TanhLayer) Forward(in, out linalg.Vector) {
	for i, x := range in {
		out[i] = math.Tanh(x)
	}
}

// Backward implements Layer (using the cached output: d tanh = 1 - y²).
func (t *TanhLayer) Backward(_, out, gradOut, gradIn linalg.Vector) {
	for i, y := range out {
		gradIn[i] = gradOut[i] * (1 - y*y)
	}
}

// SoftmaxLayer maps logits to a probability distribution. Policy heads
// end with this layer.
type SoftmaxLayer struct{ Dim int }

// Softmax returns a softmax activation over dim logits.
func Softmax(dim int) *SoftmaxLayer { return &SoftmaxLayer{Dim: dim} }

// InDim implements Layer.
func (s *SoftmaxLayer) InDim() int { return s.Dim }

// OutDim implements Layer.
func (s *SoftmaxLayer) OutDim() int { return s.Dim }

// Kind implements Layer.
func (s *SoftmaxLayer) Kind() string { return "softmax" }

// Params implements Layer.
func (s *SoftmaxLayer) Params() []*Param { return nil }

// Forward implements Layer with the usual max-subtraction for numerical
// stability.
func (s *SoftmaxLayer) Forward(in, out linalg.Vector) {
	maxv := in[0]
	for _, x := range in[1:] {
		if x > maxv {
			maxv = x
		}
	}
	var sum float64
	for i, x := range in {
		e := math.Exp(x - maxv)
		out[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range out {
		out[i] *= inv
	}
}

// Backward implements Layer using the softmax Jacobian:
// gradIn_i = y_i (gradOut_i - Σ_j gradOut_j y_j).
func (s *SoftmaxLayer) Backward(_, out, gradOut, gradIn linalg.Vector) {
	var dot float64
	for j, y := range out {
		dot += gradOut[j] * y
	}
	for i, y := range out {
		gradIn[i] = y * (gradOut[i] - dot)
	}
}

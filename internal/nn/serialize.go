package nn

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// LayerJSON is the on-disk representation of one layer.
type LayerJSON struct {
	Kind string `json:"kind"`
	// Dense
	In  int `json:"in,omitempty"`
	Out int `json:"out,omitempty"`
	// Conv1D
	Channels int `json:"channels,omitempty"`
	Length   int `json:"length,omitempty"`
	Filters  int `json:"filters,omitempty"`
	Kernel   int `json:"kernel,omitempty"`
	// Stateless layers
	Dim int `json:"dim,omitempty"`
	// Parameters
	Weight Floats `json:"weight,omitempty"`
	Bias   Floats `json:"bias,omitempty"`
}

// Floats is a []float64 that decodes straight from its array's text:
// one strconv.ParseFloat per element — the parse encoding/json runs —
// with no reflective store per element and the slice sized up front.
// It encodes as a plain []float64. The decoder has checked the text is
// JSON before it gets here; an element that is not a number (null, a
// string) is an error.
type Floats []float64

// UnmarshalJSON implements json.Unmarshaler.
func (f *Floats) UnmarshalJSON(b []byte) error {
	s := string(b) // one copy for the whole array; elements are slices of it
	if s == "null" {
		*f = nil
		return nil
	}
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return fmt.Errorf("nn: weights are not an array")
	}
	body := s[1 : len(s)-1]
	if strings.TrimSpace(body) == "" {
		*f = Floats{}
		return nil
	}
	out := make(Floats, 0, strings.Count(body, ",")+1)
	for more := true; more; {
		var item string
		item, body, more = strings.Cut(body, ",")
		v, err := strconv.ParseFloat(strings.TrimSpace(item), 64)
		if err != nil {
			return fmt.Errorf("nn: weight %d: %w", len(out), err)
		}
		out = append(out, v)
	}
	*f = out
	return nil
}

// NetworkJSON is the on-disk representation of a network: a plain
// value encoding/json writes and reads in one pass, nested in whatever
// holds it.
type NetworkJSON struct {
	Layers []LayerJSON `json:"layers"`
}

// JSON returns n's on-disk form. Its weight slices alias n's.
func (n *Network) JSON() (NetworkJSON, error) {
	out := NetworkJSON{Layers: make([]LayerJSON, 0, len(n.layers))}
	for _, l := range n.layers {
		lj := LayerJSON{Kind: l.Kind()}
		switch v := l.(type) {
		case *DenseLayer:
			lj.In, lj.Out = v.In, v.Out
			lj.Weight = v.Weight.W
			lj.Bias = v.Bias.W
		case *Conv1DLayer:
			lj.Channels, lj.Length, lj.Filters, lj.Kernel = v.Channels, v.Length, v.Filters, v.Kernel
			lj.Weight = v.Weight.W
			lj.Bias = v.Bias.W
		case *ReLULayer:
			lj.Dim = v.Dim
		case *TanhLayer:
			lj.Dim = v.Dim
		case *SoftmaxLayer:
			lj.Dim = v.Dim
		default:
			return NetworkJSON{}, fmt.Errorf("nn: cannot serialize layer type %T", l)
		}
		out.Layers = append(out.Layers, lj)
	}
	return out, nil
}

// Network builds the network nj describes. Every shape is checked
// before anything is allocated — dimensions positive, a kernel no
// longer than its sequence, adjacent layers agreeing, weight and bias
// lengths equal to their dimensions' products — so a malformed
// description is an error, never a panic or an outsized allocation.
func (nj NetworkJSON) Network() (*Network, error) {
	if len(nj.Layers) == 0 {
		return nil, fmt.Errorf("nn: decode network: no layers")
	}
	prevOut := 0
	for i, lj := range nj.Layers {
		in, out, err := lj.shape()
		if err != nil {
			return nil, fmt.Errorf("nn: layer %d: %w", i, err)
		}
		if i > 0 && in != prevOut {
			return nil, fmt.Errorf("nn: decode network: layer %d/%d dimension mismatch", i-1, i)
		}
		prevOut = out
	}
	layers := make([]Layer, len(nj.Layers))
	for i, lj := range nj.Layers {
		switch lj.Kind {
		case "dense":
			d := Dense(lj.In, lj.Out)
			copy(d.Weight.W, lj.Weight)
			copy(d.Bias.W, lj.Bias)
			layers[i] = d
		case "conv1d":
			c := Conv1D(lj.Channels, lj.Length, lj.Filters, lj.Kernel)
			copy(c.Weight.W, lj.Weight)
			copy(c.Bias.W, lj.Bias)
			layers[i] = c
		case "relu":
			layers[i] = ReLU(lj.Dim)
		case "tanh":
			layers[i] = Tanh(lj.Dim)
		case "softmax":
			layers[i] = Softmax(lj.Dim)
		}
	}
	return &Network{layers: layers}, nil
}

// shape validates one layer's description and returns its input and
// output lengths.
func (lj LayerJSON) shape() (in, out int, err error) {
	var weights, biases int
	switch lj.Kind {
	case "dense":
		if lj.In <= 0 || lj.Out <= 0 {
			return 0, 0, fmt.Errorf("dense(%d,%d) invalid dims", lj.In, lj.Out)
		}
		in, out, weights, biases = lj.In, lj.Out, product(lj.Out, lj.In), lj.Out
	case "conv1d":
		if lj.Channels <= 0 || lj.Length <= 0 || lj.Filters <= 0 || lj.Kernel <= 0 || lj.Kernel > lj.Length {
			return 0, 0, fmt.Errorf("conv1d(%d,%d,%d,%d) invalid dims", lj.Channels, lj.Length, lj.Filters, lj.Kernel)
		}
		in, out = product(lj.Channels, lj.Length), product(lj.Filters, lj.Length-lj.Kernel+1)
		weights, biases = product(lj.Filters, product(lj.Channels, lj.Kernel)), lj.Filters
	case "relu", "tanh", "softmax":
		if lj.Dim <= 0 {
			return 0, 0, fmt.Errorf("%s(%d) invalid dim", lj.Kind, lj.Dim)
		}
		return lj.Dim, lj.Dim, nil
	default:
		return 0, 0, fmt.Errorf("unknown kind %q", lj.Kind)
	}
	if in < 0 || out < 0 || weights < 0 {
		return 0, 0, fmt.Errorf("%s dims overflow", lj.Kind)
	}
	if len(lj.Weight) != weights || len(lj.Bias) != biases {
		return 0, 0, fmt.Errorf("%s weight shape mismatch: %d weights and %d biases, want %d and %d",
			lj.Kind, len(lj.Weight), len(lj.Bias), weights, biases)
	}
	return in, out, nil
}

// product is a·b for positive a and b, or −1 when it overflows an int.
func product(a, b int) int {
	if a < 0 || b < 0 || (b > 0 && a > math.MaxInt/b) {
		return -1
	}
	return a * b
}

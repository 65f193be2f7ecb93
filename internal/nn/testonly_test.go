package nn

import (
	"fmt"
	"math"

	"osap/internal/stats"
)

// The functions below are called by no shipping code — training runs
// on TrainWorkspace and serving on packed snapshots — and only this
// package's unit tests use them, so they live in a test file and the
// package's non-test code keeps no function without a caller.

// XavierInit initializes weights from N(0, sqrt(2/(fanIn+fanOut))),
// appropriate for tanh/linear networks.
func XavierInit(net *Network, rng *stats.RNG) {
	initWeights(net, rng, func(fanIn, fanOut int) float64 {
		return math.Sqrt(2 / float64(fanIn+fanOut))
	})
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() {
	for i := range p.G {
		p.G[i] = 0
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W)
	}
	return total
}

// ZeroGrad clears every parameter gradient.
func (n *Network) ZeroGrad() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// Clone returns a deep copy of the network (weights copied, gradients
// zeroed).
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.layers))
	for i, l := range n.layers {
		layers[i] = cloneLayer(l)
	}
	return &Network{layers: layers}
}

// CopyWeightsFrom copies parameter values from src into n. The two
// networks must have identical architectures; it panics otherwise.
func (n *Network) CopyWeightsFrom(src *Network) {
	dst := n.Params()
	s := src.Params()
	if len(dst) != len(s) {
		panic("nn: CopyWeightsFrom architecture mismatch")
	}
	for i := range dst {
		if len(dst[i].W) != len(s[i].W) {
			panic("nn: CopyWeightsFrom tensor shape mismatch")
		}
		copy(dst[i].W, s[i].W)
	}
}

// cloneLayer deep-copies a layer, including parameter values (gradients
// reset to zero).
func cloneLayer(l Layer) Layer {
	switch v := l.(type) {
	case *DenseLayer:
		c := Dense(v.In, v.Out)
		copy(c.Weight.W, v.Weight.W)
		copy(c.Bias.W, v.Bias.W)
		return c
	case *Conv1DLayer:
		c := Conv1D(v.Channels, v.Length, v.Filters, v.Kernel)
		copy(c.Weight.W, v.Weight.W)
		copy(c.Bias.W, v.Bias.W)
		return c
	case *ReLULayer:
		return ReLU(v.Dim)
	case *TanhLayer:
		return Tanh(v.Dim)
	case *SoftmaxLayer:
		return Softmax(v.Dim)
	default:
		panic(fmt.Sprintf("nn: cloneLayer: unknown layer type %T", l))
	}
}

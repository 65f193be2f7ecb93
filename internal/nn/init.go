package nn

import (
	"math"

	"osap/internal/stats"
)

// The initializers fill a network's parameters with random starting
// values. The paper's ensemble uncertainty signals (U_π, U_V) rest on
// exactly this degree of freedom: ensemble members are identical except
// for the random initialization of their network variables (§2.4).

// fanDims returns (fanIn, fanOut) for a weight tensor of a layer.
func fanDims(l Layer) (int, int) {
	switch v := l.(type) {
	case *DenseLayer:
		return v.In, v.Out
	case *Conv1DLayer:
		return v.Channels * v.Kernel, v.Filters * v.Kernel
	default:
		return l.InDim(), l.OutDim()
	}
}

// initWeights fills every weight tensor via scale(fanIn, fanOut) std
// Gaussians and zeroes biases.
func initWeights(net *Network, rng *stats.RNG, scale func(fanIn, fanOut int) float64) {
	for _, l := range net.Layers() {
		ps := l.Params()
		if len(ps) == 0 {
			continue
		}
		fanIn, fanOut := fanDims(l)
		std := scale(fanIn, fanOut)
		// By construction params[0] is the weight tensor and params[1]
		// the bias for both parametric layer types.
		for i := range ps[0].W {
			ps[0].W[i] = rng.NormFloat64() * std
		}
		for i := range ps[1].W {
			ps[1].W[i] = 0
		}
	}
}

// HeInit initializes weights from N(0, sqrt(2/fanIn)), appropriate for
// ReLU networks.
func HeInit(net *Network, rng *stats.RNG) {
	initWeights(net, rng, func(fanIn, _ int) float64 {
		return math.Sqrt(2 / float64(fanIn))
	})
}

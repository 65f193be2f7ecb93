// Package nn is a small, dependency-free neural-network library with full
// backpropagation, written for the actor-critic agents in this
// repository. It supports dense and 1-D convolutional layers (the two
// layer types in Pensieve's architecture), ReLU/Tanh/Softmax
// nonlinearities, He/Xavier initialization, the Adam optimizer with
// gradient clipping, and JSON serialization of trained models.
//
// Design notes: networks are feed-forward chains. Forward is pure with
// respect to the network (intermediate activations come from a pooled
// Workspace; only the returned output is allocated), so a trained
// network can serve concurrent inference from multiple goroutines.
// Inference that must not allocate runs on a packed copy
// (PackedNetwork, batch.go) through a BatchWorkspace of its own.
// Training runs on the same packed kernel: a TrainWorkspace (train.go)
// repacks the weights once per optimizer step, then one batched
// forward and one batched backward set every parameter gradient. It
// mutates the gradients and must be externally synchronized — the
// trainers in internal/rl update each network from a single goroutine.
// The layers' own per-row Backward is the reference the tests hold the
// batched gradient to.
//
// Given a seed, training and inference are bitwise deterministic;
// cmd/osap-vet's nondeterminism analyzer enforces that.
//
//osap:deterministic
package nn

import (
	"fmt"
	"sync"

	"osap/internal/linalg"
)

// Param is one trainable tensor (flattened) together with its gradient
// accumulator.
type Param struct {
	Name string
	W    []float64
	G    []float64
}

// Layer is one differentiable stage of a feed-forward network.
type Layer interface {
	// InDim and OutDim are the flattened input/output lengths.
	InDim() int
	OutDim() int
	// Forward computes out from in. len(in)==InDim, len(out)==OutDim.
	Forward(in, out linalg.Vector)
	// Backward computes gradIn from the cached forward pair (in, out)
	// and gradOut, accumulating parameter gradients as a side effect.
	Backward(in, out, gradOut, gradIn linalg.Vector)
	// Params returns the layer's trainable tensors (nil for stateless
	// layers).
	Params() []*Param
	// Kind returns the serialization tag for the layer type.
	Kind() string
}

// Network is a feed-forward chain of layers.
type Network struct {
	layers []Layer
	// wsPool recycles workspaces for the allocating Forward, keeping it
	// concurrency-safe without per-layer allocation.
	wsPool sync.Pool
}

// NewNetwork chains the given layers, validating that adjacent
// input/output dimensions agree. It panics on a dimension mismatch,
// which is a construction-time programmer error.
func NewNetwork(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: empty network")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutDim() != layers[i].InDim() {
			panic(fmt.Sprintf("nn: layer %d out dim %d != layer %d in dim %d",
				i-1, layers[i-1].OutDim(), i, layers[i].InDim()))
		}
	}
	return &Network{layers: layers}
}

// InDim returns the network input length.
func (n *Network) InDim() int { return n.layers[0].InDim() } //osap:hotpath-stop InDim implementations are constant field reads

// OutDim returns the network output length.
func (n *Network) OutDim() int { return n.layers[len(n.layers)-1].OutDim() }

// Layers returns the layer chain (shared, not copied).
func (n *Network) Layers() []Layer { return n.layers }

// Forward runs inference and returns a freshly allocated output vector.
// It is safe to call concurrently as long as no goroutine is
// concurrently mutating the network's parameters. Intermediate
// activations come from a pooled workspace, so the only allocation is
// the returned output; the allocation-free variant is ForwardWS.
func (n *Network) Forward(in linalg.Vector) linalg.Vector {
	if len(in) != n.InDim() {
		panic(fmt.Sprintf("nn: Forward input dim %d, want %d", len(in), n.InDim()))
	}
	ws := n.getWS()
	out := n.ForwardWS(ws, in).Clone()
	n.putWS(ws)
	return out
}

// Params returns all trainable tensors in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

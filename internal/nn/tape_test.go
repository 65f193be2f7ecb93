package nn

import (
	"fmt"

	"osap/internal/linalg"
)

// The per-row tape: a forward that records every layer's activations
// and a backward through the layers' own Backward, one observation at
// a time. It is the reference TrainWorkspace's batched gradient is held
// to, bit for bit.

// Tape holds the activations of one forward pass, for use by
// BackwardTape. acts[0] is the input; acts[i] is the output of layer i-1.
type Tape struct {
	acts []linalg.Vector
}

// Output returns the final activation of the pass.
func (t *Tape) Output() linalg.Vector { return t.acts[len(t.acts)-1] }

// ForwardTape runs a forward pass recording activations for backprop.
func (n *Network) ForwardTape(in linalg.Vector) *Tape {
	if len(in) != n.InDim() {
		panic(fmt.Sprintf("nn: ForwardTape input dim %d, want %d", len(in), n.InDim()))
	}
	acts := make([]linalg.Vector, len(n.layers)+1)
	acts[0] = in.Clone()
	for i, l := range n.layers {
		out := linalg.NewVector(l.OutDim())
		l.Forward(acts[i], out)
		acts[i+1] = out
	}
	return &Tape{acts: acts}
}

// BackwardTape backpropagates gradOut (the gradient of the loss with
// respect to the network output) through the recorded pass, accumulating
// parameter gradients, and returns the gradient with respect to the
// input.
func (n *Network) BackwardTape(tape *Tape, gradOut linalg.Vector) linalg.Vector {
	return n.BackwardTapeWS(newTapeWorkspace(n), tape, gradOut).Clone()
}

// tapeWorkspace is the preallocated form of the tape: activation and
// gradient buffers per layer and a tape aliasing them.
type tapeWorkspace struct {
	in    linalg.Vector
	acts  []linalg.Vector
	grads []linalg.Vector
	tape  Tape
}

func newTapeWorkspace(n *Network) *tapeWorkspace {
	ws := &tapeWorkspace{
		in:    linalg.NewVector(n.InDim()),
		acts:  make([]linalg.Vector, len(n.layers)),
		grads: make([]linalg.Vector, len(n.layers)),
	}
	for i, l := range n.layers {
		ws.acts[i] = linalg.NewVector(l.OutDim())
		ws.grads[i] = linalg.NewVector(l.InDim())
	}
	ws.tape.acts = append([]linalg.Vector{ws.in}, ws.acts...)
	return ws
}

// ForwardTapeWS is ForwardTape into ws's buffers, with zero heap
// allocation; the tape is valid until ws's next forward.
func (n *Network) ForwardTapeWS(ws *tapeWorkspace, in linalg.Vector) *Tape {
	copy(ws.in, in)
	cur := ws.in
	for i, l := range n.layers {
		l.Forward(cur, ws.acts[i])
		cur = ws.acts[i]
	}
	return &ws.tape
}

// BackwardTapeWS is BackwardTape through ws's gradient buffers, with
// zero heap allocation; the input gradient aliases ws.
func (n *Network) BackwardTapeWS(ws *tapeWorkspace, tape *Tape, gradOut linalg.Vector) linalg.Vector {
	if len(gradOut) != n.OutDim() {
		panic(fmt.Sprintf("nn: BackwardTape grad dim %d, want %d", len(gradOut), n.OutDim()))
	}
	grad := gradOut
	for i := len(n.layers) - 1; i >= 0; i-- {
		n.layers[i].Backward(tape.acts[i], tape.acts[i+1], grad, ws.grads[i])
		grad = ws.grads[i]
	}
	return grad
}

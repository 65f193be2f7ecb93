package nn

import (
	"fmt"

	"osap/internal/linalg"
)

// Workspace holds the preallocated activation buffers for one network
// architecture, so a per-row forward through the layers' own Forward
// runs without any per-call heap allocation. It backs the allocating
// Network.Forward (through a pool) and the benchmark's per-layer
// ladder; serving runs on a PackedNetwork instead.
//
// Ownership model: a workspace belongs to exactly one goroutine at a
// time — it is the caller's analogue of a thread-local scratch arena.
// Never share one across goroutines. The vector ForwardWS returns
// aliases workspace memory and remains valid only until the
// workspace's next use.
type Workspace struct {
	in   int             // the input length the buffers were sized for
	acts []linalg.Vector // acts[i] is the output buffer of layer i
}

// NewWorkspace allocates buffers sized for n's architecture. The
// workspace is usable with any network whose layer dimensions match n's
// (e.g. every member of an ensemble built from the same NetConfig).
func NewWorkspace(n *Network) *Workspace {
	ws := &Workspace{in: n.InDim(), acts: make([]linalg.Vector, len(n.layers))}
	for i, l := range n.layers {
		ws.acts[i] = linalg.NewVector(l.OutDim())
	}
	return ws
}

// check panics unless the workspace buffers match n's architecture.
func (ws *Workspace) check(n *Network) {
	if len(ws.acts) != len(n.layers) || ws.in != n.InDim() {
		panic(fmt.Sprintf("nn: workspace shape mismatch: %d layers/in %d vs %d layers/in %d",
			len(ws.acts), ws.in, len(n.layers), n.InDim()))
	}
	for i, l := range n.layers {
		if len(ws.acts[i]) != l.OutDim() {
			panic(fmt.Sprintf("nn: workspace layer %d buffer %d != layer out dim %d",
				i, len(ws.acts[i]), l.OutDim()))
		}
	}
}

// ForwardWS runs inference through ws's buffers with zero heap
// allocation. The returned vector aliases workspace memory and is valid
// until the next use of ws. Results are bit-identical to Forward.
//
//osap:hotpath
func (n *Network) ForwardWS(ws *Workspace, in linalg.Vector) linalg.Vector {
	if len(in) != n.InDim() {
		panic(fmt.Sprintf("nn: ForwardWS input dim %d, want %d", len(in), n.InDim()))
	}
	ws.check(n)
	cur := in
	for i, l := range n.layers {
		l.Forward(cur, ws.acts[i]) //osap:hotpath-stop Layer.Forward implementations are workspace-backed and alloc-tested
		cur = ws.acts[i]
	}
	return cur
}

// getWS borrows a workspace from the network's internal pool (for the
// allocating Forward). Pair with putWS.
func (n *Network) getWS() *Workspace {
	if ws, ok := n.wsPool.Get().(*Workspace); ok {
		return ws
	}
	return NewWorkspace(n)
}

func (n *Network) putWS(ws *Workspace) { n.wsPool.Put(ws) }

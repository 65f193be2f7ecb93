package nn

import (
	"fmt"

	"osap/internal/linalg"
)

// Packed inference: a frozen copy of a network laid out for
// linalg.Packed's kernel, and the workspaces that run batches — or a
// single row — through it. Training's forward runs the same stages over
// weights a TrainWorkspace repacks each optimizer step (train.go). The
// layers' own Forward/Backward stay the reference the tests compare
// both against.
//
// Bit-identity contract: row r of a batched forward is bit-identical
// to Network.ForwardWS on row r alone. Dense and conv layers go
// through linalg.Packed.Apply (one accumulator per output, ascending
// k, product and sum rounded separately, exactly the layers' own
// Forward loops); a ReLU is linalg.ReLU applied in place to the layer
// before it; every other layer falls back to its per-row Forward,
// which is trivially identical.
// TestForwardBatchMatchesForwardWS asserts this over random
// architectures and batch sizes.

// PackedNetwork is the inference-only form of a Network whose weights
// will not change again. It is immutable and holds no scratch, so one
// PackedNetwork serves every goroutine that has a workspace of its
// own: a server packs each network of a generation once, at load, and
// every session and every shard of that generation shares the copy. It
// keeps no reference to the Network it was packed from, so once that
// network is dropped the packed copy is the only one.
type PackedNetwork struct {
	stages []packedStage
	inDim  int
	outDim int
	// width is what one row needs for the outputs of every stage but
	// the last, side by side; stage i's starts at stages[i].at.
	width int
}

// packedStage is one layer with, possibly, the ReLU that follows it
// applied in place. Exactly one of affine and rowwise is set.
type packedStage struct {
	in, out int
	at      int // offset of the output within a workspace row
	// affine is a dense layer or, when positions > 0, a convolution:
	// the map is then applied at `positions` consecutive offsets of the
	// input row and output j of position p lands at out[j*positions+p].
	affine    *linalg.Packed
	positions int
	// rowwise is any other layer, run one row at a time through its own
	// Forward. The layers this catches (tanh, softmax, a ReLU with no
	// layer before it) hold no weights and no reference to the network,
	// so sharing them with the source network is harmless.
	rowwise Layer
	relu    bool
}

// Pack builds the packed form of n from the weights n has now. Later
// changes to n's weights do not reach it.
func Pack(n *Network) *PackedNetwork {
	p := &PackedNetwork{inDim: n.InDim(), outDim: n.OutDim()}
	for _, l := range n.layers {
		st := packedStage{in: l.InDim(), out: l.OutDim()}
		switch v := l.(type) {
		case *DenseLayer:
			st.affine = linalg.Pack(&linalg.Matrix{Rows: v.Out, Cols: v.In, Data: v.Weight.W}, v.Bias.W, nil)
		case *Conv1DLayer:
			// The patch under output position 0, as offsets into the
			// channel-major input row; position p is the same patch p
			// elements on.
			off := make([]int, 0, v.Channels*v.Kernel)
			for ch := 0; ch < v.Channels; ch++ {
				for k := 0; k < v.Kernel; k++ {
					off = append(off, ch*v.Length+k)
				}
			}
			st.affine = linalg.Pack(&linalg.Matrix{Rows: v.Filters, Cols: len(off), Data: v.Weight.W}, v.Bias.W, off)
			st.positions = v.OutLen()
		case *ReLULayer:
			if len(p.stages) > 0 {
				p.stages[len(p.stages)-1].relu = true
				continue
			}
			st.rowwise = l
		default:
			st.rowwise = l
		}
		p.stages = append(p.stages, st)
	}
	for i := range p.stages[:len(p.stages)-1] {
		p.stages[i].at = p.width
		p.width += p.stages[i].out
	}
	return p
}

// InDim returns the network input length.
func (p *PackedNetwork) InDim() int { return p.inDim }

// OutDim returns the network output length.
func (p *PackedNetwork) OutDim() int { return p.outDim }

// forward maps rows input rows, srcRow apart in src, to rows output
// rows, dstRow apart in dst. A dense layer takes every row in one call
// of the kernel; a convolution, a fallback layer and the ReLU go row
// by row.
//
//osap:hotpath
func (st *packedStage) forward(dst []float64, dstRow int, src []float64, srcRow, rows int) {
	if st.affine != nil && st.positions == 0 {
		st.affine.Apply(dst, dstRow, 1, src, srcRow, rows)
		if !st.relu {
			return
		}
	}
	for r := 0; r < rows; r++ {
		in, out := src[r*srcRow:r*srcRow+st.in], dst[r*dstRow:r*dstRow+st.out]
		switch {
		case st.positions > 0:
			st.affine.Apply(out, 1, st.positions, in, 1, st.positions)
		case st.rowwise != nil:
			st.rowwise.Forward(in, out) //osap:hotpath-stop per-row fallback; Layer.Forward implementations write into the buffers they are handed
		}
		if st.relu {
			linalg.ReLU(out, out)
		}
	}
}

// BatchWorkspace holds the activation buffers for running one packed
// network over up to a fixed number of rows; with a capacity of one it
// is a session's private inference scratch. A row's intermediate
// activations lie side by side, so a batch of one — every forward the
// server runs — touches one short run of memory whatever the capacity;
// only the last stage's outputs are gathered into a matrix of their
// own. Like Workspace, it belongs to exactly
// one goroutine at a time; what Forward and ForwardRow return aliases
// workspace memory and is valid only until the workspace's next use.
type BatchWorkspace struct {
	net *PackedNetwork
	// src is the network the one-call NewBatchWorkspace packed, which
	// Network.ForwardBatchWS checks against; nil for a workspace made
	// from a shared PackedNetwork.
	src      *Network
	maxBatch int
	last     []float64 // maxBatch rows of net.outDim
	body     []float64 // maxBatch rows of net.width
	out      linalg.Matrix
	forwards uint64
}

// NewBatchWorkspace allocates activation buffers for up to maxBatch
// rows through p.
func (p *PackedNetwork) NewBatchWorkspace(maxBatch int) *BatchWorkspace {
	if maxBatch <= 0 {
		panic(fmt.Sprintf("nn: NewBatchWorkspace maxBatch %d", maxBatch))
	}
	// The outputs first: row 0 of both parts, all a batch of one
	// touches, then sits at the head of the allocation.
	buf := make([]float64, maxBatch*(p.outDim+p.width))
	return &BatchWorkspace{net: p, maxBatch: maxBatch, last: buf[:maxBatch*p.outDim], body: buf[maxBatch*p.outDim:]}
}

// NewBatchWorkspace packs n as it is now and allocates a workspace for
// up to maxBatch rows through that copy: the one-call form for a
// caller with a single workspace. Callers with many (a server's
// sessions and shards) Pack once and share the result.
func NewBatchWorkspace(n *Network, maxBatch int) *BatchWorkspace {
	ws := Pack(n).NewBatchWorkspace(maxBatch)
	ws.src = n
	return ws
}

// Forward runs inference for in.Rows observations at once. The
// returned matrix aliases workspace memory (valid until the next use
// of ws) and its row r is bit-identical to Network.ForwardWS on row r.
// It panics when in has the wrong width or more rows than the
// workspace holds. Zero heap allocation.
//
//osap:hotpath
func (ws *BatchWorkspace) Forward(in *linalg.Matrix) *linalg.Matrix {
	if in.Cols != ws.net.inDim {
		panic(fmt.Sprintf("nn: batched forward input dim %d, want %d", in.Cols, ws.net.inDim))
	}
	ws.out = linalg.Matrix{Rows: in.Rows, Cols: ws.net.outDim, Data: ws.forward(in.Data, in.Rows)}
	return &ws.out
}

// Forwards returns how many forwards ws has run, whatever their rows.
//
//osap:ignore deadcode rl.Scratch.Forwards sums it for the guard tests of internal/experiments
func (ws *BatchWorkspace) Forwards() uint64 { return ws.forwards }

// ForwardRow is Forward for a single observation: a batch of one.
//
//osap:hotpath
func (ws *BatchWorkspace) ForwardRow(in linalg.Vector) linalg.Vector {
	if len(in) != ws.net.inDim {
		panic(fmt.Sprintf("nn: forward input dim %d, want %d", len(in), ws.net.inDim))
	}
	return ws.forward(in, 1)
}

//osap:hotpath
func (ws *BatchWorkspace) forward(in []float64, rows int) []float64 {
	if rows <= 0 || rows > ws.maxBatch {
		panic(fmt.Sprintf("nn: batch %d outside workspace capacity %d", rows, ws.maxBatch))
	}
	ws.forwards++
	p := ws.net
	src, srcRow := in[:rows*p.inDim], p.inDim
	for i := range p.stages {
		st := &p.stages[i]
		dst, dstRow := ws.body[st.at:], p.width
		if i == len(p.stages)-1 {
			dst, dstRow = ws.last, p.outDim
		}
		st.forward(dst, dstRow, src, srcRow, rows)
		src, srcRow = dst, dstRow
	}
	return src[:rows*p.outDim]
}

// ForwardBatchWS is ws.Forward(in) for a workspace that was built from
// n by NewBatchWorkspace; it panics for any other. The weights are the
// ones n had when the workspace was built.
//
//osap:hotpath
func (n *Network) ForwardBatchWS(ws *BatchWorkspace, in *linalg.Matrix) *linalg.Matrix {
	if ws.src != n {
		panic("nn: batch workspace was built from another network")
	}
	return ws.Forward(in)
}

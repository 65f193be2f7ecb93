package nn

import (
	"fmt"

	"osap/internal/linalg"
)

// Batched training on the inference kernel. A TrainWorkspace packs its
// network's weights into buffers it owns, runs a [rows, in] matrix
// forward that keeps every layer's activations, and backpropagates a
// [rows, out] gradient matrix, setting every parameter's G to the sum
// over rows. Every affine product is a linalg.Packed.Apply:
//
//   - forward: the layer's weights, transposed to k-major, as inference
//     packs them, through the same packedStage.forward;
//   - dense input gradient: W as stored, which is k-major for Wᵀ;
//     convolution input gradient: the layer unrolled into its dense
//     filter-position × input matrix, zeros where a filter does not
//     reach;
//   - weight gradient: the batch as k — the layer's input activations
//     (a dense layer's, as the forward left them; a convolution's, cut
//     into one patch per row and position) are the weights, and the
//     offsets off[k] = k·Out gather the output gradients.
//
// The bias gradient is a plain sum down the rows. Tanh, softmax and
// any ReLU with no affine layer before it run row by row through their
// own Backward; a ReLU after an affine layer is fused into it, its
// backward a mask on the layer's output. The input gradient of the
// first layer with parameters is never computed: nothing reads it.
//
// Bit-identity contract: for finite inputs, every G after Backward is
// Float64bits-equal to ZeroGrad followed by a per-row forward and
// backward through the layers' own Forward/Backward, row by row in
// order. Each element is one Apply accumulator seeded with +0 that
// takes its products in the order the per-row loops add them (rows,
// then positions, for a weight; output units for an input), product
// and sum rounded apart. The per-row loops skip a zero output gradient
// where this adds its ±0 product; an accumulator that starts at +0 is
// never −0, so adding a zero leaves it unchanged. TestBatchGradMatchesTape
// asserts this over random architectures and batch sizes.

// TrainWorkspace is the scratch of batched training for one network:
// packed weights, activations and gradients for up to the largest
// batch it has been given. Like every workspace it belongs to one
// goroutine at a time.
type TrainWorkspace struct {
	inDim  int
	outDim int
	stages []trainStage
	// first is the first stage with parameters: Backward stops there.
	first int
	rows  int // rows of the last Forward
	cap   int // rows the row buffers hold
	// acts[i] is the input of stage i and acts[len(stages)] the network
	// output; grads[i] is the gradient with respect to acts[i]. Rows are
	// strides[i] apart: padded to Stride, so that a dense layer's input
	// can stand in as the weights of its gradient map, except the
	// output, which Forward returns as a matrix.
	acts, grads [][]float64
	strides     []int
	zero        []float64 // the zero bias of every gradient map
	iota        []int     // 0, 1, 2, …: the offsets of contiguous inputs
	out         linalg.Matrix
}

// trainStage is one layer, or an affine layer with the ReLU after it.
type trainStage struct {
	packedStage // the forward; affine, when set, views fwdW
	layer       Layer
	fwdW        []float64 // the forward map's weights, then its bias
	// back maps output gradients to input gradients (past the first
	// stage with parameters): backW holds W as stored for a dense
	// layer, the unrolled filter-position × input matrix for a
	// convolution.
	back  linalg.Packed
	backW []float64
	// gather[k] is where weight-gradient term k finds its output
	// gradient: row k for a dense layer, (row, position) k for a
	// convolution, whose input is cut into one patch per (row,
	// position) in patches.
	gather  []int
	patches []float64
}

// NewTrainWorkspace allocates the packed weights and per-layer maps for
// n. Row buffers are sized by the first Forward and grow with the
// batch.
func NewTrainWorkspace(n *Network) *TrainWorkspace {
	tw := &TrainWorkspace{inDim: n.InDim(), outDim: n.OutDim(), first: -1}
	// Every map's input is at most one layer's input, and every map has
	// at most one layer's input or output as its k.
	widest, longest := 0, 0
	for _, l := range n.layers {
		widest, longest = max(widest, linalg.Stride(l.InDim())), max(longest, l.InDim(), l.OutDim())
	}
	tw.zero = make([]float64, widest)
	tw.iota = make([]int, longest)
	for k := range tw.iota {
		tw.iota[k] = k
	}
	for _, l := range n.layers {
		if _, ok := l.(*ReLULayer); ok && len(tw.stages) > 0 {
			if prev := &tw.stages[len(tw.stages)-1]; prev.rowwise == nil && !prev.relu {
				prev.relu = true
				continue
			}
		}
		st := trainStage{packedStage: packedStage{in: l.InDim(), out: l.OutDim()}, layer: l}
		backward := tw.first >= 0 // past the first layer with parameters
		var fwd linalg.Packed
		switch v := l.(type) {
		case *DenseLayer:
			stride := linalg.Stride(v.Out)
			st.fwdW = make([]float64, (v.In+1)*stride)
			fwd = linalg.View(st.fwdW[:v.In*stride], st.fwdW[v.In*stride:], tw.iota[:v.In], v.Out)
			if backward {
				st.backW = make([]float64, v.Out*linalg.Stride(v.In))
				st.back = linalg.View(st.backW, tw.zero, tw.iota[:v.Out], v.In)
			}
		case *Conv1DLayer:
			patch, stride := v.Channels*v.Kernel, linalg.Stride(v.Filters)
			off := make([]int, 0, patch)
			for ch := 0; ch < v.Channels; ch++ {
				for k := 0; k < v.Kernel; k++ {
					off = append(off, ch*v.Length+k)
				}
			}
			st.fwdW = make([]float64, (patch+1)*stride)
			fwd = linalg.View(st.fwdW[:patch*stride], st.fwdW[patch*stride:], off, v.Filters)
			st.positions = v.OutLen()
			if backward {
				st.backW = make([]float64, v.OutDim()*linalg.Stride(v.InDim()))
				st.back = linalg.View(st.backW, tw.zero, tw.iota[:v.OutDim()], v.InDim())
			}
		default:
			st.rowwise = l
		}
		if st.rowwise == nil {
			st.affine = &fwd
			if tw.first < 0 {
				tw.first = len(tw.stages)
			}
		}
		tw.stages = append(tw.stages, st)
	}
	if tw.first < 0 {
		tw.first = len(tw.stages)
	}
	last := len(tw.stages)
	tw.strides = make([]int, last+1)
	for i, st := range tw.stages {
		tw.strides[i] = linalg.Stride(st.in)
	}
	tw.strides[last] = tw.outDim
	tw.acts = make([][]float64, last+1)
	tw.grads = make([][]float64, last+1)
	return tw
}

// pack copies the network's weights as they are now into the maps.
func (tw *TrainWorkspace) pack() {
	for i := range tw.stages {
		st := &tw.stages[i]
		switch v := st.layer.(type) {
		case *DenseLayer:
			transpose(st.fwdW, v.Weight.W, v.Bias.W, v.Out, v.In)
			if st.backW != nil {
				stride := linalg.Stride(v.In)
				for j := 0; j < v.Out; j++ {
					copy(st.backW[j*stride:], v.Weight.W[j*v.In:(j+1)*v.In])
				}
			}
		case *Conv1DLayer:
			patch := v.Channels * v.Kernel
			transpose(st.fwdW, v.Weight.W, v.Bias.W, v.Filters, patch)
			if st.backW != nil {
				// Row (f, p) of the unrolled matrix is filter f laid over
				// the input at position p.
				stride, outLen := linalg.Stride(v.InDim()), v.OutLen()
				for f := 0; f < v.Filters; f++ {
					for p := 0; p < outLen; p++ {
						row := st.backW[(f*outLen+p)*stride:]
						for ch := 0; ch < v.Channels; ch++ {
							copy(row[ch*v.Length+p:], v.Weight.W[f*patch+ch*v.Kernel:f*patch+(ch+1)*v.Kernel])
						}
					}
				}
			}
		}
	}
}

// transpose writes the n×k row-major w k-major into dst, rows of
// Stride(n), and the bias after them.
func transpose(dst, w, bias []float64, n, k int) {
	stride := linalg.Stride(n)
	for j := 0; j < n; j++ {
		for kk, v := range w[j*k : (j+1)*k] {
			dst[kk*stride+j] = v
		}
	}
	copy(dst[k*stride:], bias)
}

// grow makes the row buffers hold at least rows rows.
func (tw *TrainWorkspace) grow(rows int) {
	if rows <= tw.cap {
		return
	}
	tw.cap = rows
	for b := range tw.acts {
		tw.acts[b] = make([]float64, rows*tw.strides[b])
		if b > tw.first {
			tw.grads[b] = make([]float64, rows*tw.strides[b])
		}
	}
	for i := range tw.stages {
		st := &tw.stages[i]
		gs := tw.strides[i+1] // the row stride of the output gradient
		switch v := st.layer.(type) {
		case *DenseLayer:
			st.gather = make([]int, rows)
			for r := range st.gather {
				st.gather[r] = r * gs
			}
		case *Conv1DLayer:
			outLen := v.OutLen()
			st.gather = make([]int, rows*outLen)
			for k := range st.gather {
				st.gather[k] = k/outLen*gs + k%outLen
			}
			st.patches = make([]float64, rows*outLen*linalg.Stride(v.Channels*v.Kernel))
		}
	}
}

// Forward packs the network's weights as they are now and runs in
// through it, keeping every layer's activations for Backward. Row r of
// the result is bit-identical to Network.Forward on row r. The matrix
// aliases workspace memory and is valid until the next Forward.
func (tw *TrainWorkspace) Forward(in *linalg.Matrix) *linalg.Matrix {
	if in.Cols != tw.inDim || in.Rows <= 0 || len(in.Data) < in.Rows*in.Cols {
		panic(fmt.Sprintf("nn: train forward of %d rows × %d, want %d columns", in.Rows, in.Cols, tw.inDim))
	}
	tw.pack()
	tw.grow(in.Rows)
	tw.rows = in.Rows
	x, xs := tw.acts[0], tw.strides[0]
	for r := 0; r < in.Rows; r++ {
		copy(x[r*xs:], in.Row(r))
	}
	for i := range tw.stages {
		tw.stages[i].forward(tw.acts[i+1], tw.strides[i+1], tw.acts[i], tw.strides[i], in.Rows)
	}
	tw.out = linalg.Matrix{Rows: in.Rows, Cols: tw.outDim, Data: tw.acts[len(tw.stages)][:in.Rows*tw.outDim]}
	return &tw.out
}

// Backward backpropagates gradOut, the gradient of the loss with
// respect to the network output for the first gradOut.Rows rows of the
// last Forward, and sets every parameter's G to the sum of their
// gradients. The weights must be the ones that Forward packed.
func (tw *TrainWorkspace) Backward(gradOut *linalg.Matrix) {
	rows := gradOut.Rows
	if gradOut.Cols != tw.outDim || rows <= 0 || rows > tw.rows || len(gradOut.Data) < rows*tw.outDim {
		panic(fmt.Sprintf("nn: train backward of %d rows × %d after a forward of %d rows × %d",
			rows, gradOut.Cols, tw.rows, tw.outDim))
	}
	g := gradOut.Data
	for i := len(tw.stages) - 1; i >= tw.first; i-- {
		st := &tw.stages[i]
		y, ys := tw.acts[i+1], tw.strides[i+1]
		if st.relu {
			// ReLU's backward passes the gradient where its input was
			// positive, which is where its output is.
			m := tw.grads[i+1]
			for r := 0; r < rows; r++ {
				for j, v := range y[r*ys : r*ys+st.out] {
					if v > 0 {
						m[r*ys+j] = g[r*ys+j]
					} else {
						m[r*ys+j] = 0
					}
				}
			}
			g = m
		}
		st.backward(tw, i, g, rows)
		g = tw.grads[i]
	}
}

// backward sets the stage's parameter gradients from g, the gradient of
// its output (rows strides[i+1] apart), and, past the first stage with
// parameters, writes the gradient of its input to grads[i].
func (st *trainStage) backward(tw *TrainWorkspace, i int, g []float64, rows int) {
	x, xs := tw.acts[i], tw.strides[i]
	gs := tw.strides[i+1]
	gin := tw.grads[i]
	switch v := st.layer.(type) {
	case *DenseLayer:
		for j := range v.Bias.G {
			s := 0.0
			for r := 0; r < rows; r++ {
				s += g[r*gs+j]
			}
			v.Bias.G[j] = s
		}
		grad := linalg.View(x[:rows*xs], tw.zero, st.gather[:rows], v.In)
		grad.Apply(v.Weight.G, v.In, 1, g, 1, v.Out)
		if i > tw.first {
			st.back.Apply(gin, xs, 1, g, gs, rows)
		}
	case *Conv1DLayer:
		outLen, patch := v.OutLen(), v.Channels*v.Kernel
		for f := range v.Bias.G {
			s := 0.0
			for r := 0; r < rows; r++ {
				for _, gv := range g[r*gs+f*outLen : r*gs+(f+1)*outLen] {
					s += gv
				}
			}
			v.Bias.G[f] = s
		}
		ps := linalg.Stride(patch)
		for r := 0; r < rows; r++ {
			for p := 0; p < outLen; p++ {
				dst := st.patches[(r*outLen+p)*ps:]
				for ch := 0; ch < v.Channels; ch++ {
					copy(dst[ch*v.Kernel:(ch+1)*v.Kernel], x[r*xs+ch*v.Length+p:])
				}
			}
		}
		grad := linalg.View(st.patches[:rows*outLen*ps], tw.zero, st.gather[:rows*outLen], patch)
		grad.Apply(v.Weight.G, patch, 1, g, outLen, v.Filters)
		if i > tw.first {
			st.back.Apply(gin, xs, 1, g, gs, rows)
		}
	default:
		for r := 0; r < rows; r++ {
			st.layer.Backward(x[r*xs:r*xs+st.in], tw.acts[i+1][r*gs:r*gs+st.out], g[r*gs:r*gs+st.out], gin[r*xs:r*xs+st.in])
		}
	}
}

package linalg

import "fmt"

// Packed affine maps: the inference kernel.
//
// A Packed holds an N×K weight matrix transposed to k-major order
// (w[k*stride+j] = W[j][k]), its rows padded with zeros to a multiple
// of four columns, beside a bias padded the same way. Apply computes
//
//	dst[r][j] = bias[j] + Σ_k a[r][off[k]] · W[j][k]
//
// for every row r and output column j. Each output owns one
// accumulator, seeded with its bias, that takes the products in
// ascending k, every product and every sum rounded on its own — the
// rounding sequence of the scalar loop `s := bias[j]; s += w*x` in
// MatMulTBias and in nn's DenseLayer.Forward / Conv1DLayer.Forward, so
// the results are Float64bits-equal to theirs. (Which of two NaN
// operands survives an add is the compiler's choice of operand order,
// so a NaN is only guaranteed to stay a NaN, not to keep its payload.)
//
// The k-major layout puts the weights of adjacent output columns side
// by side, so on amd64 with AVX2 four columns ride the four lanes of
// one register (kernel_amd64.s): lanes are outputs, never partial sums
// of one output, and a single row — every forward the server runs is
// one — is as fast per row as a full batch. Everywhere else the
// portable loop below does the same arithmetic in the same order. The
// choice is made once, at package initialisation, from what the
// processor and the operating system report.
//
// off lets a convolution walk its Channels×Kernel patch where it lies:
// input k of the map sits off[k] elements past the row's base, and the
// row stride of a may be a single element. A dense layer's off is the
// identity.
//
// A Packed from Pack is immutable once built and safe to share between
// any number of goroutines. One from View reads memory its caller owns
// and may rewrite between calls.
type Packed struct {
	n, k   int
	stride int       // n rounded up to a whole vector
	w      []float64 // k × stride
	bias   []float64 // stride; zero past n, and everywhere when there is no bias
	off    []int     // k offsets into an input row
	span   int       // 1 + the largest offset: how much of a row the map reads
}

// lanes is the vector width the padding is cut to: four float64 to a
// 256-bit register.
const lanes = 4

// Pack copies w (N×K row-major: one row of K weights per output, as
// nn stores them) and bias (length N, or nil for none) into the packed
// layout. off, when not nil, has length K and gives the position of
// each input within a row of the matrix Apply is handed; nil means the
// K inputs are contiguous. It panics on a shape mismatch or a negative
// offset.
func Pack(w *Matrix, bias Vector, off []int) *Packed {
	n, k := w.Rows, w.Cols
	if n <= 0 || k <= 0 || len(w.Data) != n*k {
		panic(fmt.Sprintf("linalg: Pack %dx%d weights over %d values", n, k, len(w.Data)))
	}
	if bias != nil && len(bias) != n {
		panic(fmt.Sprintf("linalg: Pack bias len %d, want %d", len(bias), n))
	}
	if off != nil && len(off) != k {
		panic(fmt.Sprintf("linalg: Pack offsets len %d, want %d", len(off), k))
	}
	stride := Stride(n)
	buf := make([]float64, (k+1)*stride) // the bias right behind the weights: one run of memory per map
	for j := 0; j < n; j++ {
		for kk, v := range w.Data[j*k : (j+1)*k] {
			buf[kk*stride+j] = v
		}
	}
	copy(buf[k*stride:], bias)
	o := make([]int, k)
	for kk := range o {
		o[kk] = kk
		if off != nil {
			o[kk] = off[kk]
		}
	}
	p := View(buf[:k*stride], buf[k*stride:], o, n)
	return &p
}

// Stride is the padded width of a map with n outputs: n rounded up to
// a whole vector. Its weights are K rows of Stride(n), its bias one.
func Stride(n int) int { return (n + lanes - 1) / lanes * lanes }

// View is a map over weights its caller already holds in the packed
// layout: w is K rows of Stride(n) (w[k*Stride(n)+j] = W[j][k]), bias
// is at least Stride(n) long, and off holds the K input offsets. Nothing
// is copied: each Apply reads the slices as they are then, so their
// owner may rewrite them between calls — a trainer repacking its
// weights, or a batch of activations standing in for the weights of a
// gradient. It panics on a shape mismatch or a negative offset.
func View(w, bias []float64, off []int, n int) Packed {
	k, stride := len(off), Stride(n)
	if n <= 0 || k <= 0 || len(w) < k*stride || len(bias) < stride {
		panic(fmt.Sprintf("linalg: View %d outputs over %d offsets, %d weights, %d biases", n, k, len(w), len(bias)))
	}
	p := Packed{n: n, k: k, stride: stride, w: w, bias: bias, off: off}
	for kk, o := range off {
		if o < 0 {
			panic(fmt.Sprintf("linalg: View offset %d at %d", o, kk))
		}
		if o >= p.span {
			p.span = o + 1
		}
	}
	return p
}

// Apply runs the map over rows rows. Row r of the input starts at
// a[r*aRow]; output j of row r is written to dst[r*dstRow+j*dstCol].
// A dense layer over a [rows, K] matrix passes aRow = K, dstRow = N,
// dstCol = 1; a convolution passes aRow = 1 (the patch slides by one
// element) and scatters filter j of position r to dst[j*OutLen+r].
// dst must not overlap a. It panics when a row would fall outside
// either slice. No heap allocation.
//
//osap:hotpath
func (p *Packed) Apply(dst []float64, dstRow, dstCol int, a []float64, aRow, rows int) {
	if rows <= 0 {
		return
	}
	if dstRow < 0 || dstCol <= 0 || aRow < 0 ||
		(rows-1)*aRow+p.span > len(a) ||
		(rows-1)*dstRow+(p.n-1)*dstCol >= len(dst) {
		panic(fmt.Sprintf("linalg: Apply %d rows of %d→%d (strides a %d, dst %d/%d) outside a[%d] / dst[%d]",
			rows, p.k, p.n, aRow, dstRow, dstCol, len(a), len(dst)))
	}
	if useAVX2 {
		affineAVX2(&dst[0], dstRow, dstCol, &a[0], aRow, rows, &p.w[0], &p.bias[0], &p.off[0], p.n, p.k)
		return
	}
	p.applyPortable(dst, dstRow, dstCol, a, aRow, rows)
}

// applyPortable is Apply in plain Go: the path of every processor
// without AVX2 and every architecture other than amd64, and the loop
// the tests hold the assembly to. It takes the columns four at a time
// like one register of the assembly does, so the padding is what lets
// it read whole groups. Shapes are Apply's to check.
func (p *Packed) applyPortable(dst []float64, dstRow, dstCol int, a []float64, aRow, rows int) {
	for r := 0; r < rows; r++ {
		x := a[r*aRow:]
		d := dst[r*dstRow:]
		for j := 0; j < p.n; j += lanes {
			for i, s := range p.group(x, j) {
				if j+i < p.n {
					d[(j+i)*dstCol] = s
				}
			}
		}
	}
}

// group returns outputs j..j+3 of the row x: what one register of the
// assembly holds when a block is done. (A function of its own so that
// the compiler keeps the four sums and the loop counter in registers.)
func (p *Packed) group(x []float64, j int) [lanes]float64 {
	b := p.bias[j : j+lanes]
	s0, s1, s2, s3 := b[0], b[1], b[2], b[3]
	w, stride := p.w, p.stride
	for _, o := range p.off {
		xv := x[o]
		wk := w[j : j+lanes]
		j += stride
		s0 += xv * wk[0]
		s1 += xv * wk[1]
		s2 += xv * wk[2]
		s3 += xv * wk[3]
	}
	return [lanes]float64{s0, s1, s2, s3}
}

// ReLU writes max(0, src[i]) to dst[i]; −0 and NaN both become +0, as
// in the scalar `if x > 0 { x } else { 0 }`. dst may be src. It panics
// when the lengths differ. No heap allocation.
//
//osap:hotpath
func ReLU(dst, src []float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("linalg: ReLU length mismatch %d vs %d", len(dst), len(src)))
	}
	if len(src) == 0 {
		return
	}
	if useAVX2 {
		reluAVX2(&dst[0], &src[0], len(src))
		return
	}
	reluPortable(dst, src)
}

// reluPortable is ReLU in plain Go; see applyPortable.
func reluPortable(dst, src []float64) {
	for i, x := range src {
		if x > 0 {
			dst[i] = x
		} else {
			dst[i] = 0
		}
	}
}

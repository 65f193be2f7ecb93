package linalg

import "fmt"

// MatMulTBias computes dst = bias·1ᵀ + a·bᵀ: dst[i][j] = bias[j] +
// Σ_k a[i][k]·b[j][k], the batched form of an affine layer with weight
// rows b (row-major out×in, as DenseLayer stores them). bias may be
// nil for a plain transposed product. dst must be a.Rows×b.Rows and
// a.Cols must equal b.Cols; it panics otherwise. dst may not alias a
// or b.
//
// Every output element is a single dot product of two contiguous rows
// seeded with its bias, accumulated in ascending k — bit-identical to
// DenseLayer.Forward on each row of a. This is the plain statement of
// the arithmetic that Packed.Apply must reproduce, and the loop its
// tests compare against; inference itself runs on Packed.
//
//osap:hotpath
func MatMulTBias(dst, a, b *Matrix, bias Vector) {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MatMulTBias inner dim mismatch %d vs %d", a.Cols, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMulTBias dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Rows))
	}
	if bias != nil && len(bias) != b.Rows {
		panic(fmt.Sprintf("linalg: MatMulTBias bias len %d, want %d", len(bias), b.Rows))
	}
	n, kk := b.Rows, a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*kk : (i+1)*kk]
		drow := dst.Data[i*n : (i+1)*n]
		for j := range drow {
			brow := b.Data[j*kk : (j+1)*kk]
			var s float64
			if bias != nil {
				s = bias[j]
			}
			for k, av := range arow {
				s += av * brow[k]
			}
			drow[j] = s
		}
	}
}

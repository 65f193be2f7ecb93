package linalg

import (
	"fmt"
	"math"
)

// The Vector and Matrix methods below are called by no shipping code;
// only this package's unit tests use them, so they live in a test file
// and the package's non-test code keeps no function without a caller.

// Dot returns the inner product of v and w. It panics on length mismatch.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// AddScaled adds alpha*w to v in place (axpy). It panics on length
// mismatch.
func (v Vector) AddScaled(alpha float64, w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("linalg: AddScaled length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] += alpha * w[i]
	}
}

// Scale multiplies v by alpha in place.
func (v Vector) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of v.
func (v Vector) Norm2() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: append([]float64(nil), m.Data...)}
}

// Zero sets every element to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes dst = m · x. dst must have length m.Rows and x length
// m.Cols; it panics otherwise. dst may not alias x.
func (m *Matrix) MulVec(dst, x Vector) {
	if len(x) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec shape mismatch: %dx%d by %d into %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var s float64
		for j, w := range row {
			s += w * x[j]
		}
		dst[i] = s
	}
}

// MulVecT computes dst = mᵀ · x (multiply by the transpose). dst must
// have length m.Cols and x length m.Rows; it panics otherwise.
func (m *Matrix) MulVecT(dst, x Vector) {
	if len(x) != m.Rows || len(dst) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVecT shape mismatch: %dx%d^T by %d into %d",
			m.Rows, m.Cols, len(x), len(dst)))
	}
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, w := range row {
			dst[j] += w * xi
		}
	}
}

// AddOuterScaled accumulates m += alpha · x·yᵀ, the rank-1 update used to
// accumulate weight gradients. x must have length m.Rows and y length
// m.Cols; it panics otherwise.
func (m *Matrix) AddOuterScaled(alpha float64, x, y Vector) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("linalg: AddOuterScaled shape mismatch: %dx%d vs %d,%d",
			m.Rows, m.Cols, len(x), len(y)))
	}
	for i := 0; i < m.Rows; i++ {
		axi := alpha * x[i]
		if axi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, yj := range y {
			row[j] += axi * yj
		}
	}
}

// AddScaled accumulates m += alpha·other element-wise. It panics on shape
// mismatch.
func (m *Matrix) AddScaled(alpha float64, other *Matrix) {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: AddScaled shape mismatch")
	}
	for i, v := range other.Data {
		m.Data[i] += alpha * v
	}
}

// Scale multiplies every element by alpha.
func (m *Matrix) Scale(alpha float64) {
	for i := range m.Data {
		m.Data[i] *= alpha
	}
}

// FrobeniusNorm returns the Frobenius norm of m.
func (m *Matrix) FrobeniusNorm() float64 { return Vector(m.Data).Norm2() }

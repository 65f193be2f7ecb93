// Package linalg provides the small dense linear-algebra kernel used by
// the neural-network package: contiguous row-major matrices and vectors,
// the batched product MatMulTBias, and the packed weights inference and
// training run on. It deliberately implements only
// what the actor-critic networks need, with bounds-checked constructors
// and panics on shape mismatches (programmer errors, not runtime
// conditions).
package linalg

import "fmt"

// Vector is a dense float64 vector.
type Vector []float64

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector { return append(Vector(nil), v...) }

// Fill sets every element to x.
func (v Vector) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Zero sets every element to 0.
func (v Vector) Zero() { v.Fill(0) }

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zero Rows×Cols matrix. It panics if either
// dimension is non-positive.
func NewMatrix(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("linalg: invalid matrix shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Row returns a slice aliasing row i.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

package linalg

import "testing"

func TestVectorCloneIndependent(t *testing.T) {
	v := Vector{1, 2}
	c := v.Clone()
	c[0] = 99
	if v[0] != 1 {
		t.Error("Clone aliases original")
	}
}

func TestMatrixAtSet(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Data[5] = 7
	if m.At(1, 2) != 7 {
		t.Error("At does not read row-major layout")
	}
	if m.Row(1)[2] != 7 {
		t.Error("Row does not alias row-major layout")
	}
}

func TestNewMatrixPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	NewMatrix(0, 3)
}

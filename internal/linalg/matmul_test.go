package linalg

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMatMulTBiasMatchesMulVecBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	shapes := [][3]int{ // batch, in, out
		{1, 3, 2}, {7, 48, 80}, {64, 80, 64}, {129, 64, 6}, {200, 70, 130},
	}
	for _, s := range shapes {
		batch, in, out := s[0], s[1], s[2]
		a := randMatrix(rng, batch, in)
		w := randMatrix(rng, out, in)
		bias := NewVector(out)
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		dst := NewMatrix(batch, out)
		MatMulTBias(dst, a, w, bias)

		// Reference: the affine GEMV each session would run alone,
		// bias-seeded ascending-k dot per output element.
		ref := NewVector(out)
		for r := 0; r < batch; r++ {
			row := a.Row(r)
			for i := 0; i < out; i++ {
				s := bias[i]
				wrow := w.Row(i)
				for k, x := range row {
					s += wrow[k] * x
				}
				ref[i] = s
			}
			for i := range ref {
				if math.Float64bits(dst.At(r, i)) != math.Float64bits(ref[i]) {
					t.Fatalf("shape %v row %d col %d: %g vs %g (not bit-identical)", s, r, i, dst.At(r, i), ref[i])
				}
			}
		}
	}
}

func TestMatMulTBiasNilBias(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMatrix(rng, 5, 8)
	b := randMatrix(rng, 4, 8)
	dst := NewMatrix(5, 4)
	MatMulTBias(dst, a, b, nil)
	for r := 0; r < 5; r++ {
		for j := 0; j < 4; j++ {
			var s float64
			for k := 0; k < 8; k++ {
				s += a.At(r, k) * b.At(j, k)
			}
			if math.Float64bits(dst.At(r, j)) != math.Float64bits(s) {
				t.Fatalf("(%d,%d): %g vs %g", r, j, dst.At(r, j), s)
			}
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(4, 2)
	dst := NewMatrix(2, 2)
	for name, f := range map[string]func(){
		"inner":      func() { MatMulTBias(dst, a, b, nil) },
		"dst":        func() { MatMulTBias(NewMatrix(3, 3), a, NewMatrix(2, 3), nil) },
		"tbias-bias": func() { MatMulTBias(NewMatrix(2, 4), a, NewMatrix(4, 3), NewVector(2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on shape mismatch", name)
				}
			}()
			f()
		}()
	}
}

func BenchmarkMatMulTBias256x48x80(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := randMatrix(rng, 256, 48)
	w := randMatrix(rng, 80, 48)
	bias := NewVector(80)
	dst := NewMatrix(256, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTBias(dst, a, w, bias)
	}
}

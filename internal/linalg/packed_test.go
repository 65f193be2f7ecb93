package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// sameBits compares two results element by element. A NaN matches any
// NaN: which payload survives an add of two NaNs is not part of the
// contract (see Packed).
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: element %d = %g (%#x), want %g (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestApplyMatchesMatMulTBias is the kernel's contract: whatever
// Apply dispatches to, and the portable loop called directly, both
// equal the scalar reference bit for bit — on the shapes the networks
// have (16 filters, 64 hidden, the 6-wide action head, the 1-wide
// value head), on every n%4 tail, at k = 1, with and without a bias,
// at batch 1, 2, 31 and 32. On a machine with AVX2 the first
// comparison holds the assembly to the reference; the second runs on
// every machine.
func TestApplyMatchesMatMulTBias(t *testing.T) {
	t.Logf("AVX2 kernels in use: %v", useAVX2)
	rng := rand.New(rand.NewSource(16))
	shapes := [][2]int{{80, 64}, {64, 6}, {64, 1}, {24, 16}, {1, 1}, {1, 5}, {3, 2}, {7, 3}, {128, 64}}
	for i := 0; i < 400; i++ {
		shapes = append(shapes, [2]int{1 + rng.Intn(90), 1 + rng.Intn(70)})
	}
	for si, s := range shapes {
		k, n := s[0], s[1]
		for _, rows := range []int{1, 2, 31, 32} {
			if si >= 40 && rows != 1+si%32 { // random shapes: one batch size each
				continue
			}
			a := randMatrix(rng, rows, k)
			w := randMatrix(rng, n, k)
			var bias Vector
			if si%3 != 0 {
				bias = Vector(randMatrix(rng, 1, n).Data)
			}
			want := NewMatrix(rows, n)
			MatMulTBias(want, a, w, bias)

			p := Pack(w, bias, nil)
			got := NewMatrix(rows, n)
			p.Apply(got.Data, n, 1, a.Data, k, rows)
			sameBits(t, "dispatch", got.Data, want.Data)
			got.Zero()
			p.applyPortable(got.Data, n, 1, a.Data, k, rows)
			sameBits(t, "portable", got.Data, want.Data)
		}
	}
}

// TestApplyGatherScatter drives the strides a convolution uses: the
// inputs of a row picked through offsets, rows one element apart, the
// outputs of a row written a stride apart. Reference: the definition.
func TestApplyGatherScatter(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		channels, length := 1+rng.Intn(6), 1+rng.Intn(12)
		kernel := 1 + rng.Intn(length)
		n := 1 + rng.Intn(24)
		rows := length - kernel + 1
		k := channels * kernel
		off := make([]int, 0, k)
		for ch := 0; ch < channels; ch++ {
			for i := 0; i < kernel; i++ {
				off = append(off, ch*length+i)
			}
		}
		w := randMatrix(rng, n, k)
		bias := Vector(randMatrix(rng, 1, n).Data)
		a := randMatrix(rng, 1, channels*length).Data
		want := make([]float64, n*rows+1)
		got := make([]float64, n*rows+1)
		guard := rng.NormFloat64() // one element past the end must survive
		want[n*rows], got[n*rows] = guard, guard
		for r := 0; r < rows; r++ {
			for j := 0; j < n; j++ {
				s := bias[j]
				for kk, o := range off {
					s += w.At(j, kk) * a[r+o]
				}
				want[j*rows+r] = s
			}
		}
		p := Pack(w, bias, off)
		p.Apply(got[:n*rows], 1, rows, a, 1, rows)
		sameBits(t, "dispatch", got, want)
		for i := range got[:n*rows] {
			got[i] = 0
		}
		p.applyPortable(got[:n*rows], 1, rows, a, 1, rows)
		sameBits(t, "portable", got, want)
	}
}

// TestApplyGradientGather drives the shape a weight gradient has: a
// View over a batch of K activation rows as the weights, the batch as
// k, and output gradients gathered a row apart (aRow 1, off[k] = k·n),
// one map row per output of the layer. Reference: the scalar loop a
// per-row backward runs, G[i][j] += g[k][i]·x[k][j] for k ascending,
// starting from zero.
func TestApplyGradientGather(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 300; trial++ {
		batch, in, out := 1+rng.Intn(150), 1+rng.Intn(90), 1+rng.Intn(70)
		if trial%3 == 0 {
			batch = 1
		}
		stride := Stride(in)
		x := make([]float64, batch*stride)
		for r := 0; r < batch; r++ {
			for j := 0; j < in; j++ {
				x[r*stride+j] = rng.NormFloat64()
			}
		}
		g := randMatrix(rng, batch, out)
		for i := range g.Data {
			if rng.Intn(4) == 0 {
				g.Data[i] = 0 // what a ReLU leaves behind
			}
		}
		off := make([]int, batch)
		for r := range off {
			off[r] = r * out
		}
		want := make([]float64, out*in)
		for r := 0; r < batch; r++ {
			for i := 0; i < out; i++ {
				for j := 0; j < in; j++ {
					want[i*in+j] += g.At(r, i) * x[r*stride+j]
				}
			}
		}
		p := View(x, make([]float64, stride), off, in)
		got := make([]float64, out*in)
		p.Apply(got, in, 1, g.Data, 1, out)
		sameBits(t, "dispatch", got, want)
		clear(got)
		p.applyPortable(got, in, 1, g.Data, 1, out)
		sameBits(t, "portable", got, want)
	}
}

// TestApplyNonFinite: infinities and NaNs in inputs and weights come
// out where the scalar loop puts them.
func TestApplyNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64, math.Copysign(0, -1), 5e-324}
	for trial := 0; trial < 100; trial++ {
		k, n, rows := 1+rng.Intn(40), 1+rng.Intn(20), 1+rng.Intn(3)
		a, w := randMatrix(rng, rows, k), randMatrix(rng, n, k)
		for i := 0; i < 3; i++ {
			a.Data[rng.Intn(len(a.Data))] = special[rng.Intn(len(special))]
			w.Data[rng.Intn(len(w.Data))] = special[rng.Intn(len(special))]
		}
		want, got := NewMatrix(rows, n), NewMatrix(rows, n)
		MatMulTBias(want, a, w, nil)
		p := Pack(w, nil, nil)
		p.Apply(got.Data, n, 1, a.Data, k, rows)
		sameBits(t, "dispatch", got.Data, want.Data)
		p.applyPortable(got.Data, n, 1, a.Data, k, rows)
		sameBits(t, "portable", got.Data, want.Data)
	}
}

func TestReLUTable(t *testing.T) {
	negZero := math.Copysign(0, -1)
	negNaN := math.Float64frombits(0xFFF8000000000001)
	sNaN := math.Float64frombits(0x7FF0000000000001)
	in := []float64{
		0, negZero, math.NaN(), negNaN, sNaN, math.Inf(1), math.Inf(-1),
		5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 1.5, -1.5,
		math.SmallestNonzeroFloat64 * 3, 2.2250738585072014e-308, -2.2250738585072014e-308,
		7, -7, 1e-300,
	}
	want := make([]float64, len(in))
	for i, x := range in {
		if x > 0 {
			want[i] = x
		}
	}
	// Every length from 0 up, so the specials meet both the vector
	// body and the scalar tail, at every alignment of the two.
	for n := 0; n <= len(in); n++ {
		for shift := 0; shift+n <= len(in); shift++ {
			for name, relu := range map[string]func(dst, src []float64){"dispatch": ReLU, "portable": reluPortable} {
				got := make([]float64, n+1)
				got[n] = -3 // must survive
				relu(got[:n], in[shift:shift+n])
				for i := 0; i < n; i++ {
					if math.Float64bits(got[i]) != math.Float64bits(want[shift+i]) {
						t.Fatalf("%s n=%d shift=%d: ReLU(%g) = %g (%#x), want %g", name, n, shift,
							in[shift+i], got[i], math.Float64bits(got[i]), want[shift+i])
					}
				}
				if got[n] != -3 {
					t.Fatalf("%s n=%d: wrote past the end", name, n)
				}
			}
		}
	}
	// In place.
	buf := append([]float64(nil), in...)
	ReLU(buf, buf)
	for i := range buf {
		if math.Float64bits(buf[i]) != math.Float64bits(want[i]) {
			t.Fatalf("in place: ReLU(%g) = %g, want %g", in[i], buf[i], want[i])
		}
	}
}

func TestApplyPanics(t *testing.T) {
	p := Pack(NewMatrix(3, 4), nil, nil)
	a, dst := make([]float64, 8), make([]float64, 6)
	for name, f := range map[string]func(){
		"short-a":    func() { p.Apply(dst, 3, 1, a[:7], 4, 2) },
		"short-dst":  func() { p.Apply(dst[:5], 3, 1, a, 4, 2) },
		"col-stride": func() { p.Apply(dst, 3, 0, a, 4, 2) },
		"pack-bias":  func() { Pack(NewMatrix(3, 4), NewVector(2), nil) },
		"pack-off":   func() { Pack(NewMatrix(3, 4), nil, []int{0, 1, 2}) },
		"pack-neg":   func() { Pack(NewMatrix(3, 4), nil, []int{0, 1, 2, -1}) },
		"view-w":     func() { View(make([]float64, 7), make([]float64, 4), []int{0, 1}, 3) },
		"view-bias":  func() { View(make([]float64, 8), make([]float64, 3), []int{0, 1}, 3) },
		"relu":       func() { ReLU(dst, a) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
	p.Apply(dst, 3, 1, a, 4, 0) // no rows: nothing to do, nothing to check
}

func TestApplyZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a, w := randMatrix(rng, 32, 80), randMatrix(rng, 64, 80)
	p := Pack(w, NewVector(64), nil)
	dst := NewMatrix(32, 64)
	if allocs := testing.AllocsPerRun(50, func() {
		p.Apply(dst.Data, 64, 1, a.Data, 80, 32)
		ReLU(dst.Data, dst.Data)
	}); allocs != 0 {
		t.Fatalf("Apply+ReLU allocate %.1f/op, want 0", allocs)
	}
}

func benchApply(b *testing.B, rows, k, n int, portable bool) {
	rng := rand.New(rand.NewSource(4))
	a, w := randMatrix(rng, rows, k), randMatrix(rng, n, k)
	p := Pack(w, NewVector(n), nil)
	dst := NewMatrix(rows, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if portable {
			p.applyPortable(dst.Data, n, 1, a.Data, k, rows)
		} else {
			p.Apply(dst.Data, n, 1, a.Data, k, rows)
		}
	}
}

func BenchmarkApply1x80x64(b *testing.B)          { benchApply(b, 1, 80, 64, false) }
func BenchmarkApply32x80x64(b *testing.B)         { benchApply(b, 32, 80, 64, false) }
func BenchmarkApply1x64x6(b *testing.B)           { benchApply(b, 1, 64, 6, false) }
func BenchmarkApplyPortable1x80x64(b *testing.B)  { benchApply(b, 1, 80, 64, true) }
func BenchmarkApplyPortable32x80x64(b *testing.B) { benchApply(b, 32, 80, 64, true) }

// BenchmarkApplyConv5x24x16 is the networks' convolution: 6 channels of
// 8, kernel 4, 16 filters — five positions, inputs gathered, outputs
// scattered.
func BenchmarkApplyConv5x24x16(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var off []int
	for ch := 0; ch < 6; ch++ {
		for i := 0; i < 4; i++ {
			off = append(off, ch*8+i)
		}
	}
	p := Pack(randMatrix(rng, 16, 24), NewVector(16), off)
	a, dst := randMatrix(rng, 1, 48).Data, make([]float64, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Apply(dst, 1, 5, a, 1, 5)
	}
}

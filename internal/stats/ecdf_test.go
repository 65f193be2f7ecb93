package stats

import (
	"testing"
	"testing/quick"
)

func TestECDFBasic(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3, 4})
	cases := []struct{ x, want float64 }{
		{0, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {5, 1},
	}
	for _, c := range cases {
		if got := e.At(c.x); got != c.want {
			t.Errorf("At(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestECDFDuplicates(t *testing.T) {
	e := NewECDF([]float64{1, 1, 1, 2})
	if got := e.At(1); got != 0.75 {
		t.Errorf("At(1) = %v, want 0.75", got)
	}
}

func TestECDFEmpty(t *testing.T) {
	e := NewECDF(nil)
	if e.At(0) != 0 || len(e.sorted) != 0 {
		t.Error("empty ECDF should be identically 0")
	}
}

func TestECDFMonotoneProperty(t *testing.T) {
	r := NewRNG(41)
	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	e := NewECDF(xs)
	if err := quick.Check(func(a, b float64) bool {
		lo, hi := a, b
		if lo > hi {
			lo, hi = hi, lo
		}
		return e.At(lo) <= e.At(hi)
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestECDFPoints(t *testing.T) {
	e := NewECDF([]float64{3, 1, 1, 2})
	xs, fs := e.Points()
	wantX := []float64{1, 2, 3}
	wantF := []float64{0.5, 0.75, 1}
	if len(xs) != 3 {
		t.Fatalf("Points xs = %v", xs)
	}
	for i := range wantX {
		if xs[i] != wantX[i] || fs[i] != wantF[i] {
			t.Fatalf("Points = %v/%v, want %v/%v", xs, fs, wantX, wantF)
		}
	}
}

func TestECDFQuantileRoundTrip(t *testing.T) {
	xs := []float64{10, 20, 30, 40, 50}
	e := NewECDF(xs)
	if q := Quantile(e.sorted, 0.5); q != 30 {
		t.Errorf("Quantile(0.5) = %v, want 30", q)
	}
}

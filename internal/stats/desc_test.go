package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceKnown(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if m := Mean(xs); m != 5 {
		t.Errorf("Mean = %v, want 5", m)
	}
	if v := Variance(xs); v != 4 {
		t.Errorf("Variance = %v, want 4", v)
	}
	if s := Std(xs); s != 2 {
		t.Errorf("Std = %v, want 2", s)
	}
}

func TestEmptyInputs(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Median(nil) != 0 {
		t.Error("empty-slice stats should be 0")
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Error("Min/Max of empty slice should be ±Inf")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5}, {-1, 1}, {2, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.3); !almostEqual(got, 3, 1e-12) {
		t.Errorf("Quantile(0.3) = %v, want 3", got)
	}
}

func TestMedianEvenOdd(t *testing.T) {
	if m := Median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v, want 2", m)
	}
	if m := Median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{5, 1, 3}
	Quantile(xs, 0.5)
	if xs[0] != 5 || xs[1] != 1 || xs[2] != 3 {
		t.Error("Quantile mutated its input")
	}
}

func TestWelfordMatchesBatch(t *testing.T) {
	r := NewRNG(21)
	if err := quick.Check(func(seed uint16) bool {
		rr := NewRNG(uint64(seed))
		n := 2 + r.Intn(100)
		xs := make([]float64, n)
		var w Welford
		for i := range xs {
			xs[i] = rr.NormFloat64() * 10
			w.Add(xs[i])
		}
		return almostEqual(w.mean, Mean(xs), 1e-9) &&
			almostEqual(w.Variance(), Variance(xs), 1e-9)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Min != 1 || s.Max != 4 || s.Mean != 2.5 || s.Median != 2.5 {
		t.Errorf("unexpected summary: %+v", s)
	}
}

func TestRollingWindowEviction(t *testing.T) {
	rw := NewRollingWindow(3)
	for i := 1; i <= 5; i++ {
		rw.Add(float64(i))
	}
	vals := rw.ValuesInto(nil)
	want := []float64{3, 4, 5}
	if len(vals) != 3 {
		t.Fatalf("len = %d, want 3", len(vals))
	}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Values() = %v, want %v", vals, want)
		}
	}
	if !rw.Full() {
		t.Error("window should be full")
	}
	if rw.Mean() != 4 {
		t.Errorf("Mean = %v, want 4", rw.Mean())
	}
}

func TestRollingWindowPartial(t *testing.T) {
	rw := NewRollingWindow(5)
	rw.Add(2)
	rw.Add(4)
	if rw.Full() {
		t.Error("window of 2/5 reported full")
	}
	if rw.Len() != 2 || rw.Mean() != 3 {
		t.Errorf("Len=%d Mean=%v, want 2, 3", rw.Len(), rw.Mean())
	}
	vals := rw.ValuesInto(nil)
	if len(vals) != 2 || vals[0] != 2 || vals[1] != 4 {
		t.Errorf("Values = %v", vals)
	}
}

func TestRollingWindowReset(t *testing.T) {
	rw := NewRollingWindow(2)
	rw.Add(1)
	rw.Add(2)
	rw.Add(3)
	rw.Reset()
	if rw.Len() != 0 || rw.Full() {
		t.Error("reset window not empty")
	}
	rw.Add(9)
	if rw.Mean() != 9 {
		t.Errorf("post-reset mean = %v, want 9", rw.Mean())
	}
}

func TestRollingWindowVarianceMatchesBatch(t *testing.T) {
	rw := NewRollingWindow(4)
	data := []float64{1, 7, 3, 9, 5, 11}
	for _, x := range data {
		rw.Add(x)
	}
	want := Variance(data[2:]) // last 4
	if got := rw.Variance(); !almostEqual(got, want, 1e-12) {
		t.Errorf("window variance = %v, want %v", got, want)
	}
}

func TestNewRollingWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRollingWindow(0) did not panic")
		}
	}()
	NewRollingWindow(0)
}

func TestBootstrapCICoversMean(t *testing.T) {
	rng := NewRNG(51)
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = 5 + 2*rng.NormFloat64()
	}
	lo, hi := BootstrapCI(xs, Mean, 500, 0.95, NewRNG(52))
	if lo >= hi {
		t.Fatalf("degenerate CI [%v, %v]", lo, hi)
	}
	if lo > 5 || hi < 5 {
		t.Errorf("95%% CI [%v, %v] misses the true mean 5", lo, hi)
	}
	// Width should be roughly 4·σ/√n ≈ 0.56.
	if hi-lo > 1.2 || hi-lo < 0.2 {
		t.Errorf("CI width %v implausible", hi-lo)
	}
}

func TestBootstrapCIDegenerate(t *testing.T) {
	if lo, hi := BootstrapCI(nil, Mean, 100, 0.95, NewRNG(1)); lo != 0 || hi != 0 {
		t.Error("empty input should give zero interval")
	}
	lo, hi := BootstrapCI([]float64{7}, Mean, 100, 0.95, NewRNG(1))
	if lo != 7 || hi != 7 {
		t.Errorf("single observation CI = [%v, %v], want [7,7]", lo, hi)
	}
}

func TestBootstrapCIDeterministic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	lo1, hi1 := BootstrapCI(xs, Median, 200, 0.9, NewRNG(9))
	lo2, hi2 := BootstrapCI(xs, Median, 200, 0.9, NewRNG(9))
	if lo1 != lo2 || hi1 != hi2 {
		t.Error("bootstrap not deterministic for a fixed RNG")
	}
}

package stats

import (
	"math"
	"testing"
)

// checkMoments draws n samples and verifies the empirical mean/variance
// against the sampler's analytic values within a relative tolerance.
func checkMoments(t *testing.T, s Sampler, n int, tol float64) {
	t.Helper()
	r := NewRNG(1234)
	var w Welford
	for i := 0; i < n; i++ {
		w.Add(s.Sample(r))
	}
	wantMean, wantVar := s.Mean(), s.Variance()
	scale := math.Max(math.Abs(wantMean), 1)
	if math.Abs(w.mean-wantMean) > tol*scale {
		t.Errorf("%s: empirical mean %v, want %v", s, w.mean, wantMean)
	}
	vscale := math.Max(wantVar, 1)
	if math.Abs(w.Variance()-wantVar) > 2*tol*vscale {
		t.Errorf("%s: empirical variance %v, want %v", s, w.Variance(), wantVar)
	}
}

func TestUniformMoments(t *testing.T)     { checkMoments(t, Uniform{2, 6}, 200000, 0.02) }
func TestNormalMoments(t *testing.T)      { checkMoments(t, Normal{3, 2}, 200000, 0.02) }
func TestExponentialMoments(t *testing.T) { checkMoments(t, Exponential{Scale: 1}, 200000, 0.02) }

// The four synthetic datasets from the paper (§3.1).
func TestGamma12Moments(t *testing.T) { checkMoments(t, Gamma{Shape: 1, Scale: 2}, 200000, 0.03) }
func TestGamma22Moments(t *testing.T) { checkMoments(t, Gamma{Shape: 2, Scale: 2}, 200000, 0.03) }
func TestLogisticMoments(t *testing.T) {
	checkMoments(t, Logistic{Mu: 4, S: 0.5}, 200000, 0.02)
}

func TestGammaShapeBelowOne(t *testing.T) {
	checkMoments(t, Gamma{Shape: 0.5, Scale: 2}, 300000, 0.05)
}

func TestLogNormalMoments(t *testing.T) {
	checkMoments(t, LogNormal{Mu: 0, Sigma: 0.5}, 300000, 0.03)
}

func TestGammaPositive(t *testing.T) {
	r := NewRNG(2)
	g := Gamma{Shape: 1, Scale: 2}
	for i := 0; i < 10000; i++ {
		if v := g.Sample(r); v < 0 {
			t.Fatalf("gamma variate negative: %v", v)
		}
	}
}

func TestTruncatedBounds(t *testing.T) {
	r := NewRNG(3)
	tr := Truncated{Base: Normal{0, 5}, Low: 0, High: 6}
	for i := 0; i < 10000; i++ {
		v := tr.Sample(r)
		if v < 0 || v > 6 {
			t.Fatalf("truncated sample out of [0,6]: %v", v)
		}
	}
}

func TestTruncatedDegenerateClamps(t *testing.T) {
	// A base distribution that essentially never lands in the band must
	// still terminate and return a clamped value.
	r := NewRNG(4)
	tr := Truncated{Base: Normal{100, 0.001}, Low: 0, High: 1}
	v := tr.Sample(r)
	if v != 1 {
		t.Fatalf("degenerate truncation = %v, want clamp to 1", v)
	}
}

func TestSamplerStrings(t *testing.T) {
	cases := []struct {
		s    Sampler
		want string
	}{
		{Gamma{1, 2}, "Gamma(1,2)"},
		{Logistic{4, 0.5}, "Logistic(4,0.5)"},
		{Exponential{1}, "Exponential(1)"},
		{Uniform{0, 1}, "Uniform(0,1)"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

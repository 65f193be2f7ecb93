package stats

import (
	"fmt"
	"math"
	"testing"
)

// analytic is each tested distribution's mean and variance.
var analytic = map[Sampler]struct{ mean, variance float64 }{
	Uniform{2, 6}:                {4, 16.0 / 12},
	Normal{3, 2}:                 {3, 4},
	Exponential{Scale: 1}:        {1, 1},
	Gamma{Shape: 1, Scale: 2}:    {2, 4},
	Gamma{Shape: 2, Scale: 2}:    {4, 8},
	Gamma{Shape: 0.5, Scale: 2}:  {1, 2},
	Logistic{Mu: 4, S: 0.5}:      {4, 0.25 * math.Pi * math.Pi / 3},
	LogNormal{Mu: 0, Sigma: 0.5}: {math.Exp(0.125), (math.Exp(0.25) - 1) * math.Exp(0.25)},
}

// checkMoments draws n samples and verifies the empirical mean/variance
// against the sampler's analytic values within a relative tolerance.
func checkMoments(t *testing.T, s Sampler, n int, tol float64) {
	t.Helper()
	want, ok := analytic[s]
	if !ok {
		t.Fatalf("%v: no analytic moments", s)
	}
	r := NewRNG(1234)
	var w Welford
	for i := 0; i < n; i++ {
		w.Add(s.Sample(r))
	}
	if math.Abs(w.mean-want.mean) > tol*math.Max(math.Abs(want.mean), 1) {
		t.Errorf("%v: empirical mean %v, want %v", s, w.mean, want.mean)
	}
	if math.Abs(w.Variance()-want.variance) > 2*tol*math.Max(want.variance, 1) {
		t.Errorf("%v: empirical variance %v, want %v", s, w.Variance(), want.variance)
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

func TestSamplerStrings(t *testing.T) {
	cases := []struct {
		s    fmt.Stringer
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

package stats

import (
	"fmt"
	"math"
)

// Sampler draws variates from a fixed distribution using the supplied
// generator. Implementations are immutable and safe for concurrent use
// (the RNG carries all mutable state).
type Sampler interface {
	// Sample draws one variate.
	Sample(r *RNG) float64
}

// Uniform is the continuous uniform distribution on [Low, High). Only
// tests draw from it (core's and osap-monitor's among them), so its
// methods carry deadcode suppressions.
type Uniform struct {
	Low, High float64
}

// Sample implements Sampler.
func (u Uniform) Sample(r *RNG) float64 { return u.Low + (u.High-u.Low)*r.Float64() } //osap:ignore deadcode test sampler for core and osap-monitor tests

func (u Uniform) String() string { return fmt.Sprintf("Uniform(%g,%g)", u.Low, u.High) } //osap:ignore deadcode test sampler for core and osap-monitor tests

// Normal is the Gaussian distribution with mean Mu and standard deviation
// Sigma. Only tests draw from it (core's, trace's and osap-monitor's
// among them), so its methods carry deadcode suppressions.
type Normal struct {
	Mu, Sigma float64
}

// Sample implements Sampler.
func (n Normal) Sample(r *RNG) float64 { return n.Mu + n.Sigma*r.NormFloat64() } //osap:ignore deadcode test sampler for core, trace and osap-monitor tests

func (n Normal) String() string { return fmt.Sprintf("Normal(%g,%g)", n.Mu, n.Sigma) } //osap:ignore deadcode test sampler for core, trace and osap-monitor tests

// Exponential is the exponential distribution parameterized by Scale
// (mean), matching the paper's "Exponential with scale 1".
type Exponential struct {
	Scale float64
}

// Sample implements Sampler.
func (e Exponential) Sample(r *RNG) float64 { return e.Scale * r.ExpFloat64() }

func (e Exponential) String() string { return fmt.Sprintf("Exponential(%g)", e.Scale) }

// Gamma is the gamma distribution with the given Shape (k) and Scale (θ),
// matching the paper's Gamma(1,2) and Gamma(2,2) synthetic datasets.
type Gamma struct {
	Shape, Scale float64
}

// Sample implements Sampler using the Marsaglia–Tsang method, with the
// standard shape<1 boost.
func (g Gamma) Sample(r *RNG) float64 {
	shape := g.Shape
	boost := 1.0
	if shape < 1 {
		// Gamma(k) = Gamma(k+1) * U^{1/k}.
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		boost = math.Pow(u, 1/shape)
		shape++
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u == 0 {
			continue
		}
		x2 := x * x
		if u < 1-0.0331*x2*x2 || math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return g.Scale * boost * d * v
		}
	}
}

func (g Gamma) String() string { return fmt.Sprintf("Gamma(%g,%g)", g.Shape, g.Scale) }

// Logistic is the logistic distribution with location Mu and scale S,
// matching the paper's Logistic(μ=4, scale=0.5) synthetic dataset.
type Logistic struct {
	Mu, S float64
}

// Sample implements Sampler via inverse-transform sampling.
func (l Logistic) Sample(r *RNG) float64 {
	u := r.Float64()
	for u == 0 || u == 1 {
		u = r.Float64()
	}
	return l.Mu + l.S*math.Log(u/(1-u))
}

func (l Logistic) String() string { return fmt.Sprintf("Logistic(%g,%g)", l.Mu, l.S) }

// LogNormal is the log-normal distribution: exp(Normal(Mu, Sigma)).
type LogNormal struct {
	Mu, Sigma float64
}

// Sample implements Sampler.
func (l LogNormal) Sample(r *RNG) float64 { return math.Exp(l.Mu + l.Sigma*r.NormFloat64()) }

func (l LogNormal) String() string { return fmt.Sprintf("LogNormal(%g,%g)", l.Mu, l.Sigma) }

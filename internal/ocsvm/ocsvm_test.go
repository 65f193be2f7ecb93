package ocsvm

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"osap/internal/stats"
)

// gaussianCloud samples n points from N(center, sigma²I) in dim
// dimensions.
func gaussianCloud(rng *stats.RNG, n, dim int, center, sigma float64) [][]float64 {
	out := make([][]float64, n)
	for i := range out {
		x := make([]float64, dim)
		for j := range x {
			x[j] = center + sigma*rng.NormFloat64()
		}
		out[i] = x
	}
	return out
}

func TestInliersAccepted(t *testing.T) {
	rng := stats.NewRNG(1)
	train := gaussianCloud(rng, 300, 2, 0, 1)
	m, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	fresh := gaussianCloud(rng, 300, 2, 0, 1)
	accepted := 0
	for _, x := range fresh {
		if m.Decision(x) >= 0 {
			accepted++
		}
	}
	rate := float64(accepted) / float64(len(fresh))
	if rate < 0.85 {
		t.Errorf("in-distribution acceptance rate %.2f, want ≥ 0.85", rate)
	}
}

func TestOutliersRejected(t *testing.T) {
	rng := stats.NewRNG(2)
	train := gaussianCloud(rng, 300, 2, 0, 1)
	m, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	far := gaussianCloud(rng, 200, 2, 10, 1)
	rejected := 0
	for _, x := range far {
		if m.Decision(x) < 0 {
			rejected++
		}
	}
	rate := float64(rejected) / float64(len(far))
	if rate < 0.95 {
		t.Errorf("outlier rejection rate %.2f, want ≥ 0.95", rate)
	}
}

func TestNuControlsTrainingOutlierFraction(t *testing.T) {
	rng := stats.NewRNG(3)
	train := gaussianCloud(rng, 400, 2, 0, 1)
	for _, nu := range []float64{0.05, 0.2} {
		cfg := DefaultConfig()
		cfg.Nu = nu
		m, err := Train(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := 0
		for _, x := range train {
			if m.Decision(x) < 0 {
				out++
			}
		}
		frac := float64(out) / float64(len(train))
		// ν upper-bounds the training outlier fraction (with slack for
		// the approximate solver).
		if frac > nu+0.08 {
			t.Errorf("nu=%v: training outlier fraction %.3f too high", nu, frac)
		}
	}
}

func TestHigherNuRejectsMore(t *testing.T) {
	rng := stats.NewRNG(4)
	train := gaussianCloud(rng, 300, 2, 0, 1)
	count := func(nu float64) int {
		cfg := DefaultConfig()
		cfg.Nu = nu
		m, err := Train(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		out := 0
		for _, x := range train {
			if m.Decision(x) < 0 {
				out++
			}
		}
		return out
	}
	lo, hi := count(0.02), count(0.3)
	if hi <= lo {
		t.Errorf("nu=0.3 rejected %d ≤ nu=0.02 rejected %d", hi, lo)
	}
}

func TestDecisionDecreasesWithDistance(t *testing.T) {
	rng := stats.NewRNG(5)
	train := gaussianCloud(rng, 200, 2, 0, 1)
	m, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// The decision surface is approximately constant on the support
	// boundary (not monotone from the centroid), but must be positive
	// well inside the cloud and strictly decreasing once outside it.
	if d := m.Decision([]float64{0, 0}); d <= 0 {
		t.Errorf("decision at center = %v, want > 0", d)
	}
	prev := m.Decision([]float64{3, 0})
	for _, r := range []float64{5, 8, 16} {
		cur := m.Decision([]float64{r, 0})
		if cur >= prev {
			t.Errorf("decision did not decrease at distance %v: %v >= %v", r, cur, prev)
		}
		prev = cur
	}
	if prev >= 0 {
		t.Errorf("decision at distance 16 = %v, want < 0", prev)
	}
}

func TestSubsamplingCapsModelSize(t *testing.T) {
	rng := stats.NewRNG(6)
	train := gaussianCloud(rng, 3000, 2, 0, 1)
	cfg := DefaultConfig()
	cfg.MaxSamples = 200
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumSVs() > 200 {
		t.Errorf("model has %d SVs, cap was 200", m.NumSVs())
	}
	// Still works as a detector.
	if m.Decision([]float64{0, 0}) < 0 {
		t.Error("center rejected after subsampling")
	}
	if m.Decision([]float64{15, 15}) >= 0 {
		t.Error("far outlier accepted after subsampling")
	}
}

func TestTrainErrors(t *testing.T) {
	good := [][]float64{{1, 2}, {2, 1}, {1.5, 1.5}}
	cases := map[string]struct {
		data [][]float64
		cfg  Config
	}{
		"empty":      {nil, DefaultConfig()},
		"zero dim":   {[][]float64{{}}, DefaultConfig()},
		"ragged":     {[][]float64{{1, 2}, {1}}, DefaultConfig()},
		"nu zero":    {good, Config{Nu: 0}},
		"nu too big": {good, Config{Nu: 1.5}},
	}
	for name, c := range cases {
		if _, err := Train(c.data, c.cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	// NaN fails every comparison: it is refused by the nu check, not
	// later by a solve that finds no support vectors.
	if _, err := Train(good, Config{Nu: math.NaN()}); err == nil || !strings.Contains(err.Error(), "nu NaN") {
		t.Errorf("nu NaN: err %v, want one naming nu NaN", err)
	}
}

func TestDecisionDimPanics(t *testing.T) {
	rng := stats.NewRNG(7)
	m, err := Train(gaussianCloud(rng, 50, 2, 0, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dim mismatch")
		}
	}()
	m.Decision([]float64{1, 2, 3})
}

func TestDeterministicTraining(t *testing.T) {
	rng := stats.NewRNG(8)
	train := gaussianCloud(rng, 150, 3, 0, 1)
	a, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Rho != b.Rho || a.NumSVs() != b.NumSVs() {
		t.Fatal("training not deterministic")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rng := stats.NewRNG(9)
	m, err := Train(gaussianCloud(rng, 100, 2, 0, 1), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	x := []float64{0.3, -0.2}
	if math.Abs(m.Decision(x)-back.Decision(x)) > 1e-12 {
		t.Fatal("round-tripped model decision differs")
	}
}

func TestAutoGammaPositive(t *testing.T) {
	if g := autoGamma([][]float64{{1, 1}, {1, 1}}); g <= 0 || math.IsInf(g, 0) {
		t.Errorf("degenerate autoGamma = %v", g)
	}
	if g := autoGamma([][]float64{{0, 10}, {10, 0}}); g <= 0 {
		t.Errorf("autoGamma = %v", g)
	}
}

// Distribution-shift property: a model trained on Gamma(2,2)-style
// windowed features should flag Exponential(1) features — the actual
// use-case in the paper's U_S.
func TestDetectsDistributionShift(t *testing.T) {
	rng := stats.NewRNG(10)
	feat := func(s stats.Sampler, n int) [][]float64 {
		out := make([][]float64, n)
		for i := range out {
			// [mean, std] of 10 draws — the paper's feature.
			draws := make([]float64, 10)
			for k := range draws {
				draws[k] = s.Sample(rng)
			}
			out[i] = []float64{stats.Mean(draws), stats.Std(draws)}
		}
		return out
	}
	train := feat(stats.Gamma{Shape: 2, Scale: 2}, 400)
	m, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	inRate, outRate := 0, 0
	inTest := feat(stats.Gamma{Shape: 2, Scale: 2}, 200)
	outTest := feat(stats.Exponential{Scale: 1}, 200)
	for _, x := range inTest {
		if m.Decision(x) >= 0 {
			inRate++
		}
	}
	for _, x := range outTest {
		if m.Decision(x) < 0 {
			outRate++
		}
	}
	if float64(inRate)/200 < 0.8 {
		t.Errorf("in-dist acceptance %.2f too low", float64(inRate)/200)
	}
	if float64(outRate)/200 < 0.8 {
		t.Errorf("OOD rejection %.2f too low", float64(outRate)/200)
	}
}

// TestKKTProperty: at the solution, unbounded support vectors lie on the
// decision boundary (f ≈ 0), bounded SVs lie outside (f ≤ 0), and
// non-SVs lie inside (f ≥ 0) — the KKT conditions of the dual.
func TestKKTProperty(t *testing.T) {
	rng := stats.NewRNG(20)
	train := gaussianCloud(rng, 250, 2, 0, 1)
	cfg := DefaultConfig()
	cfg.Nu = 0.1
	m, err := Train(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := len(train)
	C := 1 / (cfg.Nu * float64(n))

	// Rebuild alpha per training point from the model's SV list.
	alpha := make(map[int]float64)
	for i, x := range train {
		for j, sv := range m.SVs {
			if x[0] == sv[0] && x[1] == sv[1] {
				alpha[i] = m.Alpha[j]
			}
		}
	}
	const tol = 0.02 // loose: SMO stops at finite precision
	for i, x := range train {
		f := m.Decision(x)
		a := alpha[i]
		switch {
		case a == 0: // non-SV: inside the region
			if f < -tol {
				t.Fatalf("non-SV %d has f = %v < 0", i, f)
			}
		case a > 1e-8 && a < C-1e-8: // unbounded SV: on the boundary
			if math.Abs(f) > tol {
				t.Fatalf("unbounded SV %d has f = %v, want ~0", i, f)
			}
		default: // bounded SV: outlier side
			if f > tol {
				t.Fatalf("bounded SV %d has f = %v > 0", i, f)
			}
		}
	}
}

// TestDualConstraintsProperty: the stored coefficients satisfy
// Σα = 1 and 0 ≤ α ≤ 1/(νn).
func TestDualConstraintsProperty(t *testing.T) {
	rng := stats.NewRNG(21)
	for _, nu := range []float64{0.03, 0.1, 0.3} {
		train := gaussianCloud(rng, 200, 3, 0, 1)
		cfg := DefaultConfig()
		cfg.Nu = nu
		m, err := Train(train, cfg)
		if err != nil {
			t.Fatal(err)
		}
		C := 1 / (nu * float64(len(train)))
		var sum float64
		for _, a := range m.Alpha {
			if a < -1e-12 || a > C+1e-9 {
				t.Fatalf("nu=%v: alpha %v outside [0, %v]", nu, a, C)
			}
			sum += a
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("nu=%v: sum alpha = %v, want 1", nu, sum)
		}
	}
}

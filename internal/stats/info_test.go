package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKLIdenticalIsZero(t *testing.T) {
	p := []float64{0.2, 0.3, 0.5}
	if d := KLDivergence(p, p); !almostEqual(d, 0, 1e-12) {
		t.Errorf("KL(p||p) = %v, want 0", d)
	}
}

func TestKLNonNegativeProperty(t *testing.T) {
	r := NewRNG(31)
	if err := quick.Check(func(a, b uint32) bool {
		ra, rb := NewRNG(uint64(a)), NewRNG(uint64(b))
		n := 2 + r.Intn(8)
		p := make([]float64, n)
		q := make([]float64, n)
		var sp, sq float64
		for i := range p {
			p[i] = ra.Float64() + 1e-6
			q[i] = rb.Float64() + 1e-6
			sp += p[i]
			sq += q[i]
		}
		for i := range p {
			p[i] /= sp
			q[i] /= sq
		}
		return KLDivergence(p, q) >= -1e-9
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestKLKnownValue(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{0.9, 0.1}
	want := 0.5*math.Log(0.5/0.9) + 0.5*math.Log(0.5/0.1)
	if d := KLDivergence(p, q); !almostEqual(d, want, 1e-12) {
		t.Errorf("KL = %v, want %v", d, want)
	}
}

func TestKLHandlesZeros(t *testing.T) {
	p := []float64{1, 0}
	q := []float64{0, 1}
	d := KLDivergence(p, q)
	if math.IsInf(d, 0) || math.IsNaN(d) {
		t.Fatalf("KL with zeros not finite: %v", d)
	}
	if d <= 0 {
		t.Fatalf("KL of disjoint distributions should be large positive, got %v", d)
	}
}

func TestKLPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	KLDivergence([]float64{1}, []float64{0.5, 0.5})
}

func TestMeanDistribution(t *testing.T) {
	dists := [][]float64{{1, 0}, {0, 1}}
	m := MeanDistributionInto(make([]float64, 2), dists)
	if m[0] != 0.5 || m[1] != 0.5 {
		t.Errorf("mean distribution = %v, want [0.5 0.5]", m)
	}
}

func TestMeanDistributionPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"empty":    func() { MeanDistributionInto(nil, nil) },
		"mismatch": func() { MeanDistributionInto(make([]float64, 1), [][]float64{{1}, {0.5, 0.5}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

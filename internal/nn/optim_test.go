package nn

import (
	"math"
	"testing"

	"osap/internal/linalg"
	"osap/internal/stats"
)

// trainQuadratic minimizes ||out - target||² on a fixed input with the
// given optimizer and returns the final loss.
func trainQuadratic(t *testing.T, opt Optimizer, steps int) float64 {
	t.Helper()
	rng := stats.NewRNG(100)
	net := NewNetwork(Dense(3, 8), Tanh(8), Dense(8, 2))
	HeInit(net, rng)
	in := linalg.Vector{0.3, -0.7, 1.1}
	target := linalg.Vector{0.5, -0.25}

	var loss float64
	for s := 0; s < steps; s++ {
		tape := net.ForwardTape(in)
		out := tape.Output()
		grad := make(linalg.Vector, len(out))
		loss = 0
		for i := range out {
			d := out[i] - target[i]
			grad[i] = 2 * d
			loss += d * d
		}
		zeroGrads(net)
		net.BackwardTape(tape, grad)
		opt.Step(net.Params())
	}
	return loss
}

func TestAdamConverges(t *testing.T) {
	if loss := trainQuadratic(t, NewAdam(0.01, 0, 0, 0), 500); loss > 1e-4 {
		t.Errorf("Adam final loss %v, want < 1e-4", loss)
	}
}

func TestAdamDefaultHyperparams(t *testing.T) {
	a := NewAdam(0.001, 0, 0, 0)
	if a.Beta1 != 0.9 || a.Beta2 != 0.999 || a.Eps != 1e-8 {
		t.Errorf("unexpected defaults: %+v", a)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := &Param{W: make([]float64, 2), G: []float64{3, 4}}
	pre := ClipGradNorm([]*Param{p}, 1)
	if pre != 5 {
		t.Errorf("pre-clip norm = %v, want 5", pre)
	}
	if norm := math.Hypot(p.G[0], p.G[1]); math.Abs(norm-1) > 1e-12 {
		t.Errorf("post-clip norm = %v, want 1", norm)
	}
	// Direction preserved.
	if math.Abs(p.G[0]/p.G[1]-0.75) > 1e-12 {
		t.Errorf("clip changed gradient direction: %v", p.G)
	}
}

func TestClipGradNormNoOpUnderLimit(t *testing.T) {
	p := &Param{W: make([]float64, 2), G: []float64{0.3, 0.4}}
	ClipGradNorm([]*Param{p}, 1)
	if p.G[0] != 0.3 || p.G[1] != 0.4 {
		t.Error("clip modified gradients under the limit")
	}
}

func TestClipGradNormDisabled(t *testing.T) {
	p := &Param{W: make([]float64, 1), G: []float64{100}}
	ClipGradNorm([]*Param{p}, 0)
	if p.G[0] != 100 {
		t.Error("maxNorm<=0 should disable clipping")
	}
}

func TestClipGradNormZeroGrad(t *testing.T) {
	p := &Param{W: make([]float64, 2), G: []float64{0, 0}}
	if n := ClipGradNorm([]*Param{p}, 1); n != 0 {
		t.Errorf("zero-grad norm = %v", n)
	}
}

// Optimizer steps must be deterministic: two identical runs produce
// byte-identical weights.
func TestOptimizerDeterminism(t *testing.T) {
	run := func() []float64 {
		rng := stats.NewRNG(55)
		net := NewNetwork(Dense(2, 3), ReLU(3), Dense(3, 1))
		HeInit(net, rng)
		opt := NewAdam(0.01, 0, 0, 0)
		in := linalg.Vector{1, -1}
		for s := 0; s < 50; s++ {
			tape := net.ForwardTape(in)
			zeroGrads(net)
			net.BackwardTape(tape, linalg.Vector{tape.Output()[0] - 0.5})
			opt.Step(net.Params())
		}
		var ws []float64
		for _, p := range net.Params() {
			ws = append(ws, p.W...)
		}
		return ws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training not deterministic")
		}
	}
}

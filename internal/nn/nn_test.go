package nn

import (
	"encoding/json"
	"math"
	"testing"

	"osap/internal/linalg"
	"osap/internal/stats"
)

// testNet builds a small mixed-architecture network for structural tests.
func testNet(rng *stats.RNG) *Network {
	net := NewNetwork(
		Conv1D(2, 8, 3, 4), // 16 -> 15 (3 filters × outLen 5)
		ReLU(15),
		Dense(15, 10),
		Tanh(10),
		Dense(10, 4),
		Softmax(4),
	)
	HeInit(net, rng)
	return net
}

func TestNetworkDims(t *testing.T) {
	net := testNet(stats.NewRNG(1))
	if net.InDim() != 16 {
		t.Errorf("InDim = %d, want 16", net.InDim())
	}
	if net.OutDim() != 4 {
		t.Errorf("OutDim = %d, want 4", net.OutDim())
	}
	// conv: 3*2*4+3 = 27; dense1: 15*10+10 = 160; dense2: 10*4+4 = 44.
	if got := net.NumParams(); got != 27+160+44 {
		t.Errorf("NumParams = %d, want %d", got, 27+160+44)
	}
}

func TestNewNetworkPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on dim mismatch")
		}
	}()
	NewNetwork(Dense(3, 5), Dense(4, 2))
}

func TestSoftmaxOutputIsDistribution(t *testing.T) {
	rng := stats.NewRNG(2)
	net := testNet(rng)
	in := make(linalg.Vector, 16)
	for i := range in {
		in[i] = rng.NormFloat64() * 3
	}
	out := net.Forward(in)
	var sum float64
	for _, p := range out {
		if p < 0 || p > 1 {
			t.Fatalf("softmax output out of [0,1]: %v", out)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("softmax sum = %v, want 1", sum)
	}
}

func TestSoftmaxStability(t *testing.T) {
	s := Softmax(3)
	out := make(linalg.Vector, 3)
	s.Forward(linalg.Vector{1000, 1001, 999}, out)
	for _, p := range out {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			t.Fatalf("softmax overflow: %v", out)
		}
	}
	if out[1] < out[0] || out[0] < out[2] {
		t.Fatalf("softmax ordering wrong: %v", out)
	}
}

func TestForwardDeterministic(t *testing.T) {
	net := testNet(stats.NewRNG(3))
	in := make(linalg.Vector, 16)
	for i := range in {
		in[i] = float64(i) / 16
	}
	a := net.Forward(in)
	b := net.Forward(in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("Forward not deterministic")
		}
	}
}

func TestForwardTapeMatchesForward(t *testing.T) {
	net := testNet(stats.NewRNG(4))
	in := make(linalg.Vector, 16)
	rng := stats.NewRNG(5)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	a := net.Forward(in)
	tape := net.ForwardTape(in)
	b := tape.Output()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ForwardTape output differs from Forward")
		}
	}
}

// numericalGrad estimates dLoss/dParam by central differences, where the
// loss is a fixed linear functional of the network output (sum of
// coef·out).
func numericalGrad(net *Network, in linalg.Vector, coef linalg.Vector, p *Param, j int) float64 {
	const h = 1e-6
	orig := p.W[j]
	p.W[j] = orig + h
	outPlus := net.Forward(in)
	p.W[j] = orig - h
	outMinus := net.Forward(in)
	p.W[j] = orig
	var plus, minus float64
	for i := range coef {
		plus += coef[i] * outPlus[i]
		minus += coef[i] * outMinus[i]
	}
	return (plus - minus) / (2 * h)
}

// TestGradCheck validates backprop against central-difference numerical
// gradients across every layer type, including input gradients.
func TestGradCheck(t *testing.T) {
	rng := stats.NewRNG(6)
	net := NewNetwork(
		Conv1D(2, 8, 3, 4),
		Tanh(15), // tanh instead of relu: differentiable everywhere
		Dense(15, 6),
		Tanh(6),
		Dense(6, 4),
		Softmax(4),
	)
	XavierInit(net, rng)

	in := make(linalg.Vector, 16)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	coef := linalg.Vector{0.7, -1.3, 0.4, 2.1}

	tape := net.ForwardTape(in)
	net.ZeroGrad()
	gradIn := net.BackwardTape(tape, coef.Clone())

	// Check a sample of parameter gradients in every parametric layer.
	for li, p := range net.Params() {
		checkEvery := len(p.W)/7 + 1
		for j := 0; j < len(p.W); j += checkEvery {
			want := numericalGrad(net, in, coef, p, j)
			got := p.G[j]
			if math.Abs(got-want) > 1e-5*(1+math.Abs(want)) {
				t.Errorf("param %d[%d]: analytic %v vs numeric %v", li, j, got, want)
			}
		}
	}

	// Check input gradients too.
	const h = 1e-6
	for j := 0; j < len(in); j += 3 {
		orig := in[j]
		in[j] = orig + h
		outPlus := net.Forward(in)
		in[j] = orig - h
		outMinus := net.Forward(in)
		in[j] = orig
		var want float64
		for i := range coef {
			want += coef[i] * (outPlus[i] - outMinus[i])
		}
		want /= 2 * h
		if math.Abs(gradIn[j]-want) > 1e-5*(1+math.Abs(want)) {
			t.Errorf("input grad [%d]: analytic %v vs numeric %v", j, gradIn[j], want)
		}
	}
}

// TestGradCheckReLU verifies the ReLU backward at points away from the
// kink.
func TestGradCheckReLU(t *testing.T) {
	rng := stats.NewRNG(7)
	net := NewNetwork(Dense(4, 8), ReLU(8), Dense(8, 2))
	HeInit(net, rng)
	in := linalg.Vector{0.5, -1.2, 2.0, 0.3}
	coef := linalg.Vector{1, -1}

	tape := net.ForwardTape(in)
	net.ZeroGrad()
	net.BackwardTape(tape, coef.Clone())

	for li, p := range net.Params() {
		for j := 0; j < len(p.W); j += 3 {
			want := numericalGrad(net, in, coef, p, j)
			if math.Abs(p.G[j]-want) > 1e-5*(1+math.Abs(want)) {
				t.Errorf("param %d[%d]: analytic %v vs numeric %v", li, j, p.G[j], want)
			}
		}
	}
}

func TestGradAccumulation(t *testing.T) {
	rng := stats.NewRNG(8)
	net := NewNetwork(Dense(3, 2))
	XavierInit(net, rng)
	in := linalg.Vector{1, 2, 3}
	g := linalg.Vector{1, 1}

	tape := net.ForwardTape(in)
	net.ZeroGrad()
	net.BackwardTape(tape, g.Clone())
	first := append([]float64(nil), net.Params()[0].G...)
	net.BackwardTape(tape, g.Clone())
	second := net.Params()[0].G
	for i := range first {
		if math.Abs(second[i]-2*first[i]) > 1e-12 {
			t.Fatal("gradients do not accumulate additively")
		}
	}
	net.ZeroGrad()
	for _, v := range net.Params()[0].G {
		if v != 0 {
			t.Fatal("ZeroGrad did not clear")
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	rng := stats.NewRNG(9)
	net := testNet(rng)
	clone := net.Clone()
	in := make(linalg.Vector, 16)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	a := net.Forward(in)
	b := clone.Forward(in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("clone forward differs")
		}
	}
	// Mutate the clone; original must not change.
	clone.Params()[0].W[0] += 100
	a2 := net.Forward(in)
	for i := range a {
		if a[i] != a2[i] {
			t.Fatal("clone shares weights with original")
		}
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	rng := stats.NewRNG(10)
	a := testNet(rng)
	b := testNet(rng) // different init (rng advanced)
	in := make(linalg.Vector, 16)
	in[0] = 1
	if outA, outB := a.Forward(in), b.Forward(in); outA[0] == outB[0] {
		t.Skip("unlucky identical init")
	}
	b.CopyWeightsFrom(a)
	outA, outB := a.Forward(in), b.Forward(in)
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatal("CopyWeightsFrom did not copy")
		}
	}
}

// decodeNetwork is how a holder of a NetworkJSON reads one: unmarshal,
// then build.
func decodeNetwork(data []byte) (*Network, error) {
	var nj NetworkJSON
	if err := json.Unmarshal(data, &nj); err != nil {
		return nil, err
	}
	return nj.Network()
}

func TestJSONRoundTrip(t *testing.T) {
	rng := stats.NewRNG(11)
	net := testNet(rng)
	nj, err := net.JSON()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(nj)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeNetwork(data)
	if err != nil {
		t.Fatal(err)
	}
	in := make(linalg.Vector, 16)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	a := net.Forward(in)
	b := back.Forward(in)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("round-tripped network output differs")
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	cases := map[string]string{
		"empty layers": `{"layers":[]}`,
		"unknown kind": `{"layers":[{"kind":"lstm","dim":3}]}`,
		"bad dense":    `{"layers":[{"kind":"dense","in":2,"out":2,"weight":[1],"bias":[0,0]}]}`,
		"dim mismatch": `{"layers":[{"kind":"relu","dim":3},{"kind":"relu","dim":4}]}`,
		"invalid json": `{`,
		"zero dim":     `{"layers":[{"kind":"dense","in":0,"out":3}]}`,
		"long kernel":  `{"layers":[{"kind":"conv1d","channels":1,"length":2,"filters":1,"kernel":3}]}`,
		"overflow":     `{"layers":[{"kind":"dense","in":4000000000,"out":4000000000}]}`,
		"not a number": `{"layers":[{"kind":"dense","in":1,"out":1,"weight":["1"],"bias":[0]}]}`,
	}
	for name, data := range cases {
		if _, err := decodeNetwork([]byte(data)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestHeInitStatistics(t *testing.T) {
	rng := stats.NewRNG(12)
	net := NewNetwork(Dense(100, 200))
	HeInit(net, rng)
	w := net.Params()[0].W
	var acc stats.Welford
	for _, x := range w {
		acc.Add(x)
	}
	wantStd := math.Sqrt(2.0 / 100)
	if math.Abs(acc.Mean()) > 0.01 {
		t.Errorf("He init mean = %v, want ~0", acc.Mean())
	}
	if math.Abs(acc.Std()-wantStd) > 0.01 {
		t.Errorf("He init std = %v, want %v", acc.Std(), wantStd)
	}
	for _, b := range net.Params()[1].W {
		if b != 0 {
			t.Fatal("bias not zero-initialized")
		}
	}
}

func TestInitDeterministicPerSeed(t *testing.T) {
	a := testNet(stats.NewRNG(77))
	b := testNet(stats.NewRNG(77))
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].W {
			if pa[i].W[j] != pb[i].W[j] {
				t.Fatal("same-seed init differs")
			}
		}
	}
}

func TestConv1DKnownValues(t *testing.T) {
	// 1 channel, length 4, 1 filter, kernel 2, identity-ish weights.
	c := Conv1D(1, 4, 1, 2)
	copy(c.Weight.W, []float64{1, -1})
	c.Bias.W[0] = 0.5
	in := linalg.Vector{3, 1, 4, 1}
	out := make(linalg.Vector, c.OutDim())
	c.Forward(in, out)
	want := linalg.Vector{3 - 1 + 0.5, 1 - 4 + 0.5, 4 - 1 + 0.5}
	for i := range want {
		if math.Abs(out[i]-want[i]) > 1e-12 {
			t.Fatalf("conv out = %v, want %v", out, want)
		}
	}
}

func TestLayerConstructorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"dense zero in":   func() { Dense(0, 1) },
		"conv kernel>len": func() { Conv1D(1, 3, 1, 4) },
		"conv zero ch":    func() { Conv1D(0, 3, 1, 2) },
		"empty net":       func() { NewNetwork() },
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

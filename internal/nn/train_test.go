package nn

import (
	"math"
	"testing"

	"osap/internal/linalg"
	"osap/internal/stats"
)

// randomTrainNet builds a random chain of one to four dense or conv
// blocks, each followed by nothing, a ReLU, a tanh or two ReLUs, so a
// convolution comes first or after a dense layer, ReLUs are fused and
// not, and the net may end in a softmax or start with an activation
// that has no parameters before it.
func randomTrainNet(rng *stats.RNG) *Network {
	pick := func(n int) int { return int(rng.Uint64() % uint64(n)) }
	var layers []Layer
	dim := 0
	for b, blocks := 0, 1+pick(4); b < blocks; b++ {
		if pick(2) == 0 {
			channels, length := 1+pick(4), 2+pick(8)
			conv := Conv1D(channels, length, 1+pick(12), 1+pick(length))
			if dim != 0 && dim != conv.InDim() {
				layers = append(layers, Dense(dim, conv.InDim()))
			}
			layers = append(layers, conv)
			dim = conv.OutDim()
		} else {
			if dim == 0 {
				dim = 1 + pick(30)
			}
			out := 1 + pick(40)
			layers = append(layers, Dense(dim, out))
			dim = out
		}
		switch pick(4) {
		case 1:
			layers = append(layers, ReLU(dim))
		case 2:
			layers = append(layers, Tanh(dim))
		case 3:
			layers = append(layers, ReLU(dim), ReLU(dim))
		}
	}
	if pick(2) == 0 {
		layers = append(layers, Softmax(dim))
	}
	switch pick(3) {
	case 1:
		layers = append([]Layer{Tanh(layers[0].InDim())}, layers...)
	case 2:
		layers = append([]Layer{ReLU(layers[0].InDim())}, layers...)
	}
	net := NewNetwork(layers...)
	HeInit(net, rng)
	for _, p := range net.Params() { // nonzero biases too
		if p.Name == "dense.bias" || p.Name == "conv1d.bias" {
			for i := range p.W {
				p.W[i] = 0.1 * rng.NormFloat64()
			}
		}
	}
	return net
}

// tapeGrads is the reference: ZeroGrad, then a per-row ForwardTape and
// BackwardTape for the first rows rows of in, in order. It returns the
// outputs and a copy of every G.
func tapeGrads(net *Network, in, gradOut *linalg.Matrix, rows int) ([]linalg.Vector, [][]float64) {
	net.ZeroGrad()
	outs := make([]linalg.Vector, rows)
	for r := 0; r < rows; r++ {
		tape := net.ForwardTape(in.Row(r))
		outs[r] = tape.Output()
		net.BackwardTape(tape, gradOut.Row(r))
	}
	var gs [][]float64
	for _, p := range net.Params() {
		gs = append(gs, append([]float64(nil), p.G...))
	}
	return outs, gs
}

// TestBatchGradMatchesTape is the training contract: over random
// architectures and batch sizes, with exact zeros among the output
// gradients, a TrainWorkspace's forward equals the per-row forward and
// its Backward leaves every G Float64bits-equal to the per-row tape —
// also when it backpropagates only the leading rows of its forward, and
// whatever G held before.
func TestBatchGradMatchesTape(t *testing.T) {
	rng := stats.NewRNG(20201104)
	for trial := 0; trial < 60; trial++ {
		net := randomTrainNet(rng)
		tw := NewTrainWorkspace(net)
		for _, batch := range []int{5, 144, 1, 64, 2} {
			in := linalg.NewMatrix(batch, net.InDim())
			for i := range in.Data {
				in.Data[i] = 2 * rng.NormFloat64()
			}
			gradOut := linalg.NewMatrix(batch, net.OutDim())
			for i := range gradOut.Data {
				if rng.Uint64()%4 != 0 {
					gradOut.Data[i] = rng.NormFloat64()
				}
			}
			if batch > 2 {
				for j := range gradOut.Row(1) {
					gradOut.Row(1)[j] = 0
				}
			}
			for _, rows := range []int{batch, (batch + 1) / 2} {
				outs, want := tapeGrads(net, in, gradOut, rows)
				got := tw.Forward(in)
				for r, o := range outs {
					for j := range o {
						if math.Float64bits(got.At(r, j)) != math.Float64bits(o[j]) {
							t.Fatalf("trial %d batch %d: output (%d,%d) = %g, per-row %g", trial, batch, r, j, got.At(r, j), o[j])
						}
					}
				}
				for _, p := range net.Params() {
					for i := range p.G {
						p.G[i] = math.NaN() // Backward sets G; it does not add to it
					}
				}
				tw.Backward(&linalg.Matrix{Rows: rows, Cols: gradOut.Cols, Data: gradOut.Data[:rows*gradOut.Cols]})
				for pi, p := range net.Params() {
					for i := range p.G {
						if math.Float64bits(p.G[i]) != math.Float64bits(want[pi][i]) {
							t.Fatalf("trial %d (%d layers) batch %d rows %d: %s G[%d] = %g (%#x), tape %g (%#x)",
								trial, len(net.Layers()), batch, rows, p.Name, i,
								p.G[i], math.Float64bits(p.G[i]), want[pi][i], math.Float64bits(want[pi][i]))
						}
					}
				}
			}
		}
	}
}

// TestTrainWorkspaceRepacks: each Forward sees the weights as they are
// then, as an optimizer step leaves them.
func TestTrainWorkspaceRepacks(t *testing.T) {
	net := wsTestNet(5)
	tw := NewTrainWorkspace(net)
	in := &linalg.Matrix{Rows: 3, Cols: net.InDim(), Data: wsTestInput(3*net.InDim(), 6)}
	tw.Forward(in)
	for _, p := range net.Params() {
		for i := range p.W {
			p.W[i] *= 1.5
		}
	}
	got := tw.Forward(in)
	for r := 0; r < in.Rows; r++ {
		want := net.Forward(in.Row(r))
		for j := range want {
			if math.Float64bits(got.At(r, j)) != math.Float64bits(want[j]) {
				t.Fatalf("row %d col %d: %g after the weights moved, want %g", r, j, got.At(r, j), want[j])
			}
		}
	}
}

func TestTrainWorkspacePanics(t *testing.T) {
	net := wsTestNet(5)
	tw := NewTrainWorkspace(net)
	tw.Forward(linalg.NewMatrix(4, net.InDim()))
	for name, f := range map[string]func(){
		"forward-dim":   func() { tw.Forward(linalg.NewMatrix(4, net.InDim()+1)) },
		"forward-empty": func() { tw.Forward(&linalg.Matrix{Cols: net.InDim()}) },
		"backward-dim":  func() { tw.Backward(linalg.NewMatrix(4, net.OutDim()+1)) },
		"backward-rows": func() { tw.Backward(linalg.NewMatrix(5, net.OutDim())) },
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
}

// BenchmarkTrainStep is one optimizer step's gradient for the actor at
// the A2C batch the quick recipe gathers (6 episodes of 24 steps).
func BenchmarkTrainStep(b *testing.B) {
	rng := stats.NewRNG(17)
	net := NewNetwork(Conv1D(6, 8, 16, 4), ReLU(80), Dense(80, 64), ReLU(64), Dense(64, 6), Softmax(6))
	HeInit(net, rng)
	in, grad := linalg.NewMatrix(144, net.InDim()), linalg.NewMatrix(144, net.OutDim())
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	for i := range grad.Data {
		grad.Data[i] = rng.NormFloat64()
	}
	tw := NewTrainWorkspace(net)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tw.Forward(in)
		tw.Backward(grad)
	}
}

package nn

import (
	"testing"

	"osap/internal/linalg"
	"osap/internal/stats"
)

// testNet builds a small conv+dense+softmax network shaped like the
// Pensieve actor, with deterministic weights.
func wsTestNet(seed uint64) *Network {
	net := NewNetwork(
		Conv1D(3, 8, 4, 4),
		ReLU(20),
		Dense(20, 16),
		Tanh(16),
		Dense(16, 5),
		Softmax(5),
	)
	HeInit(net, stats.NewRNG(seed))
	return net
}

func wsTestInput(n int, seed uint64) linalg.Vector {
	rng := stats.NewRNG(seed)
	in := linalg.NewVector(n)
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	return in
}

// TestForwardWSMatchesForward checks the workspace path is bit-identical
// to the allocating path, including across repeated workspace reuse.
func TestForwardWSMatchesForward(t *testing.T) {
	net := wsTestNet(7)
	ws := NewWorkspace(net)
	for trial := 0; trial < 5; trial++ {
		in := wsTestInput(net.InDim(), uint64(100+trial))
		want := net.Forward(in)
		got := net.ForwardWS(ws, in)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: ForwardWS[%d] = %v, Forward = %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestBackwardWSMatchesBackward checks tape recording and
// backpropagation through a preallocated tape workspace produce
// bit-identical input gradients and parameter gradients.
func TestBackwardWSMatchesBackward(t *testing.T) {
	netA := wsTestNet(7)
	netB := wsTestNet(7) // identical weights, independent gradients
	ws := newTapeWorkspace(netB)

	for trial := 0; trial < 3; trial++ {
		in := wsTestInput(netA.InDim(), uint64(200+trial))
		gradOut := wsTestInput(netA.OutDim(), uint64(300+trial))

		netA.ZeroGrad()
		netB.ZeroGrad()

		tapeA := netA.ForwardTape(in)
		gA := netA.BackwardTape(tapeA, gradOut)

		tapeB := netB.ForwardTapeWS(ws, in)
		outA, outB := tapeA.Output(), tapeB.Output()
		for i := range outA {
			if outA[i] != outB[i] {
				t.Fatalf("trial %d: tape output[%d] = %v, want %v", trial, i, outB[i], outA[i])
			}
		}
		gB := netB.BackwardTapeWS(ws, tapeB, gradOut)
		for i := range gA {
			if gA[i] != gB[i] {
				t.Fatalf("trial %d: input grad[%d] = %v, want %v", trial, i, gB[i], gA[i])
			}
		}
		pA, pB := netA.Params(), netB.Params()
		for p := range pA {
			for j := range pA[p].G {
				if pA[p].G[j] != pB[p].G[j] {
					t.Fatalf("trial %d: param %s grad[%d] = %v, want %v",
						trial, pA[p].Name, j, pB[p].G[j], pA[p].G[j])
				}
			}
		}
	}
}

// TestWorkspaceZeroAlloc verifies ForwardWS and a training step on a
// warm TrainWorkspace do not allocate.
func TestWorkspaceZeroAlloc(t *testing.T) {
	net := wsTestNet(3)
	ws := NewWorkspace(net)
	in := wsTestInput(net.InDim(), 42)

	if n := testing.AllocsPerRun(100, func() { net.ForwardWS(ws, in) }); n != 0 {
		t.Errorf("ForwardWS allocs/op = %v, want 0", n)
	}
	tw := NewTrainWorkspace(net)
	batch := &linalg.Matrix{Rows: 8, Cols: net.InDim(), Data: wsTestInput(8*net.InDim(), 44)}
	gradOut := &linalg.Matrix{Rows: 8, Cols: net.OutDim(), Data: wsTestInput(8*net.OutDim(), 43)}
	tw.Forward(batch)
	if n := testing.AllocsPerRun(100, func() {
		tw.Forward(batch)
		tw.Backward(gradOut)
	}); n != 0 {
		t.Errorf("TrainWorkspace Forward+Backward allocs/op = %v, want 0", n)
	}
}

// TestForwardPooledSingleAlloc verifies the compatibility Forward only
// allocates its returned output in steady state.
func TestForwardPooledSingleAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool reuse is randomized under the race detector")
	}
	net := wsTestNet(3)
	in := wsTestInput(net.InDim(), 42)
	net.Forward(in) // warm the pool
	if n := testing.AllocsPerRun(100, func() { net.Forward(in) }); n > 1 {
		t.Errorf("Forward allocs/op = %v, want <= 1", n)
	}
}

// TestWorkspaceSharedAcrossIdenticalArchitectures checks one workspace
// serves every member of an ensemble built from the same config.
func TestWorkspaceSharedAcrossIdenticalArchitectures(t *testing.T) {
	a, b := wsTestNet(1), wsTestNet(2)
	ws := NewWorkspace(a)
	in := wsTestInput(a.InDim(), 5)
	got := b.ForwardWS(ws, in)
	want := b.Forward(in)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cross-network ForwardWS[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

// TestWorkspaceShapeMismatchPanics checks misuse is caught loudly.
func TestWorkspaceShapeMismatchPanics(t *testing.T) {
	small := NewNetwork(Dense(2, 2))
	HeInit(small, stats.NewRNG(1))
	ws := NewWorkspace(wsTestNet(1))
	defer func() {
		if recover() == nil {
			t.Error("mismatched workspace accepted")
		}
	}()
	small.ForwardWS(ws, linalg.NewVector(2))
}

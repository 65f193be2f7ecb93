package nn

import (
	"math"
	"testing"

	"osap/internal/linalg"
	"osap/internal/stats"
)

// randomBatchNet builds a random Pensieve-shaped architecture (conv →
// relu → dense → relu/tanh → dense → softmax-or-not) from the rng, so
// the equivalence property is checked across layer mixes, not one
// fixed net.
func randomBatchNet(rng *stats.RNG) *Network {
	channels := 1 + int(rng.Uint64()%6)
	length := 4 + int(rng.Uint64()%8)
	kernel := 1 + int(rng.Uint64()%uint64(length))
	filters := 1 + int(rng.Uint64()%24)
	hidden := 1 + int(rng.Uint64()%96)
	outDim := 1 + int(rng.Uint64()%8)
	convOut := filters * (length - kernel + 1)

	layers := []Layer{
		Conv1D(channels, length, filters, kernel),
		ReLU(convOut),
		Dense(convOut, hidden),
	}
	if rng.Uint64()%2 == 0 {
		layers = append(layers, ReLU(hidden))
	} else {
		layers = append(layers, Tanh(hidden))
	}
	layers = append(layers, Dense(hidden, outDim))
	if rng.Uint64()%2 == 0 {
		layers = append(layers, Softmax(outDim))
	}
	net := NewNetwork(layers...)
	HeInit(net, rng)
	return net
}

// TestForwardBatchMatchesForwardWS is the batch-vs-single equivalence
// property: for random networks, batch sizes and inputs, every row of
// ForwardBatchWS is bit-identical to ForwardWS on that row alone.
func TestForwardBatchMatchesForwardWS(t *testing.T) {
	rng := stats.NewRNG(20200713)
	for trial := 0; trial < 40; trial++ {
		net := randomBatchNet(rng)
		batch := 1 + int(rng.Uint64()%200)
		maxBatch := batch + int(rng.Uint64()%64) // capacity ≥ batch
		bws := NewBatchWorkspace(net, maxBatch)
		ws := NewWorkspace(net)

		in := linalg.NewMatrix(batch, net.InDim())
		for i := range in.Data {
			in.Data[i] = 3 * rng.NormFloat64()
		}
		out := net.ForwardBatchWS(bws, in)
		if out.Rows != batch || out.Cols != net.OutDim() {
			t.Fatalf("trial %d: out %dx%d, want %dx%d", trial, out.Rows, out.Cols, batch, net.OutDim())
		}
		for r := 0; r < batch; r++ {
			single := net.ForwardWS(ws, in.Row(r))
			row := out.Row(r)
			for j := range single {
				if math.Float64bits(row[j]) != math.Float64bits(single[j]) {
					t.Fatalf("trial %d (in %d, out %d, batch %d): row %d col %d: batch %g vs single %g — not bit-identical",
						trial, net.InDim(), net.OutDim(), batch, r, j, row[j], single[j])
				}
			}
		}
	}
}

// TestForwardBatchReusesWorkspace checks that a smaller batch after a
// larger one reads nothing stale.
func TestForwardBatchReusesWorkspace(t *testing.T) {
	rng := stats.NewRNG(7)
	net := randomBatchNet(rng)
	bws := NewBatchWorkspace(net, 64)
	ws := NewWorkspace(net)
	for _, batch := range []int{64, 3, 17, 1, 64} {
		in := linalg.NewMatrix(batch, net.InDim())
		for i := range in.Data {
			in.Data[i] = rng.NormFloat64()
		}
		out := net.ForwardBatchWS(bws, in)
		for r := 0; r < batch; r++ {
			single := net.ForwardWS(ws, in.Row(r))
			row := out.Row(r)
			for j := range single {
				if math.Float64bits(row[j]) != math.Float64bits(single[j]) {
					t.Fatalf("batch %d row %d col %d: %g vs %g", batch, r, j, row[j], single[j])
				}
			}
		}
	}
}

func TestForwardBatchZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(11)
	net := randomBatchNet(rng)
	bws := NewBatchWorkspace(net, 128)
	in := linalg.NewMatrix(128, net.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	allocs := testing.AllocsPerRun(50, func() {
		net.ForwardBatchWS(bws, in)
	})
	if allocs != 0 {
		t.Fatalf("ForwardBatchWS allocates %.1f/op, want 0", allocs)
	}
}

func TestForwardBatchPanics(t *testing.T) {
	rng := stats.NewRNG(13)
	net := randomBatchNet(rng)
	bws := NewBatchWorkspace(net, 8)
	for name, f := range map[string]func(){
		"overflow": func() {
			net.ForwardBatchWS(bws, linalg.NewMatrix(9, net.InDim()))
		},
		"dim": func() {
			net.ForwardBatchWS(bws, linalg.NewMatrix(4, net.InDim()+1))
		},
		"capacity": func() { NewBatchWorkspace(net, 0) },
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

func BenchmarkForwardBatch256(b *testing.B) {
	rng := stats.NewRNG(17)
	cfgNet := NewNetwork(
		Conv1D(6, 8, 16, 4),
		ReLU(80),
		Dense(80, 64),
		ReLU(64),
		Dense(64, 6),
		Softmax(6),
	)
	HeInit(cfgNet, rng)
	bws := NewBatchWorkspace(cfgNet, 256)
	in := linalg.NewMatrix(256, cfgNet.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfgNet.ForwardBatchWS(bws, in)
	}
}

func BenchmarkForwardSingle256(b *testing.B) {
	rng := stats.NewRNG(17)
	cfgNet := NewNetwork(
		Conv1D(6, 8, 16, 4),
		ReLU(80),
		Dense(80, 64),
		ReLU(64),
		Dense(64, 6),
		Softmax(6),
	)
	HeInit(cfgNet, rng)
	ws := NewWorkspace(cfgNet)
	in := linalg.NewMatrix(256, cfgNet.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < 256; r++ {
			cfgNet.ForwardWS(ws, in.Row(r))
		}
	}
}

// TestForwardRowMatchesForwardWS: a one-row workspace — what every
// inference session holds — gives ForwardWS's bits, and a workspace
// sized for more rows gives the same for a batch of one.
func TestForwardRowMatchesForwardWS(t *testing.T) {
	rng := stats.NewRNG(20200714)
	for trial := 0; trial < 40; trial++ {
		net := randomBatchNet(rng)
		p := Pack(net)
		one, wide := p.NewBatchWorkspace(1), p.NewBatchWorkspace(7)
		ws := NewWorkspace(net)
		in := linalg.NewMatrix(1, net.InDim())
		for rep := 0; rep < 3; rep++ {
			for i := range in.Data {
				in.Data[i] = 3 * rng.NormFloat64()
			}
			want := net.ForwardWS(ws, in.Row(0))
			for name, got := range map[string]linalg.Vector{
				"row":   one.ForwardRow(in.Row(0)),
				"batch": wide.Forward(in).Row(0),
			} {
				for j := range want {
					if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
						t.Fatalf("trial %d %s col %d: %g vs %g — not bit-identical", trial, name, j, got[j], want[j])
					}
				}
			}
		}
	}
}

// TestPackIsASnapshot: the packed copy keeps the weights the network
// had when it was packed, and a workspace answers only for the network
// it was built from.
func TestPackIsASnapshot(t *testing.T) {
	rng := stats.NewRNG(21)
	net := randomBatchNet(rng)
	bws := NewBatchWorkspace(net, 2)
	in := linalg.NewMatrix(2, net.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	before := append([]float64(nil), net.ForwardBatchWS(bws, in).Data...)
	for _, p := range net.Params() {
		for i := range p.W {
			p.W[i] += 1
		}
	}
	after := net.ForwardBatchWS(bws, in).Data
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(after[i]) {
			t.Fatalf("output %d moved with the source network's weights: %g → %g", i, before[i], after[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("ForwardBatchWS accepted a workspace built from another network")
		}
	}()
	NewNetwork(net.Layers()...).ForwardBatchWS(bws, in)
}

// TestPackedNetworkShared: one packed network, a workspace per
// goroutine. Run under -race, it is the proof that forwards only read
// the shared copy.
func TestPackedNetworkShared(t *testing.T) {
	rng := stats.NewRNG(22)
	net := randomBatchNet(rng)
	p := Pack(net)
	in := linalg.NewMatrix(5, net.InDim())
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	want := append([]float64(nil), p.NewBatchWorkspace(5).Forward(in).Data...)
	errs := make(chan string, 4)
	for g := 0; g < cap(errs); g++ {
		go func() {
			ws := p.NewBatchWorkspace(5)
			for rep := 0; rep < 50; rep++ {
				for i, v := range ws.Forward(in).Data {
					if math.Float64bits(v) != math.Float64bits(want[i]) {
						errs <- "shared packed network gave different bits on another goroutine"
						return
					}
				}
			}
			errs <- ""
		}()
	}
	for g := 0; g < cap(errs); g++ {
		if msg := <-errs; msg != "" {
			t.Error(msg)
		}
	}
}

func TestForwardRowZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(23)
	net := randomBatchNet(rng)
	ws := Pack(net).NewBatchWorkspace(1)
	in := make(linalg.Vector, net.InDim())
	for i := range in {
		in[i] = rng.NormFloat64()
	}
	if allocs := testing.AllocsPerRun(50, func() { ws.ForwardRow(in) }); allocs != 0 {
		t.Fatalf("ForwardRow allocates %.1f/op, want 0", allocs)
	}
}

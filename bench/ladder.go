package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/learn"
	"osap/internal/linalg"
	"osap/internal/nn"
	"osap/internal/rl"
	"osap/internal/serve"
	"osap/internal/serve/proto"
	"osap/internal/sketch"
	"osap/internal/stats"
)

// ladderBatch is the wide batch every batched rung is timed at, beside
// batch 1; it is the collector's default MaxBatch.
const ladderBatch = 32

// timeOp returns the median, over reps, of the mean duration in
// nanoseconds of one f() in a loop lasting about slice.
func timeOp(slice time.Duration, reps int, f func()) float64 {
	iters := 1
	for {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		if el := time.Since(start); el >= slice/8 || iters >= 1<<24 {
			iters = int(float64(iters)*float64(slice)/float64(el+1)) + 1
			break
		}
		iters *= 4
	}
	means := make([]float64, reps)
	for r := range means {
		start := time.Now()
		for i := 0; i < iters; i++ {
			f()
		}
		means[r] = float64(time.Since(start).Nanoseconds()) / float64(iters)
	}
	return stats.Median(means)
}

// forwardFlops counts the multiply-adds of one forward pass, twice
// each, from the layer shapes alone.
func forwardFlops(n *nn.Network) float64 {
	var flops float64
	for _, l := range n.Layers() {
		switch l := l.(type) {
		case *nn.DenseLayer:
			flops += 2 * float64(l.In*l.Out)
		case *nn.Conv1DLayer:
			flops += 2 * float64(l.Filters*l.Channels*l.Kernel*l.OutLen())
		}
	}
	return flops
}

// widestDense returns the dense layer with the most weights: the GEMM
// shape that dominates a forward pass.
func widestDense(n *nn.Network) *nn.DenseLayer {
	var best *nn.DenseLayer
	for _, l := range n.Layers() {
		if d, ok := l.(*nn.DenseLayer); ok && (best == nil || d.In*d.Out > best.In*best.Out) {
			best = d
		}
	}
	return best
}

// discard counts the bytes proto.Conn writes and throws them away.
type discard struct{ n int }

func (d *discard) Write(p []byte) (int, error) { d.n += len(p); return len(p), nil }
func (d *discard) Read([]byte) (int, error)    { return 0, io.EOF }

// runLadder times one call into each layer's public entry point on
// identical shapes — the artifacts' own networks, observation rows
// taken from the tapes, batches of 1 and ladderBatch — and returns the
// per-layer metrics. slice sizes each rung's timing loop.
func runLadder(arts *experiments.Artifacts, f *serve.GuardFactory, tapes []tape, slice time.Duration) (map[string]metric, error) {
	const reps = 5
	ms := map[string]metric{}
	ns := func(name string, v float64) { ms[name] = metric{v, "ns"} }
	actor := arts.Agents[0].Actor
	row := 0
	nextObs := func() []float64 {
		tp := tapes[row%len(tapes)]
		obs := tp.obs[(row/len(tapes))%len(tp.obs)]
		row++
		return obs
	}
	batchOf := func(rows int) *linalg.Matrix {
		m := linalg.NewMatrix(rows, f.ObsDim())
		for r := 0; r < rows; r++ {
			copy(m.Row(r), nextObs())
		}
		return m
	}
	b1, bN := batchOf(1), batchOf(ladderBatch)

	// linalg: the widest dense layer's GEMM.
	dense := widestDense(actor)
	w := &linalg.Matrix{Rows: dense.Out, Cols: dense.In, Data: dense.Weight.W}
	for _, rows := range []int{1, ladderBatch} {
		a, dst := linalg.NewMatrix(rows, dense.In), linalg.NewMatrix(rows, dense.Out)
		for i := range a.Data {
			a.Data[i] = float64(i%17) / 17
		}
		ns(fmt.Sprintf("linalg.matmul_tbias_b%d_ns", rows), timeOp(slice, reps, func() {
			linalg.MatMulTBias(dst, a, w, dense.Bias.W)
		}))
	}
	// One A-ensemble step runs the deployed actor and every member.
	ms["linalg.flops_per_step"] = metric{forwardFlops(actor) * float64(1+len(arts.Agents)), "flop"}

	// nn: one network, sequential workspace and batched workspace.
	ws := nn.NewWorkspace(actor)
	obs := nextObs()
	ns("nn.forward_ws_ns", timeOp(slice, reps, func() { actor.ForwardWS(ws, obs) }))
	bws := nn.NewBatchWorkspace(actor, ladderBatch)
	ns("nn.forward_batch_b1_ns_per_row", timeOp(slice, reps, func() { actor.ForwardBatchWS(bws, b1) }))
	ns("nn.forward_batch_b32_ns_per_row", timeOp(slice, reps, func() { actor.ForwardBatchWS(bws, bN) })/ladderBatch)

	// rl: what one collector flush calls.
	scorer, err := rl.NewBatchScorer(arts.Agents, arts.ValueNets, ladderBatch)
	if err != nil {
		return nil, err
	}
	for _, c := range []struct {
		name string
		call func(*linalg.Matrix)
	}{
		{"deployed", func(m *linalg.Matrix) { scorer.Deployed(m) }},
		{"policy_dists", func(m *linalg.Matrix) { scorer.PolicyDists(m) }},
		{"values", func(m *linalg.Matrix) { scorer.Values(m) }},
	} {
		ns("rl."+c.name+"_b1_ns_per_row", timeOp(slice, reps, func() { c.call(b1) }))
		ns("rl."+c.name+"_b32_ns_per_row", timeOp(slice, reps, func() { c.call(bN) })/ladderBatch)
	}

	// ocsvm: one decision on a real U_S feature vector.
	feats, err := core.NewStateFeaturizer(guardConfig().StateSignal)
	if err != nil {
		return nil, err
	}
	var feat []float64
	for feat == nil {
		feat = feats.Observe(abr.LastThroughputMbps(nextObs()))
	}
	feat = append([]float64(nil), feat...)
	ns("ocsvm.decision_ns", timeOp(slice, reps, func() { arts.OCSVM.Decision(feat) }))
	ms["ocsvm.num_svs"] = metric{float64(arts.OCSVM.NumSVs()), "count"}

	// learn: the trust gate a session pays for when online learning is
	// switched on (it is off in the served configuration).
	learner, err := learn.New(learn.Config{
		Artifacts: arts, SignalConfig: guardConfig().StateSignal, Trim: guardConfig().Trim,
		Extract: abr.LastThroughputMbps,
	})
	if err != nil {
		return nil, err
	}
	gate, err := learner.NewGate(0)
	if err != nil {
		learner.Stop() //nolint:errcheck // no log to close
		return nil, err
	}
	ns("learn.gate_check_ns", timeOp(slice, reps, func() { gate.Check(nextObs()) }))
	if err := learner.Stop(); err != nil {
		return nil, err
	}

	// sketch: the drift digest every served score is added to.
	sk := sketch.New(sketch.DefaultCompression)
	x := 0.0
	ns("sketch.add_ns", timeOp(slice, reps, func() { x += 0.37; sk.Add(x - float64(int(x))) }))

	// serve: building a session's guard, and one step through the HTTP
	// handler stack with no socket under it.
	k := 0
	ms["serve.new_guard_us"] = metric{timeOp(slice, reps, func() {
		f.NewGuard(schemeNames[k%len(schemeNames)]) //nolint:errcheck // schemes are the factory's own
		k++
	}) / 1e3, "us"}
	inproc, err := inprocHTTPStep(f, slice, reps, nextObs)
	if err != nil {
		return nil, err
	}
	ms["serve.http_step_inproc_us"] = metric{inproc / 1e3, "us"}

	// proto: the four codec calls of one step, and their bytes.
	sink := &discard{}
	pc := proto.NewConn(sink)
	pc.ManualFlush()
	step := make([]byte, 8+8*f.ObsDim())
	into := make([]float64, f.ObsDim())
	ns("proto.write_step_ns", timeOp(slice, reps, func() { pc.WriteStep(7, 9, obs) })) //nolint:errcheck // sink cannot fail
	ns("proto.decode_step_ns", timeOp(slice, reps, func() { proto.DecodeStep(step, into) }))
	dec := make([]byte, 23)
	ns("proto.write_decision_ns", timeOp(slice, reps, func() { pc.WriteDecision(proto.Decision{Cid: 7, Seq: 9}) })) //nolint:errcheck
	ns("proto.decode_decision_ns", timeOp(slice, reps, func() { proto.DecodeDecision(dec) }))
	pc.Flush() //nolint:errcheck // sink cannot fail
	sink.n = 0
	pc.WriteStep(7, 9, obs)                          //nolint:errcheck
	pc.WriteDecision(proto.Decision{Cid: 7, Seq: 9}) //nolint:errcheck
	pc.Flush()                                       //nolint:errcheck
	ms["proto.bytes_per_step"] = metric{float64(sink.n), "B"}
	return ms, nil
}

// inprocHTTPStep times Server.ServeHTTP for one A-ensemble step: mux,
// JSON decode, session table, collector, guard, JSON encode.
func inprocHTTPStep(f *serve.GuardFactory, slice time.Duration, reps int, nextObs func() []float64) (float64, error) {
	srv, err := serve.NewServer(f, serve.Config{})
	if err != nil {
		return 0, err
	}
	post := func(path string, body []byte) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		return w
	}
	w := post("/v1/sessions", []byte(`{"scheme":"`+serve.SchemeAEns+`"}`))
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &created); err != nil || w.Code != http.StatusCreated {
		return 0, fmt.Errorf("in-process create: status %d", w.Code)
	}
	body, err := json.Marshal(map[string][]float64{"obs": nextObs()})
	if err != nil {
		return 0, err
	}
	path := "/v1/sessions/" + created.ID + "/step"
	bad := 0
	v := timeOp(slice, reps, func() {
		if post(path, body).Code != http.StatusOK {
			bad++
		}
	})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx, nil); err != nil {
		return 0, err
	}
	if bad > 0 {
		return 0, fmt.Errorf("in-process step: %d non-200 replies", bad)
	}
	return v, nil
}

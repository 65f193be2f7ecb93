package serve

import (
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/chaos"
	"osap/internal/core"
	"osap/internal/rl"
	"osap/internal/stats"
)

// batchTestServer builds a server with the given batching shape (one
// collector makes batch composition deterministic under load).
func batchTestServer(t *testing.T, batch BatchConfig) *Server {
	t.Helper()
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(f, Config{Batch: batch})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// stepErr is Server.step for tests that only care whether the step was
// served: its status as an error.
func (s *Server) stepErr(sess *Session, obs []float64) (StepResult, error) {
	res, st := s.step(sess, obs)
	switch st {
	case stepDraining:
		return res, errors.New("server is draining")
	case stepGone:
		return res, ErrSessionClosed
	}
	return res, nil
}

// obsStream generates a deterministic per-session observation
// sequence: a throughput-like positive random walk.
func obsStream(seed uint64, dim, steps int) [][]float64 {
	rng := stats.NewRNG(seed)
	out := make([][]float64, steps)
	level := 1.0
	for i := range out {
		obs := make([]float64, dim)
		for j := range obs {
			level += 0.1 * rng.NormFloat64()
			if level < 0.05 {
				level = 0.05
			}
			obs[j] = level
		}
		out[i] = obs
	}
	return out
}

// fuse makes n fused steps one batch: it takes the idle shard the way a
// flush does, so each of them parks; runs start, which launches them on
// goroutines of its own; waits until all n are parked; and releases the
// shard, whose run loop then flushes them together.
func (c *collector) fuse(n int, start func()) {
	c.mu.Lock()
	for c.busy {
		c.mu.Unlock()
		runtime.Gosched()
		c.mu.Lock()
	}
	c.busy = true
	c.mu.Unlock()
	start()
	for parked := 0; parked != n; {
		runtime.Gosched()
		c.mu.Lock()
		parked = len(c.parked)
		c.mu.Unlock()
	}
	c.release()
}

// TestBatchedMatchesSequential is the end-to-end equivalence property:
// sessions stepped concurrently through the micro-batching collector
// produce, step for step, bit-identical results to a reference session
// built from the same factory and stepped alone — for every scheme.
// Every round's fused steps are held until all have parked, so each is
// decided in a batch of eight.
func TestBatchedMatchesSequential(t *testing.T) {
	testBatchedMatchesSequential(t, true)
}

// TestFlushAloneMatchesSequential is the same property with the lanes
// running free: a step that finds its collector idle is flushed on its
// own goroutine, one that finds it busy parks, and eight fused lanes on
// one shard make both happen all the time.
func TestFlushAloneMatchesSequential(t *testing.T) {
	testBatchedMatchesSequential(t, false)
}

func testBatchedMatchesSequential(t *testing.T, fused bool) {
	s := batchTestServer(t, BatchConfig{MaxBatch: 64, Collectors: 1})
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck

	schemes := s.factory.Schemes()
	if len(schemes) != 3 {
		t.Fatalf("want all 3 schemes from synthetic artifacts, got %v", schemes)
	}
	const perScheme, steps = 4, 60
	dim := s.factory.ObsDim()

	type lane struct {
		scheme string
		sess   *Session
		stream [][]float64
		got    []StepResult
	}
	var lanes []*lane
	nFused := 0
	for si, scheme := range schemes {
		for k := 0; k < perScheme; k++ {
			sess, err := s.createSession(scheme)
			if err != nil {
				t.Fatal(err)
			}
			if sess.class != classBatchState {
				nFused++
			}
			lanes = append(lanes, &lane{
				scheme: scheme,
				sess:   sess,
				stream: obsStream(uint64(1000+si*100+k), dim, steps),
			})
		}
	}

	// Drive every lane concurrently through the batched server: steps
	// [from, to) of each, on a goroutine per lane.
	var wg sync.WaitGroup
	drive := func(from, to int) {
		for _, ln := range lanes {
			wg.Add(1)
			go func(ln *lane) {
				defer wg.Done()
				for _, obs := range ln.stream[from:to] {
					res, err := s.stepErr(ln.sess, obs)
					if err != nil {
						t.Errorf("%s: step: %v", ln.scheme, err)
						return
					}
					ln.got = append(ln.got, res)
				}
			}(ln)
		}
	}
	if fused {
		c := s.rollout.Active().batcher.collectors[0]
		for i := 0; i < steps; i++ {
			c.fuse(nFused, func() { drive(i, i+1) })
			wg.Wait()
		}
		// Per round: one flush of nFused, and a batch of one for each
		// session that has nothing to fuse.
		flushes, rows := uint64(steps*(1+len(lanes)-nFused)), float64(steps*len(lanes))
		if got := s.metrics.BatchSize; got.Count() != flushes || got.Sum() != rows {
			t.Fatalf("%d flushes of %g rows, want %d of %g", got.Count(), got.Sum(), flushes, rows)
		}
	} else {
		drive(0, steps)
		wg.Wait()
		if s.metrics.BatchSize.Count() == 0 {
			t.Fatal("no batches flushed — collector never engaged")
		}
	}

	// Replay each lane on a private sequential guard and compare.
	for _, ln := range lanes {
		g, err := s.factory.NewGuard(ln.scheme)
		if err != nil {
			t.Fatal(err)
		}
		ref := newSession("ref", ln.scheme, g, time.Now())
		if len(ln.got) != steps {
			t.Fatalf("%s: lane finished %d/%d steps", ln.scheme, len(ln.got), steps)
		}
		for i, obs := range ln.stream {
			want, err := ref.Step(obs, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			got := ln.got[i]
			if got.Action != want.Action {
				t.Fatalf("%s step %d: action %d != %d", ln.scheme, i, got.Action, want.Action)
			}
			if math.Float64bits(got.Decision.Score) != math.Float64bits(want.Decision.Score) {
				t.Fatalf("%s step %d: score %g != %g (not bit-identical)",
					ln.scheme, i, got.Decision.Score, want.Decision.Score)
			}
			if got.Decision.UsedDefault != want.Decision.UsedDefault ||
				got.Decision.Fired != want.Decision.Fired ||
				got.Decision.Step != want.Decision.Step ||
				got.Demoted != want.Demoted {
				t.Fatalf("%s step %d: metadata %+v != %+v", ln.scheme, i, got, want)
			}
		}
	}
}

// TestBatchedStepZeroAlloc is the CI allocation gate for the batched
// decision path: a steady-state step through collector parking, fused
// scoring and completion must not allocate — on the caller's
// goroutine or the collector's.
func TestBatchedStepZeroAlloc(t *testing.T) {
	s := batchTestServer(t, BatchConfig{MaxBatch: 16, Collectors: 1})
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	for _, scheme := range s.factory.Schemes() {
		sess, err := s.createSession(scheme)
		if err != nil {
			t.Fatal(err)
		}
		obs := obsStream(9, s.factory.ObsDim(), 1)[0]
		for i := 0; i < 50; i++ { // warm scratch, pool and histograms
			if _, err := s.stepErr(sess, obs); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := s.stepErr(sess, obs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: batched step allocates %.2f/op, want 0", scheme, allocs)
		}
	}
}

// TestBatcherRaceHammer runs under -race in `make race`: concurrent
// steps across schemes, session deletion mid-flight, and a drain that
// lands mid-flush. Steppers go through Server.step, gate and draining
// check included, exactly like the HTTP/binary front ends.
func TestBatcherRaceHammer(t *testing.T) {
	s := batchTestServer(t, BatchConfig{MaxBatch: 8, Collectors: 2})
	schemes := s.factory.Schemes()
	dim := s.factory.ObsDim()

	const nSess = 24
	sessions := make([]*Session, nSess)
	for i := range sessions {
		sess, err := s.createSession(schemes[i%len(schemes)])
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = sess
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for i, sess := range sessions {
		wg.Add(1)
		go func(i int, sess *Session) {
			defer wg.Done()
			stream := obsStream(uint64(i), dim, 16)
			for !stop.Load() {
				for _, obs := range stream {
					if _, st := s.step(sess, obs); st != stepOK {
						return // draining, or the session deleted or drained under us
					}
				}
			}
		}(i, sess)
	}
	// Delete a third of the fleet while their steppers run.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < nSess; i += 3 {
			time.Sleep(300 * time.Microsecond)
			s.table.Delete(sessions[i].ID())
		}
	}()

	time.Sleep(10 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Drain(ctx, io.Discard); err != nil {
		t.Fatalf("drain: %v", err)
	}
	stop.Store(true)
	wg.Wait()
	if got := s.Sessions(); got != 0 {
		t.Fatalf("%d sessions survived drain", got)
	}
}

// BenchmarkBatchedStep measures steady-state decision throughput
// through the micro-batching collector with a fleet of concurrent
// sessions — the server-side cost floor of the batched serving path,
// without transport. b.N counts individual session steps.
func BenchmarkBatchedStep(b *testing.B) {
	f, err := NewGuardFactory(sharedArtifacts(b), GuardConfig{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewServer(f, Config{Batch: BatchConfig{MaxBatch: 256}})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	schemes := f.Schemes()
	const fleet = 256
	sessions := make([]*Session, fleet)
	for i := range sessions {
		if sessions[i], err = s.createSession(schemes[i%len(schemes)]); err != nil {
			b.Fatal(err)
		}
	}
	var next atomic.Uint64
	obs := obsStream(7, f.ObsDim(), 64)
	b.SetParallelism(fleet / runtime.GOMAXPROCS(0))
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		sess := sessions[next.Add(1)%fleet]
		i := 0
		for pb.Next() {
			if _, err := s.stepErr(sess, obs[i&63]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

func TestClassifyGuard(t *testing.T) {
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]batchClass{
		SchemeND:   classBatchState,
		SchemeAEns: classBatchPolicy,
		SchemeVEns: classBatchValue,
	}
	for scheme, cls := range want {
		g, err := f.NewGuard(scheme)
		if err != nil {
			t.Fatal(err)
		}
		if got := classifyGuard(g); got != cls {
			t.Errorf("%s: class %d, want %d", scheme, got, cls)
		}
	}
}

// TestCollectorFlushZeroAlloc calls flush itself — the body of both
// the collector's loop and a caller's lone flush — on a singleton of
// each fused scheme and on a mixed batch, and requires zero allocations.
func TestCollectorFlushZeroAlloc(t *testing.T) {
	s := batchTestServer(t, BatchConfig{MaxBatch: 8, Collectors: 1})
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	obs := obsStream(10, s.factory.ObsDim(), 1)[0]
	c := s.rollout.Active().batcher.collectors[0]
	var calls []*stepCall
	for _, scheme := range []string{SchemeAEns, SchemeVEns} {
		sess, err := s.createSession(scheme)
		if err != nil {
			t.Fatal(err)
		}
		calls = append(calls, &stepCall{sess: sess, obs: obs, done: make(chan struct{}, 1)})
	}
	flush := func(batch []*stepCall) {
		now := time.Now()
		for _, call := range batch {
			call.now, call.enq = now, now
		}
		c.flush(batch)
		for _, call := range batch {
			<-call.done
			if call.err != nil {
				t.Fatal(call.err)
			}
		}
	}
	for _, batch := range [][]*stepCall{calls[:1], calls[1:], calls} {
		for i := 0; i < 20; i++ { // warm the scratch
			flush(batch)
		}
		if allocs := testing.AllocsPerRun(100, func() { flush(batch) }); allocs != 0 {
			t.Errorf("flush of %d call(s) starting with %s allocates %.2f/op, want 0",
				len(batch), batch[0].sess.scheme, allocs)
		}
	}
}

// TestPoisonedArtifactDemotesOnTheSameStep: a MaxFloat64-poisoned
// artifact (chaos.PoisonNetworks) overflows in the first dense product
// and the session must demote on the step where the non-finite score
// surfaces — the same step whether the forwards run through the packed
// kernel (a server session, batched) or through the layers' own
// Forward (a guard assembled here from the allocating policies).
func TestPoisonedArtifactDemotesOnTheSameStep(t *testing.T) {
	arts, err := SyntheticArtifacts("poisoned", 3, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, ag := range arts.Agents {
		chaos.PoisonNetworks(ag.Actor, ag.Critic) // the value ensemble is these critics
	}
	f, err := NewGuardFactory(arts, GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(f, Config{Batch: BatchConfig{Collectors: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck

	firstDemotion := func(step func(obs []float64) (StepResult, error)) int {
		for i, obs := range obsStream(12, f.ObsDim(), 10) {
			res, err := step(obs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Demotion {
				return i
			}
		}
		return -1
	}
	for _, scheme := range []string{SchemeAEns, SchemeVEns} {
		sess, err := s.createSession(scheme)
		if err != nil {
			t.Fatal(err)
		}
		packed := firstDemotion(func(obs []float64) (StepResult, error) { return s.stepErr(sess, obs) })

		var sig core.Signal
		alpha := arts.AlphaPi
		if scheme == SchemeAEns {
			sig, err = core.NewPolicySignal(rl.PolicyEnsemble(arts.Agents), f.cfg.Trim)
		} else {
			sig, err = core.NewValueSignal(rl.ValueEnsemble(arts.ValueNets), f.cfg.Trim)
			alpha = arts.AlphaV
		}
		if err != nil {
			t.Fatal(err)
		}
		def := &defaultPolicy{bb: abr.NewBBPolicy(f.NumActions()), onehot: make([]float64, f.NumActions())}
		g, err := core.NewGuard(rl.GreedyPolicy{P: arts.Agents[0]}, def, sig,
			core.NewTrigger(core.VarianceTriggerConfig(alpha, f.cfg.TriggerL)))
		if err != nil {
			t.Fatal(err)
		}
		ref := newSession("scalar", scheme, g, time.Now())
		scalar := firstDemotion(func(obs []float64) (StepResult, error) { return ref.Step(obs, time.Now()) })

		if packed < 0 || packed != scalar {
			t.Errorf("%s: demoted at step %d through the packed kernel, %d through Layer.Forward", scheme, packed, scalar)
		}
	}
}

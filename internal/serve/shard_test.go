package serve

import (
	"context"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"osap/internal/chaos"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/learn"
	"osap/internal/mdp"
	"osap/internal/nn"
	"osap/internal/stats"
)

// batchTestServer builds a server over the shared served set.
func batchTestServer(t testing.TB) *Server {
	t.Helper()
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(f, Config{})
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
	case statusDraining:
		return res, errors.New("server is draining")
	case statusGone:
		return res, ErrSessionClosed
	}
	return res, nil
}

// newSession wraps a guard that owns its scratch (NewGuard) in a
// session outside any Server, with a shard of its own. The caller owns
// ID uniqueness.
func newSession(id, scheme string, g *core.Guard, now time.Time) *Session {
	sh := &shard{}
	s := &Session{id: id, scheme: scheme, mu: &sh.mu, guard: g, shard: sh}
	s.lastUsed.Store(now.UnixNano())
	return s
}

// Step is Server.step's locking around Session.stepLocked, without a
// Server: the sequential reference the served path is tested against.
func (s *Session) Step(obs []float64, now time.Time) (StepResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stepLocked(obs, now)
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

// checkSameResult requires got to be want, down to the score's bits.
func checkSameResult(t *testing.T, label string, i int, got, want StepResult) {
	t.Helper()
	if got.Action != want.Action {
		t.Fatalf("%s step %d: action %d != %d", label, i, got.Action, want.Action)
	}
	if math.Float64bits(got.Decision.Score) != math.Float64bits(want.Decision.Score) {
		t.Fatalf("%s step %d: score %g != %g (not bit-identical)", label, i, got.Decision.Score, want.Decision.Score)
	}
	if got.Decision.UsedDefault != want.Decision.UsedDefault ||
		got.Decision.Fired != want.Decision.Fired ||
		got.Decision.Step != want.Decision.Step ||
		got.From != want.From || got.To != want.To {
		t.Fatalf("%s step %d: metadata %+v != %+v", label, i, got, want)
	}
}

// TestBatchedMatchesSequential is the end-to-end equivalence property:
// sessions of every scheme, stepped concurrently on a goroutine each —
// so a step often finds its shard held by another session's —
// produce, step for step, bit-identical results to a reference session
// built from the same factory and stepped alone; and osap_batch_size
// counts every decision exactly once, as a batch of one.
func TestBatchedMatchesSequential(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck

	schemes := s.factory.Schemes()
	if len(schemes) != 3 {
		t.Fatalf("want all 3 schemes from the served set, got %v", schemes)
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
	for si, scheme := range schemes {
		for k := 0; k < perScheme; k++ {
			sess, err := s.createSession(scheme)
			if err != nil {
				t.Fatal(err)
			}
			lanes = append(lanes, &lane{
				scheme: scheme,
				sess:   sess,
				stream: obsStream(uint64(1000+si*100+k), dim, steps),
			})
		}
	}

	var wg sync.WaitGroup
	for _, ln := range lanes {
		wg.Add(1)
		go func(ln *lane) {
			defer wg.Done()
			for _, obs := range ln.stream {
				res, err := s.stepErr(ln.sess, obs)
				if err != nil {
					t.Errorf("%s: step: %v", ln.scheme, err)
					return
				}
				ln.got = append(ln.got, res)
			}
		}(ln)
	}
	wg.Wait()
	decisions, sizes := s.metrics.Decisions.Load(), s.metrics.BatchSize
	if decisions != uint64(len(lanes)*steps) || sizes.Count() != decisions || sizes.Sum() != float64(decisions) {
		t.Fatalf("%d decisions, %d batches of %g rows; want %d of each", decisions, sizes.Count(), sizes.Sum(), len(lanes)*steps)
	}

	// Replay each lane on a private sequential guard and compare.
	for _, ln := range lanes {
		g, err := s.factory.NewGuard(ln.scheme)
		if err != nil {
			t.Fatal(err)
		}
		ref := newSession("ref", ln.scheme, g, time.Now())
		for i, obs := range ln.stream {
			want, err := ref.Step(obs, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, ln.scheme, i, ln.got[i], want)
		}
	}
}

// TestBatchedStepZeroAlloc is the CI allocation gate for the decision
// path: a steady-state step through its shard's lock, the shard's
// forwards and the session's step must not allocate.
func TestBatchedStepZeroAlloc(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	for _, scheme := range s.factory.Schemes() {
		sess, err := s.createSession(scheme)
		if err != nil {
			t.Fatal(err)
		}
		obs := obsStream(9, s.factory.ObsDim(), 1)[0]
		for i := 0; i < 50; i++ { // warm scratch and histograms
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
			t.Errorf("%s: step allocates %.2f/op, want 0", scheme, allocs)
		}
	}
}

// TestBatcherRaceHammer runs under -race in `make race`: concurrent
// steps across schemes on shared shards, session deletion mid-flight,
// and a drain that lands mid-step. Steppers go through Server.step,
// gate and draining check included, exactly like the HTTP/binary front
// ends.
func TestBatcherRaceHammer(t *testing.T) {
	s := batchTestServer(t)
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
					if _, st := s.step(sess, obs); st != statusOK {
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

// BenchmarkBatchedStep measures steady-state decision throughput of a
// fleet of concurrent sessions on shared shards — the server-side cost
// floor of the serving path, without transport. b.N counts individual
// session steps.
func BenchmarkBatchedStep(b *testing.B) {
	f, err := NewGuardFactory(sharedArtifacts(b), GuardConfig{})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewServer(f, Config{})
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

// TestPoisonedArtifactDemotesOnTheSameStep: a MaxFloat64-poisoned
// artifact (chaos.PoisonNetworks) overflows in the first dense product
// and the session must demote on the step where the non-finite score
// or distribution surfaces — the same step whether the forwards run
// through the packed kernel (a server session, on its shard) or
// through the layers' own Forward (a guard assembled here from the
// allocating policies). Under ND the score comes from the OC-SVM and
// stays finite; the actor's distribution is what demotes, so the
// reference guard serves the actor's own distribution, which
// GreedyInference passes through when it is non-finite.
func TestPoisonedArtifactDemotesOnTheSameStep(t *testing.T) {
	arts, err := experiments.LoadArtifacts(servedSet) // a copy of its own: the poison edits it
	if err != nil {
		t.Fatal(err)
	}
	for _, ag := range arts.Agents {
		chaos.PoisonNetworks(ag.Actor, ag.Critic)
	}
	chaos.PoisonNetworks(arts.ValueNets...)
	f, err := NewGuardFactory(arts, GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(f, Config{})
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
			if res.Demotion() {
				return i
			}
		}
		return -1
	}
	for _, scheme := range []string{SchemeND, SchemeAEns, SchemeVEns} {
		sess, err := s.createSession(scheme)
		if err != nil {
			t.Fatal(err)
		}
		packed := firstDemotion(func(obs []float64) (StepResult, error) { return s.stepErr(sess, obs) })
		if reason := sess.Snapshot(time.Now()).DemoteReason; scheme == SchemeND && !strings.Contains(reason, "non-finite distribution") {
			t.Errorf("ND demote reason %q, want it to name the non-finite distribution", reason)
		}

		// The factory's guard, its learned policy and signal swapped for
		// the layers' own Forward.
		g, err := f.NewGuard(scheme)
		if err != nil {
			t.Fatal(err)
		}
		g.Learned = arts.Agents[0]
		switch scheme {
		case SchemeAEns:
			members := make([]mdp.Policy, len(arts.Agents))
			for i, agent := range arts.Agents {
				members[i] = agent
			}
			g.Signal, err = core.NewPolicySignal(members, arts.Record.Trim())
		case SchemeVEns:
			members := make([]mdp.ValueFn, len(arts.ValueNets))
			for i, net := range arts.ValueNets {
				members[i] = criticValue{net}
			}
			g.Signal, err = core.NewValueSignal(members, arts.Record.Trim())
		}
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

// criticValue is a critic network's own Forward as an mdp.ValueFn, the
// reference the packed value handles are checked against.
type criticValue struct{ net *nn.Network }

func (c criticValue) Value(obs []float64) float64 { return c.net.Forward(obs)[0] }

// poisonSignal is a forward fault: it runs the wrapped signal and the
// learned policy on an observation of NaNs — garbage through every
// workspace of the shard's scratch the guard touches — then panics.
type poisonSignal struct {
	core.Signal
	learned mdp.Policy
}

func (p *poisonSignal) Observe(obs []float64) float64 {
	bad := make([]float64, len(obs))
	for i := range bad {
		bad[i] = math.NaN()
	}
	p.Signal.Observe(bad)
	p.learned.Probs(bad)
	panic("test: forward fault")
}

// TestForwardFaultLeavesShardClean: a session whose forwards fault
// after scribbling over its shard's scratch latches onto the default
// policy on that very step, and the next session on the same shard
// decides bit-identically to a standalone NewGuard+Decide — the shared
// scratch carries nothing from one step to the next.
func TestForwardFaultLeavesShardClean(t *testing.T) {
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	obs := obsStream(51, f.ObsDim(), 40)
	for _, scheme := range f.Schemes() {
		s, err := NewServer(f, Config{WrapGuard: func(idx uint64, g *core.Guard) {
			if idx == 0 {
				g.Signal = &poisonSignal{Signal: g.Signal, learned: g.Learned}
			}
		}})
		if err != nil {
			t.Fatal(err)
		}
		bad, err := s.createSession(scheme)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.stepErr(bad, obs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !res.Demotion() || !res.Panicked || !res.Latched() || !res.Decision.UsedDefault {
			t.Fatalf("%s: faulting step %+v, want a latching panic demotion answered by the default", scheme, res)
		}
		next := bad
		for next == bad || next.shard != bad.shard {
			if next, err = s.createSession(scheme); err != nil {
				t.Fatal(err)
			}
		}
		g, err := f.NewGuard(scheme)
		if err != nil {
			t.Fatal(err)
		}
		for i, o := range obs {
			got, err := s.stepErr(next, o)
			if err != nil {
				t.Fatal(err)
			}
			d := g.Decide(o)
			checkSameResult(t, scheme, i, got, StepResult{Action: mdp.ArgmaxAction(d.Probs), Decision: d})
		}
		if err := s.Drain(context.Background(), io.Discard); err != nil {
			t.Fatal(err)
		}
	}
}

// liveHeap collects and returns the bytes of live heap objects.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestSessionFootprint: the heap a server retains per session, by
// scheme, once the session has stepped through Server.step — at least
// once on the learned policy, the forward an ND session used to build
// a workspace of its own for. Every session's forwards run on its
// shard's scratch, so none holds an inference workspace. The sessions
// still decide as a fresh standalone guard does, bit for bit. A
// learning session's trust gate keeps forward scratch of its own over
// the baseline; its bytes are logged, not bounded.
func TestSessionFootprint(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck

	const n, steps, max = 512, 3, 1536 // max: bytes per session
	obs := obsStream(41, s.factory.ObsDim(), steps+1)
	retained := func(s *Server, scheme, kind string) ([]*Session, int64) {
		sessions := make([]*Session, n)
		before := liveHeap()
		for i := range sessions {
			sess, err := s.createSession(scheme)
			if err != nil {
				t.Fatal(err)
			}
			learned := false
			for _, o := range obs[:steps] {
				res, err := s.stepErr(sess, o)
				if err != nil {
					t.Fatal(err)
				}
				learned = learned || !res.Decision.UsedDefault
			}
			if !learned {
				t.Fatalf("%s: session %d never acted on the learned policy", scheme, i)
			}
			sessions[i] = sess
		}
		per := (liveHeap() - before) / n
		t.Logf("%s%s: %d B retained per session", kind, scheme, per)
		return sessions, per
	}
	learner, err := learn.New(learn.Config{Artifacts: sharedArtifacts(t), FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Stop() //nolint:errcheck // no log configured
	ls, err := NewServer(s.factory, Config{Learner: learner})
	if err != nil {
		t.Fatal(err)
	}
	defer ls.Drain(context.Background(), io.Discard) //nolint:errcheck
	if _, per := retained(ls, SchemeAEns, "learning "); per <= max {
		t.Errorf("a learning session retains %d B, no more than a plain one's bound: is its gate built?", per)
	}
	for _, scheme := range []string{SchemeND, SchemeAEns, SchemeVEns} {
		sessions, per := retained(s, scheme, "")
		if per > max {
			t.Errorf("%s: %d B retained per session, want ≤ %d", scheme, per, max)
		}

		g, err := s.factory.NewGuard(scheme)
		if err != nil {
			t.Fatal(err)
		}
		ref := newSession("ref", scheme, g, time.Now())
		for i, o := range obs {
			want, err := ref.Step(o, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			if i < steps {
				continue
			}
			got, err := s.stepErr(sessions[0], o)
			if err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, scheme, i, got, want)
		}
	}
}

// TestGenerationFootprint: a serving generation holds no float64
// network. A server over the 5-member served set keeps only the packed
// copies its guards read, so once the caller drops the set every one of
// its networks is collected, and the sessions opened before still
// decide bit for bit as guards built while the set was alive. It logs
// the heap the generation retains with the set and without it.
func TestGenerationFootprint(t *testing.T) {
	base := liveHeap()
	arts, err := experiments.LoadArtifacts(servedSet) // not sharedArtifacts: this test must own every network
	if err != nil {
		t.Fatal(err)
	}
	var freed atomic.Int64
	nets := make(map[*nn.Network]bool)
	for _, ac := range arts.Agents {
		nets[ac.Actor], nets[ac.Critic] = true, true
	}
	for _, vn := range arts.ValueNets {
		nets[vn] = true
	}
	for net := range nets {
		runtime.SetFinalizer(net, func(*nn.Network) { freed.Add(1) })
	}
	want := int64(len(nets))
	nets = nil

	f, err := NewGuardFactory(arts, GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	const steps = 6
	obs := obsStream(43, f.ObsDim(), steps)
	schemes := f.Schemes()
	sessions := make([]*Session, len(schemes))
	refs := make([][]StepResult, len(schemes))
	for k, scheme := range schemes {
		g, err := f.NewGuard(scheme)
		if err != nil {
			t.Fatal(err)
		}
		ref := newSession("ref", scheme, g, time.Now())
		for _, o := range obs {
			r, err := ref.Step(o, time.Now())
			if err != nil {
				t.Fatal(err)
			}
			refs[k] = append(refs[k], r)
		}
		if sessions[k], err = s.createSession(scheme); err != nil {
			t.Fatal(err)
		}
		for i, o := range obs[:steps/2] {
			got, err := s.stepErr(sessions[k], o)
			if err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, scheme, i, got, refs[k][i])
		}
	}
	t.Logf("generation of a 5-member set: %d B retained with the artifact set", liveHeap()-base)
	runtime.KeepAlive(arts)
	for deadline := time.Now().Add(5 * time.Second); freed.Load() < want; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d networks collected: the generation still holds the rest", freed.Load(), want)
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	t.Logf("generation of a 5-member set: %d B retained without it", liveHeap()-base)

	for k, scheme := range schemes {
		for i := steps / 2; i < steps; i++ {
			got, err := s.stepErr(sessions[k], obs[i])
			if err != nil {
				t.Fatal(err)
			}
			checkSameResult(t, scheme, i, got, refs[k][i])
		}
	}
}

package serve

import (
	"math"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/chaos"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/learn"
	"osap/internal/mdp"
	"osap/internal/rl"
	"osap/internal/stats"
	"osap/internal/trace"
)

// script pins g's uncertainty stream with the chaos fault wrapper the
// selftests use: each fault at its step, a confident 0 on every other
// step. Unlike overrideSignal it never consults the guard's real
// signal, so session-level state transitions are exactly the scheduled
// ones.
func script(g *core.Guard, faults ...chaos.Fault) {
	g.Signal = chaos.WrapSignal(g.Signal, chaos.SessionPlan{Faults: faults})
}

func nanAt(step int) chaos.Fault   { return chaos.Fault{Step: step, Kind: chaos.NaNScore} }
func panicAt(step int) chaos.Fault { return chaos.Fault{Step: step, Kind: chaos.PanicObserve} }

// overrideSignal delegates every observation to the real signal —
// keeping its internal state bit-identical to an unwrapped run — but
// overrides the returned score at scripted steps. The seam for the
// equivalence test: the wrapped guard sees every observation a fresh
// guard would.
type overrideSignal struct {
	inner core.Signal
	over  map[int]float64
	step  int
}

func (o *overrideSignal) Observe(obs []float64) float64 {
	v := o.inner.Observe(obs)
	if s, ok := o.over[o.step]; ok {
		v = s
	}
	o.step++
	return v
}

func (o *overrideSignal) Reset()       { o.inner.Reset() }
func (o *overrideSignal) Name() string { return o.inner.Name() }

// probationSession builds a session whose probation knobs are set and
// whose uncertainty stream follows the given script.
func probationSession(t *testing.T, readmitL, readmitCap int, faults ...chaos.Fault) *Session {
	t.Helper()
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.NewGuard(SchemeND)
	if err != nil {
		t.Fatal(err)
	}
	script(g, faults...)
	s := newSession("probation", SchemeND, g, time.Now())
	s.readmitL = readmitL
	s.readmitCap = readmitCap
	return s
}

// stepFlags drives the session n steps and returns every StepResult.
func stepFlags(t *testing.T, s *Session, n int) []StepResult {
	t.Helper()
	obs := make([]float64, abr.ObsDim)
	out := make([]StepResult, n)
	for i := range out {
		res, err := s.Step(obs, time.Now())
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		out[i] = res
	}
	return out
}

// TestShadowRecoveryIndex pins the deterministic geometry of probation
// (DESIGN.md §13): a demotion at step f keeps the demoted flag on for
// exactly readmitL steps — f .. f+readmitL-1 — and the re-admission at
// f+readmitL serves the shadow decision live. A second fault re-demotes
// (a Demotion without FirstDemotion); under a spent cap it latches
// permanently instead.
func TestShadowRecoveryIndex(t *testing.T) {
	const l = 4
	t.Run("recover-then-redemote", func(t *testing.T) {
		s := probationSession(t, l, 2, nanAt(6), nanAt(14))
		res := stepFlags(t, s, 24)
		for i, r := range res {
			wantDem := (i >= 6 && i < 10) || (i >= 14 && i < 18)
			if r.Demoted() != wantDem {
				t.Fatalf("step %d: Demoted = %v, want %v", i, r.Demoted(), wantDem)
			}
			if got, want := r.Recovered(), i == 10 || i == 18; got != want {
				t.Fatalf("step %d: Recovered = %v, want %v", i, got, want)
			}
			if got, want := r.Probation(), wantDem; got != want {
				t.Fatalf("step %d: Probation = %v, want %v", i, got, want)
			}
			if r.Latched() {
				t.Fatalf("step %d: Latched under an unspent cap", i)
			}
			if r.Demoted() && !r.Decision.UsedDefault {
				t.Fatalf("step %d: degraded step not served by the safe policy", i)
			}
		}
		if !res[6].FirstDemotion || !res[6].Demotion() {
			t.Fatalf("step 6 = %+v, want the first demotion", res[6])
		}
		if res[14].FirstDemotion || !res[14].Demotion() {
			t.Fatalf("step 14 = %+v, want a re-demotion", res[14])
		}
		if info := s.Snapshot(time.Now()); info.Recovered != 2 || info.Demoted {
			t.Fatalf("end snapshot = %+v, want 2 re-admissions and live", info)
		}
	})
	t.Run("cap-exhaustion-latches", func(t *testing.T) {
		s := probationSession(t, l, 1, nanAt(6), nanAt(14))
		res := stepFlags(t, s, 24)
		for i, r := range res {
			wantDem := (i >= 6 && i < 10) || i >= 14
			if r.Demoted() != wantDem {
				t.Fatalf("step %d: Demoted = %v, want %v", i, r.Demoted(), wantDem)
			}
			if got, want := r.Probation(), i >= 6 && i < 10; got != want {
				t.Fatalf("step %d: Probation = %v, want %v", i, got, want)
			}
		}
		if !res[14].Latched() || !res[14].Demotion() || res[14].FirstDemotion {
			t.Fatalf("step 14 = %+v, want a permanently latching re-demotion", res[14])
		}
		if info := s.Snapshot(time.Now()); !info.Demoted || !info.Latched || info.Probation {
			t.Fatalf("end snapshot = %+v, want latched", info)
		}
	})
	t.Run("shadow-panic-escalates", func(t *testing.T) {
		s := probationSession(t, l, 2, nanAt(6), panicAt(8))
		res := stepFlags(t, s, 16)
		for i, r := range res {
			if got, want := r.Demoted(), i >= 6; got != want {
				t.Fatalf("step %d: Demoted = %v, want %v", i, got, want)
			}
			if got, want := r.Probation(), i == 6 || i == 7; got != want {
				t.Fatalf("step %d: Probation = %v, want %v", i, got, want)
			}
			if got, want := r.Latched(), i == 8; got != want {
				t.Fatalf("step %d: Latched = %v, want %v", i, got, want)
			}
			if i == 8 && (!r.Panicked || r.Demotion()) {
				t.Fatalf("step 8 = %+v, want a panic escalation, not a fresh demotion", res[8])
			}
		}
		if info := s.Snapshot(time.Now()); !info.Latched || info.Probation {
			t.Fatalf("end snapshot = %+v, want permanently latched", info)
		}
	})
}

// TestSessionResetDemotionContract pins the Reset demotion contract
// (DESIGN.md §13): a fault demotion survives reset — the panic indicts
// the inference stack, not the episode — while an uncertainty demotion
// clears, whether still in probation or already cap-latched, and the
// re-admission budget refills.
func TestSessionResetDemotionContract(t *testing.T) {
	t.Run("uncertainty-in-probation-clears", func(t *testing.T) {
		s := probationSession(t, 4, 1, nanAt(2))
		stepFlags(t, s, 4) // demote at 2, still in probation
		if err := s.Reset(time.Now()); err != nil {
			t.Fatal(err)
		}
		if info := s.Snapshot(time.Now()); info.Demoted {
			t.Fatalf("after Reset %+v, want the probation cleared", info)
		}
		if res := stepFlags(t, s, 1)[0]; res.Demoted() {
			t.Fatal("session still demoted after a clearing reset")
		}
	})
	t.Run("uncertainty-cap-latched-clears", func(t *testing.T) {
		// cap 0: the very first uncertainty demotion latches.
		s := probationSession(t, 4, 0, nanAt(2))
		res := stepFlags(t, s, 4)
		if !res[2].Latched() {
			t.Fatalf("step 2 = %+v, want an immediately latching demotion under cap 0", res[2])
		}
		if err := s.Reset(time.Now()); err != nil {
			t.Fatal(err)
		}
		if info := s.Snapshot(time.Now()); info.Demoted {
			t.Fatalf("after Reset %+v, want the latch cleared", info)
		}
		if res := stepFlags(t, s, 1)[0]; res.Demoted() {
			t.Fatal("session still demoted after a clearing reset")
		}
	})
	t.Run("fault-survives", func(t *testing.T) {
		s := probationSession(t, 4, 2, panicAt(2))
		res := stepFlags(t, s, 4)
		if !res[2].Latched() || !res[2].Panicked {
			t.Fatalf("step 2 = %+v, want a latching fault demotion", res[2])
		}
		if err := s.Reset(time.Now()); err != nil {
			t.Fatal(err)
		}
		if info := s.Snapshot(time.Now()); !info.Latched {
			t.Fatalf("after Reset %+v, want the fault latch to survive", info)
		}
		if res := stepFlags(t, s, 1)[0]; !res.Demoted() {
			t.Fatal("fault-demoted session served live after reset")
		}
	})
	t.Run("budget-refills", func(t *testing.T) {
		s := probationSession(t, 2, 1, nanAt(2), nanAt(10))
		stepFlags(t, s, 8) // demote at 2, recover at 4: budget spent
		if info := s.Snapshot(time.Now()); info.Recovered != 1 {
			t.Fatalf("re-admissions before reset = %d, want 1", info.Recovered)
		}
		if err := s.Reset(time.Now()); err != nil {
			t.Fatal(err)
		}
		// The script keeps counting session steps across the episode
		// boundary: the fault at step 10 must enter probation again, not
		// latch, because Reset refilled the per-episode budget.
		res := stepFlags(t, s, 6) // steps 8..13
		if r := res[2]; !r.Demotion() || r.Latched() || !r.Probation() {
			t.Fatalf("post-reset demotion = %+v, want recoverable", r)
		}
		if r := res[4]; !r.Recovered() {
			t.Fatalf("step 12 = %+v, want a re-admission from the refilled budget", r)
		}
	})
}

// TestRecoveredSessionEquivalence is the probation identity check
// (DESIGN.md §13): shadow steps advance the real guard — signal
// windows, trigger state, episode bookkeeping — exactly as live steps
// would, so a session that demoted at step f and re-admitted at
// f+readmitL serves decisions bit-identical to a fresh guard
// fast-forwarded through the same observation sequence. The scheme is
// U_π (a real ensemble signal with trigger smoothing state), with only
// the demoting step's score overridden: the inner signal sees every
// observation either way.
func TestRecoveredSessionEquivalence(t *testing.T) {
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const steps, faultAt, readmitL = 20, 6, 4
	obsSeq := viewerTape(t, steps)

	// Reference: a fresh, unwrapped guard over the full sequence.
	gB, err := f.NewGuard(SchemeAEns)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newSession("fresh", SchemeAEns, gB, time.Now())
	ref := make([]StepResult, steps)
	for i := range ref {
		if ref[i], err = fresh.Step(obsSeq[i], time.Now()); err != nil {
			t.Fatal(err)
		}
		if ref[i].Decision.UsedDefault {
			t.Fatalf("reference step %d defaulted on in-distribution traffic", i)
		}
	}

	// Candidate: same guard construction, with the score overridden to
	// NaN at faultAt. The inner signal still sees every observation.
	gA, err := f.NewGuard(SchemeAEns)
	if err != nil {
		t.Fatal(err)
	}
	gA.Signal = &overrideSignal{inner: gA.Signal, over: map[int]float64{faultAt: math.NaN()}}
	cand := newSession("recovered", SchemeAEns, gA, time.Now())
	cand.readmitL = readmitL
	cand.readmitCap = 1

	recoverAt := faultAt + readmitL
	for i := 0; i < steps; i++ {
		res, err := cand.Step(obsSeq[i], time.Now())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Demoted(), i >= faultAt && i < recoverAt; got != want {
			t.Fatalf("step %d: Demoted = %v, want %v", i, got, want)
		}
		if res.Demoted() {
			continue // degraded steps serve the safe policy by design
		}
		if res.Action != ref[i].Action ||
			math.Float64bits(res.Decision.Score) != math.Float64bits(ref[i].Decision.Score) ||
			res.Decision.Step != ref[i].Decision.Step {
			t.Fatalf("step %d: recovered session diverged: (action %d, score %x, step %d) vs fresh (action %d, score %x, step %d)",
				i, res.Action, math.Float64bits(res.Decision.Score), res.Decision.Step,
				ref[i].Action, math.Float64bits(ref[i].Decision.Score), ref[i].Decision.Step)
		}
		if i == recoverAt && !res.Recovered() {
			t.Fatalf("step %d: Recovered not set at the re-admission index", i)
		}
	}
}

// viewerTape records the observations of the buffer-based policy
// streaming the paper-scale evaluation video over a Norway trace: the
// in-distribution traffic the served set was calibrated on. The
// reference pass asserts the U_π guard never defaults on it.
func viewerTape(t *testing.T, steps int) [][]float64 {
	t.Helper()
	video := experiments.PaperConfig().EvalVideo
	rng := stats.NewRNG(1)
	env, err := abr.NewEnv(abr.DefaultEnvConfig(video, []*trace.Trace{trace.Norway3G().Generate(rng, 200)}))
	if err != nil {
		t.Fatal(err)
	}
	bb := abr.NewBBPolicy(video.NumLevels())
	tape := make([][]float64, 0, steps)
	obs := env.Reset(rng)
	for len(tape) < steps {
		tape = append(tape, append([]float64(nil), obs...))
		next, _, done := env.Step(mdp.ArgmaxAction(bb.Probs(obs)))
		if obs = next; done {
			obs = env.Reset(rng)
		}
	}
	return tape
}

// TestShadowStepZeroAlloc pins the probation shadow path — demoted but
// recoverable, guard scored in shadow every step — at zero allocations,
// the guarantee the //osap:hotpath-stop annotations in Session.step
// cite. A huge readmitL holds the session in probation for the whole
// measurement; the latched fast path is pinned alongside.
func TestShadowStepZeroAlloc(t *testing.T) {
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{SchemeND, SchemeAEns, SchemeVEns} {
		g, err := f.NewGuard(scheme)
		if err != nil {
			t.Fatal(err)
		}
		s := newSession("shadow-alloc", scheme, g, time.Now())
		s.readmitL = 1 << 30 // never re-admits during the measurement
		s.readmitCap = -1
		obs := make([]float64, abr.ObsDim)
		now := time.Now()
		s.mu.Lock()
		s.mode = modeProbation
		s.mu.Unlock()
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := s.Step(obs, now); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: shadow Step allocates %.1f/op, want 0", scheme, allocs)
		}

		// The permanently-latched path (safe policy only, no shadow).
		s.mu.Lock()
		s.mode = modeLatchedScore
		s.mu.Unlock()
		allocs = testing.AllocsPerRun(200, func() {
			if _, err := s.Step(obs, now); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: latched Step allocates %.1f/op, want 0", scheme, allocs)
		}
	}
}

// modeFlag names one StepResult flag that the transition (From, To)
// does not determine, so a table row can state the exact set it expects.
type modeFlag uint8

const (
	fFirstFiring modeFlag = 1 << iota
	fFirstDemotion
	fPanic
	fGate // the trust gate judged the step (GateAdmitted is its verdict)
)

// modeScript is the table test's signal: it returns the score the
// current row set, panics where the row says so, and counts its calls
// so a row can tell whether the guard ran.
type modeScript struct {
	next  float64
	calls int
}

// Script entries that are not scores.
var (
	doPanic = math.Float64frombits(0x7ff8_0000_0000_0bad) // a NaN payload no score carries
	doReset = math.Float64frombits(0x7ff8_0000_0000_0b0b)
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func (m *modeScript) Observe([]float64) float64 {
	m.calls++
	if sameBits(m.next, doPanic) {
		panic("test: scripted panic")
	}
	return m.next
}
func (m *modeScript) Reset()       {}
func (m *modeScript) Name() string { return "mode-script" }

// nanPolicy is a learned policy whose distribution is not finite.
type nanPolicy struct{ probs []float64 }

func (p nanPolicy) Probs([]float64) []float64 { return p.probs }

// TestSessionModeTable walks every row of the session mode table
// (DESIGN.md §13) on a scripted signal: for each input it checks the
// transition (From, To) the one transition function recorded, the
// flags the transition does not determine, and whether the guard was
// run at all. The ND trigger (three consecutive positive scores,
// latched) supplies the "trigger demands the default" inputs. Every
// session carries a trust gate, so "gate checked on clean live steps
// only" is part of each row. A reset row asserts the mode alone.
func TestSessionModeTable(t *testing.T) {
	arts := sharedArtifacts(t)
	f, err := NewGuardFactory(arts, GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	learner, err := learn.New(learn.Config{
		Artifacts:     arts,
		Extract:       abr.LastThroughputMbps,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Stop() //nolint:errcheck // no log configured

	nan, inf := math.NaN(), math.Inf(1)
	type row struct {
		in   float64 // score, doPanic, or doReset
		to   sessionMode
		want modeFlag
	}
	// A learned forward that panics: the deployed actor of another
	// observation length, handed the table's observations.
	cfg := rl.DefaultNetConfig()
	cfg.HistoryLen--
	wrongDim, err := rl.NewActorCritic(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		live      = modeLive
		probation = modeProbation
		score     = modeLatchedScore
		fault     = modeLatchedFault
	)
	cases := []struct {
		name    string
		l, cap  int
		learned mdp.Policy // replaces the factory's learned policy when set
		rows    []row
	}{
		// live, finite: clean result, FirstFiring once, gate checked.
		{"live-finite", 2, 1, nil, []row{
			{0, live, fGate},
			{1, live, fGate}, {1, live, fGate},
			{1, live, fGate | fFirstFiring},
			{1, live, fGate},
		}},
		// live, non-finite score → probation; streak < l stays; streak == l
		// → live, served live with no gate and no FirstFiring.
		{"live-nan-then-recover", 2, 1, nil, []row{
			{0, live, fGate},
			{nan, probation, fFirstDemotion},
			{0, probation, 0},
			{0, live, 0},
			{0, live, fGate},
		}},
		// live, non-finite distribution → probation, and never confident.
		{"live-nan-distribution", 2, 1, nanPolicy{probs: []float64{math.NaN()}}, []row{
			{0, probation, fFirstDemotion},
			{0, probation, 0},
		}},
		// readmitL 0 → latchedScore; the guard is not run afterwards.
		{"live-inf-probation-off", 0, 1, nil, []row{
			{inf, score, fFirstDemotion},
			{0, score, 0},
		}},
		// readmitCap 0 → latchedScore.
		{"live-nan-cap-zero", 2, 0, nil, []row{
			{nan, score, fFirstDemotion},
		}},
		// Budget spent → latchedScore on a re-demotion; Reset from
		// latchedScore and from probation clears it and refills the budget.
		{"live-nan-budget-spent-then-reset", 1, 1, nil, []row{
			{nan, probation, fFirstDemotion},
			{0, live, 0},
			{nan, score, 0},
			{0, score, 0},
			{doReset, live, 0},
			{nan, probation, 0},
			{doReset, live, 0},
			{0, live, fGate},
		}},
		// A negative cap never latches.
		{"live-nan-unlimited-cap", 1, -1, nil, []row{
			{nan, probation, fFirstDemotion}, {0, live, 0},
			{nan, probation, 0}, {0, live, 0},
			{nan, probation, 0},
		}},
		// live, panic → latchedFault; Reset keeps it and keeps FirstFiring
		// suppressed.
		{"live-panic-then-reset", 2, 1, nil, []row{
			{doPanic, fault, fFirstDemotion | fPanic},
			{0, fault, 0},
			{doReset, fault, 0},
			{0, fault, 0},
		}},
		// live, the learned forward panics → latchedFault on that step,
		// answered by the default; Reset keeps it.
		{"live-forward-panic", 2, 1, rl.NewGreedyInference(wrongDim), []row{
			{0, fault, fFirstDemotion | fPanic},
			{0, fault, 0},
			{doReset, fault, 0},
		}},
		// A non-finite shadow score resets the streak: recovery comes one
		// full streak after it, not one step.
		{"probation-nan-resets-streak", 2, 1, nil, []row{
			{nan, probation, fFirstDemotion},
			{0, probation, 0},
			{nan, probation, 0},
			{0, probation, 0},
			{0, live, 0},
		}},
		// A shadow step on which the (latched) trigger demands the default
		// is not confident, however calm the scores after it.
		{"probation-trigger-fired", 4, 1, nil, []row{
			{nan, probation, fFirstDemotion},
			{1, probation, 0}, {1, probation, 0}, {1, probation, 0},
			{0, probation, 0}, {0, probation, 0}, {0, probation, 0}, {0, probation, 0},
		}},
		// probation, panic → latchedFault: a latch with Panicked, not a
		// demotion.
		{"probation-panic", 2, 1, nil, []row{
			{nan, probation, fFirstDemotion},
			{doPanic, fault, fPanic},
			{0, fault, 0},
			{doReset, fault, 0},
		}},
	}
	obs := make([]float64, abr.ObsDim)
	checked := &learner.Counters().Checked
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			g, err := f.NewGuard(SchemeND)
			if err != nil {
				t.Fatal(err)
			}
			sig := &modeScript{}
			g.Signal = sig
			if tc.learned != nil {
				g.Learned = tc.learned
			}
			s := newSession("mode-table", SchemeND, g, time.Now())
			s.readmitL, s.readmitCap = tc.l, tc.cap
			if s.gate, err = learner.NewGate(0); err != nil {
				t.Fatal(err)
			}
			for i, r := range tc.rows {
				before, calls, gated := s.mode, sig.calls, checked.Load()
				if sameBits(r.in, doReset) {
					if err := s.Reset(time.Now()); err != nil {
						t.Fatal(err)
					}
					if s.mode != r.to {
						t.Fatalf("row %d: Reset from mode %d left mode %d, want %d", i, before, s.mode, r.to)
					}
					if info := s.Snapshot(time.Now()); info.Fired != (r.to == modeLatchedFault) || info.Recovered != 0 {
						t.Fatalf("row %d: after Reset snapshot = %+v, want fired only under a fault latch and a refilled budget", i, info)
					}
					continue
				}
				sig.next = r.in
				res, err := s.Step(obs, time.Now())
				if err != nil {
					t.Fatal(err)
				}
				var got modeFlag
				for _, b := range []struct {
					on  bool
					bit modeFlag
				}{
					{res.FirstFiring, fFirstFiring}, {res.FirstDemotion, fFirstDemotion},
					{res.Panicked, fPanic}, {checked.Load() > gated, fGate},
				} {
					if b.on {
						got |= b.bit
					}
				}
				if res.From != before || res.To != r.to || s.mode != r.to || got != r.want {
					t.Fatalf("row %d: step from mode %d = (%d→%d) flags %b, session in mode %d; want (%d→%d) flags %b (%+v)",
						i, before, res.From, res.To, got, s.mode, before, r.to, r.want, res)
				}
				if res.GateAdmitted && got&fGate == 0 {
					t.Fatalf("row %d: GateAdmitted on a step the gate did not judge", i)
				}
				if ran, want := sig.calls > calls, before == modeLive || before == modeProbation; ran != want {
					t.Fatalf("row %d: guard ran = %v in mode %d, want %v", i, ran, before, want)
				}
				if res.Demoted() && (!res.Decision.UsedDefault || !res.Decision.Fired || res.Decision.Score != 0) {
					t.Fatalf("row %d: degraded step %+v not answered by the safe policy with score 0", i, res.Decision)
				}
			}
		})
	}
}

package serve

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"osap/internal/core"
	"osap/internal/learn"
	"osap/internal/mdp"
	"osap/internal/rl"
)

// ErrSessionClosed is returned by Session.Step after the session has
// been deleted, evicted or drained.
var ErrSessionClosed = errors.New("serve: session closed")

// Session is one client's live guard: a private core.Guard (its signal
// and trigger state, and inference handles whose workspaces exist only
// once the sequential path has run) plus bookkeeping for eviction and
// metrics. Steps on one session are serialized by its mutex, matching
// the guard's single-goroutine contract; different sessions are fully
// independent.
type Session struct {
	id     string
	scheme string

	mu     sync.Mutex
	guard  *core.Guard
	closed bool
	steps  uint64
	// fired suppresses FirstFiring: set by the trigger's first firing and
	// by any demotion, cleared by Reset.
	fired bool

	// mode is the session's place in the demotion state machine
	// (DESIGN.md §13): which policy answers a step and whether the guard
	// still runs. Assigned only by settleLocked and Reset.
	mode         sessionMode //osap:guardedby mu
	demoteReason string      //osap:guardedby mu
	// calm counts consecutive confident shadow steps; readmits the
	// re-admissions granted so far this episode; everDemoted persists
	// across episodes so FirstDemotion fires once per session lifetime.
	calm        int  //osap:guardedby mu
	readmits    int  //osap:guardedby mu
	everDemoted bool //osap:guardedby mu

	// Probation config, written once before the session is published to
	// the table and read-only afterwards. readmitL 0 (or readmitCap 0)
	// disables recovery: every demotion is permanent, the pre-probation
	// behavior.
	readmitL   int
	readmitCap int // 0 = never re-admit, < 0 = unlimited

	// lastUsed is the UnixNano of the latest touch, read lock-free by
	// the eviction sweeper.
	lastUsed atomic.Int64

	// Batch routing, written once before the session is published to
	// the table and read-only afterwards: which shard runs this
	// session's forwards and how much of a step a shard can compute for
	// it (see classifyGuard).
	shard int
	class batchClass

	// Generation binding, also written once pre-publication: the
	// artifact version this session pinned at admission (nil only for
	// sessions built outside a Server, e.g. table tests), plus its
	// drift-sketch routing.
	gen        *Generation
	driftShard uint32
	sigIdx     uint8

	// gate, when online learning is enabled, is the session's private
	// trust gate (DESIGN.md §14): every clean serving step is
	// re-judged against the frozen boot baseline and, if admitted,
	// contributed to the experience window. Written once
	// pre-publication; its mutable state is only touched under mu.
	gate *learn.Gate
}

// newSession wraps a guard. The caller owns ID uniqueness.
func newSession(id, scheme string, g *core.Guard, now time.Time) *Session {
	s := &Session{id: id, scheme: scheme, guard: g}
	s.lastUsed.Store(now.UnixNano())
	return s
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Scheme returns the uncertainty scheme the session was created with.
func (s *Session) Scheme() string { return s.scheme }

// StepResult is the outcome of one served decision.
type StepResult struct {
	// Action is the argmax of the acting policy's distribution — the
	// level the client should fetch next.
	Action int
	// Decision carries the uncertainty score, the learned/default flag
	// and the trigger state. Decision.Probs is cleared (it aliases the
	// session's internal buffers and must not escape the step lock).
	Decision core.Decision
	// FirstFiring is true on the step where this session's trigger
	// first fired (for the trigger-firings counter).
	FirstFiring bool
	// Demoted reports that the session is serving in degraded mode:
	// this decision came from the safe default policy because inference
	// faulted earlier (or on this step).
	Demoted bool
	// FirstDemotion is true on the step of the session's first-ever
	// demotion (for the sessions-demoted counter — incremented exactly
	// once per session).
	FirstDemotion bool
	// PanicRecovered distinguishes a recovered inference panic from a
	// non-finite score on the demoting step.
	PanicRecovered bool
	// Demotion is true on any demoting step, first or repeat;
	// Redemotion marks a demotion of a previously recovered session.
	Demotion   bool
	Redemotion bool
	// Probation is true while the session is demoted but recoverable:
	// the guard keeps scoring in shadow and the session may re-admit.
	Probation bool
	// Recovered is true on the step where probation re-admitted the
	// session; the decision was served live from the guard again.
	Recovered bool
	// Latched is true on the step where the demotion became permanent:
	// a fault demotion, an uncertainty demotion with probation off or
	// the re-admission cap spent, or a shadow-step panic escalating an
	// open probation.
	Latched bool
	// GateChecked is true when the online-learning trust gate judged
	// this step (learning enabled and the step served cleanly —
	// demoted, probation and recovery steps are never gate-checked);
	// GateAdmitted is true when the gate admitted the step's features
	// to the experience window.
	GateChecked  bool
	GateAdmitted bool
}

// sessionMode is the demotion state machine's state (DESIGN.md §13). A
// step panic or a non-finite score moves the session off its learned
// stack onto the safe default policy — the Simplex move, applied to
// infrastructure faults instead of model uncertainty.
type sessionMode uint8

const (
	// modeLive: the guard's decision is served.
	modeLive sessionMode = iota
	// modeProbation: a non-finite score or distribution demoted the
	// session. The safe policy answers while the guard keeps scoring in
	// shadow; readmitL consecutive confident shadow steps re-admit it.
	modeProbation
	// modeLatchedScore: an uncertainty demotion with probation off or the
	// episode's re-admission budget spent. The guard no longer runs; only
	// Reset clears it.
	modeLatchedScore
	// modeLatchedFault: the inference stack panicked. Permanent for the
	// session's lifetime — a stack that has panicked once is not trusted
	// again, and the panic indicts the stack, not the episode.
	modeLatchedFault
)

// Step runs one guarded decision with the session's private inference:
// step with nothing supplied by a shard. It is the sequential reference
// the shard path is tested against, and what a shard falls back to when
// its forwards fault. A session's inference workspaces are built on its
// first sequential step.
//
//osap:hotpath
func (s *Session) Step(obs []float64, now time.Time) (StepResult, error) {
	return s.step(obs, nil, now)
}

// step is the one step path. ev carries what a shard already computed
// for this observation (nil: nothing, the guard runs its own
// forwards); now stamps the idle clock.
//
// The guard call is panic-contained: a panic anywhere in the inference
// stack, or a non-finite uncertainty score escaping it, demotes the
// session to the safe default policy instead of killing the serving
// goroutine or poisoning downstream JSON. The step that hits the fault
// is still answered — from the safe policy — so no client-visible
// decision is ever dropped.
//
//osap:hotpath
func (s *Session) step(obs []float64, ev *batchEval, now time.Time) (StepResult, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return StepResult{}, ErrSessionClosed
	}
	var d core.Decision
	var pv any
	if s.mode < modeLatchedScore { // live or probation: the guard runs
		d, pv = s.decide(obs, ev) //osap:hotpath-stop decide is panic containment by design; clean paths asserted by TestSessionStepZeroAlloc, TestBatchedStepZeroAlloc and TestShadowStepZeroAlloc
	}
	res := s.settleLocked(obs, d, pv)
	s.steps++
	s.lastUsed.Store(now.UnixNano())
	return res, nil
}

// settleLocked is the mode switch: given what the guard produced this
// step (d, or the panic pv; neither when a latched mode skipped the
// guard) it picks the next mode and builds every StepResult flag from
// (mode before, mode after, panicked). DESIGN.md §13 has the table.
//
// In probation the guard scored the real observation in shadow, so its
// signal, trigger and episode bookkeeping advanced exactly as a live
// guard's would — which is what makes a recovered session bit-identical
// to a fresh guard fast-forwarded through the same observations.
//
//osap:hotpath
func (s *Session) settleLocked(obs []float64, d core.Decision, pv any) StepResult {
	before, after := s.mode, s.mode
	switch {
	case before >= modeLatchedScore:
		// The guard was not run; a latch leaves only through Reset.
	case pv != nil:
		after = modeLatchedFault
	case before == modeLive:
		if !finiteDecision(&d) {
			after = modeProbation
			if s.readmitL <= 0 || s.readmitCap == 0 || (s.readmitCap > 0 && s.readmits >= s.readmitCap) {
				after = modeLatchedScore
			}
		}
	case finiteDecision(&d) && !d.UsedDefault:
		// Confident shadow step: finite, and the trigger not demanding
		// the default. The step that completes the streak is served live.
		s.calm++
		if s.calm >= s.readmitL {
			after = modeLive
			s.readmits++
		}
	default:
		s.calm = 0
	}
	s.mode = after

	if after == modeLive {
		res := StepResult{Action: mdp.ArgmaxAction(d.Probs), Decision: d}
		res.Decision.Probs = nil
		if before == modeProbation {
			res.Recovered = true
			s.calm = 0
			s.demoteReason = ""
			return res
		}
		if d.Fired && !s.fired {
			s.fired = true
			res.FirstFiring = true
		}
		if s.gate != nil {
			res.GateChecked = true
			res.GateAdmitted = s.gate.Check(obs) == learn.VerdictAdmit
		}
		return res
	}

	res := s.serveSafeLocked(obs)
	res.PanicRecovered = pv != nil
	res.Probation = after == modeProbation
	res.Latched = after != before && after != modeProbation
	if before == modeLive {
		res.Demotion = true
		res.FirstDemotion = !s.everDemoted
		res.Redemotion = s.everDemoted
		s.everDemoted = true
		// The trigger-firings counter tracks genuine uncertainty
		// triggers, not infrastructure faults.
		s.fired = true
		s.calm = 0
		//osap:ignore hotpath-alloc demotion slow path, runs at most a few (readmit-cap) times per session
		s.demoteReason = fmt.Sprintf("step %d: panic=%v score=%g", s.steps, pv, d.Score)
	} else if pv != nil {
		//osap:ignore hotpath-alloc latch escalation slow path, runs at most once per session
		s.demoteReason = fmt.Sprintf("%s; shadow step %d: panic=%v", s.demoteReason, s.steps, pv)
	}
	return res
}

// batchEval carries the shard-computed inputs for one session's step.
// The slices alias shard-owned scratch and are valid only for the
// duration of the step call.
type batchEval struct {
	class    batchClass
	deployed []float64   // deployed actor's distribution row
	dists    [][]float64 // U_π member rows (classBatchPolicy)
	vals     []float64   // U_V member values (classBatchValue)
}

// decide runs the guard and is the step's only panic container. With
// ev nil the guard evaluates its own signal and learned policy;
// otherwise the signal is scored from the shard-computed inputs and the
// learned one-hot derived from the shard's deployed forward. The type
// assertions are safe by construction: GuardFactory.NewGuard installs
// the greedy inference and classifyGuard proved the signal's type at
// session creation. It is deliberately not //osap:hotpath-annotated:
// the deferred recover is the whole point, and the clean path's
// zero-alloc guarantee is asserted empirically instead.
func (s *Session) decide(obs []float64, ev *batchEval) (d core.Decision, panicked any) {
	defer func() {
		if r := recover(); r != nil {
			panicked = r
		}
	}()
	if ev == nil {
		return s.guard.Decide(obs), nil
	}
	var score float64
	switch ev.class {
	case classBatchPolicy:
		score = s.guard.Signal.(*core.PolicySignal).ObserveDists(ev.dists)
	case classBatchValue:
		score = s.guard.Signal.(*core.ValueSignal).ObserveValues(ev.vals)
	default:
		score = s.guard.Signal.Observe(obs)
	}
	learned := s.guard.Learned.(*rl.GreedyInference).OneHot(ev.deployed)
	return s.guard.DecideWith(obs, score, learned), nil
}

// finiteDecision reports whether the decision is safe to serve: a
// finite score and finite probabilities. Checked before Probs is
// cleared, since a NaN in the distribution makes the argmax arbitrary.
func finiteDecision(d *core.Decision) bool {
	if math.IsNaN(d.Score) || math.IsInf(d.Score, 0) {
		return false
	}
	for _, p := range d.Probs {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return false
		}
	}
	return true
}

// serveSafeLocked answers one step purely from the safe default
// policy, bypassing the demoted guard entirely. Score stays 0 — never
// the poisoned value — so the response always JSON-encodes.
func (s *Session) serveSafeLocked(obs []float64) StepResult {
	probs := s.guard.Default.Probs(obs) //osap:hotpath-stop the fallback policy (serve defaultPolicy over abr BB) is annotated and alloc-tested
	return StepResult{
		Action: mdp.ArgmaxAction(probs),
		Decision: core.Decision{
			UsedDefault: true,
			Fired:       true,
			Step:        int(s.steps),
		},
		Demoted: true,
	}
}

// Demoted reports whether the session is serving in degraded mode.
func (s *Session) Demoted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode != modeLive
}

// DemotionState reports the session's demotion status in one snapshot:
// whether it is demoted and whether that demotion is still recoverable
// (probation). Used by the server's gauge accounting.
func (s *Session) DemotionState() (demoted, probation bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode != modeLive, s.mode == modeProbation
}

// ResetOutcome reports what a Reset did beyond restarting the episode,
// so the server can keep its demotion gauges honest.
type ResetOutcome struct {
	// ClearedDemotion is true when the reset cleared an uncertainty
	// demotion (the session serves live again).
	ClearedDemotion bool
	// WasProbation is true when the cleared demotion was still
	// recoverable (the session was occupying the probation gauge).
	WasProbation bool
}

// Reset starts a new episode on the session's guard (e.g. the client
// began a new video) without discarding the session.
//
// Demotion contract (DESIGN.md §13): a fault demotion survives reset —
// the panic indicts the session's inference stack, not the episode —
// while an uncertainty demotion (non-finite score), including one whose
// re-admission cap latched it, clears with the new episode: the guard
// state that produced the bad score is discarded wholesale, which is
// strictly stronger evidence than the shadow hysteresis. The
// re-admission budget is per-episode and refills.
func (s *Session) Reset(now time.Time) (ResetOutcome, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ResetOutcome{}, ErrSessionClosed
	}
	var out ResetOutcome
	if s.mode == modeProbation || s.mode == modeLatchedScore {
		out = ResetOutcome{ClearedDemotion: true, WasProbation: s.mode == modeProbation}
		s.mode = modeLive
		s.demoteReason = ""
	}
	s.calm = 0
	s.readmits = 0
	s.guard.Reset()
	if s.gate != nil {
		s.gate.Reset()
	}
	s.fired = s.mode == modeLatchedFault // a surviving fault demotion keeps FirstFiring suppressed
	s.lastUsed.Store(now.UnixNano())
	return out, nil
}

// close marks the session unusable. Idempotent; reports whether this
// call performed the close.
func (s *Session) close() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	was := s.closed
	s.closed = true
	return !was
}

// idleSince reports the last-touch time.
func (s *Session) idleSince() time.Time { return time.Unix(0, s.lastUsed.Load()) }

// Info is a read-only session snapshot for the GET endpoint.
type Info struct {
	ID           string `json:"id"`
	Scheme       string `json:"scheme"`
	Version      string `json:"version,omitempty"`
	Steps        uint64 `json:"steps"`
	Fired        bool   `json:"fired"`
	IdleMsec     int64  `json:"idle_ms"`
	Demoted      bool   `json:"demoted"`
	DemoteReason string `json:"demote_reason,omitempty"`
	// Probation: demoted but recoverable (shadow scoring under way).
	Probation bool `json:"probation,omitempty"`
	// Latched: the demotion is permanent for the session's lifetime.
	Latched bool `json:"latched,omitempty"`
	// Recovered counts probation re-admissions this episode.
	Recovered int `json:"recovered,omitempty"`
}

// Snapshot captures the session's current state.
func (s *Session) Snapshot(now time.Time) Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	idle := now.Sub(time.Unix(0, s.lastUsed.Load()))
	if idle < 0 {
		idle = 0
	}
	version := ""
	if s.gen != nil {
		version = s.gen.Version()
	}
	return Info{
		ID:           s.id,
		Scheme:       s.scheme,
		Version:      version,
		Steps:        s.steps,
		Fired:        s.fired,
		IdleMsec:     idle.Milliseconds(),
		Demoted:      s.mode != modeLive,
		DemoteReason: s.demoteReason,
		Probation:    s.mode == modeProbation,
		Latched:      s.mode >= modeLatchedScore,
		Recovered:    s.readmits,
	}
}

// String implements fmt.Stringer for logs.
func (s *Session) String() string {
	return fmt.Sprintf("session %s (%s)", s.id, s.scheme)
}

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
	"osap/internal/stats"
)

// ErrSessionClosed is returned by a step on a session that has
// been deleted, evicted or drained.
var ErrSessionClosed = errors.New("serve: session closed")

// Session is one client's live guard: a private core.Guard (its signal
// and trigger state, and inference handles on its shard's scratch) plus
// bookkeeping for eviction and metrics. Its lock is its shard's
// (shard.go): holding it keeps the shard's scratch to one forward at a
// time and serializes the session's steps against Reset, Snapshot and
// close, matching the guard's single-goroutine contract.
type Session struct {
	id     string
	scheme string

	// mu is &shard.mu, set before the session is published to the table.
	mu     *sync.Mutex
	guard  *core.Guard
	closed bool   //osap:guardedby mu
	steps  uint64 //osap:guardedby mu
	// fired suppresses FirstFiring: set by the trigger's first firing and
	// by any demotion, cleared by Reset.
	fired bool //osap:guardedby mu

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

	// lastUsed is the UnixNano of the latest touch, stamped under mu
	// and read lock-free by closeIfIdle before it takes mu.
	lastUsed atomic.Int64

	// shard is the lock, scratch and sketches this session's steps run
	// on, written once before the session is published to the table and
	// read-only afterwards (see shard.go).
	shard *shard

	// Generation binding, also written once pre-publication: the
	// artifact version this session pinned at admission (nil only for
	// sessions built outside a Server), plus its drift-sketch signal.
	gen    *Generation
	sigIdx uint8

	// gate, when online learning is enabled, is the session's private
	// trust gate (DESIGN.md §14): every clean serving step is
	// re-judged against the frozen boot baseline and, if admitted,
	// contributed to the experience window. Written once
	// pre-publication; its mutable state is only touched under mu.
	gate *learn.Gate
}

// ID returns the session identifier.
func (s *Session) ID() string { return s.id }

// Scheme returns the uncertainty scheme the session was created with.
func (s *Session) Scheme() string { return s.scheme }

// StepResult is the outcome of one served decision: the action, the
// guard's decision, and the session's mode transition (From, To). Every
// other outcome of the step — demoted, probation, recovered, a demotion
// or re-demotion, a latch — is a function of the transition (the
// methods below); the four flags that are not are carried beside it.
type StepResult struct {
	// Action is the argmax of the acting policy's distribution — the
	// level the client should fetch next.
	Action int
	// Decision carries the uncertainty score, the learned/default flag
	// and the trigger state. Decision.Probs is cleared (it aliases the
	// session's internal buffers and must not escape the step lock).
	Decision core.Decision
	// From and To are the session's mode before and after the step
	// (DESIGN.md §13).
	From, To sessionMode
	// Panicked is true when the guard panicked on this step: the cause
	// of a fault latch, as opposed to a non-finite result.
	Panicked bool
	// FirstFiring is true on the step where this session's trigger
	// first fired (for the trigger-firings counter).
	FirstFiring bool
	// FirstDemotion is true on the step of the session's first-ever
	// demotion (for the sessions-demoted counter — counted exactly once
	// per session).
	FirstDemotion bool
	// GateAdmitted is true when the online-learning trust gate admitted
	// the step's features to the experience window. The gate judges only
	// clean live steps (From and To both live) of sessions that have one.
	GateAdmitted bool
}

// Demoted reports that the decision came from the safe default policy
// because the session is serving in degraded mode.
func (r *StepResult) Demoted() bool { return r.To != modeLive }

// Probation reports that the session is demoted but recoverable: the
// guard keeps scoring in shadow and the session may re-admit.
func (r *StepResult) Probation() bool { return r.To == modeProbation }

// Recovered reports the step on which probation re-admitted the
// session; the decision was served live from the guard again.
func (r *StepResult) Recovered() bool { return r.From == modeProbation && r.To == modeLive }

// Demotion reports a demoting step, first or repeat (a re-demotion is
// one without FirstDemotion).
func (r *StepResult) Demotion() bool { return r.From == modeLive && r.To != modeLive }

// Latched reports the step on which a demotion became permanent: a
// fault, an uncertainty demotion with probation off or the re-admission
// cap spent, or a shadow-step panic escalating an open probation.
func (r *StepResult) Latched() bool { return r.To >= modeLatchedScore && r.To != r.From }

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

// stepLocked is the one step path; the caller holds mu (Server.step),
// and now stamps the idle clock.
//
// The guard call is panic-contained: a panic anywhere in the inference
// stack, or a non-finite uncertainty score escaping it, demotes the
// session to the safe default policy instead of killing the serving
// goroutine or poisoning downstream JSON. The step that hits the fault
// is still answered — from the safe policy — so no client-visible
// decision is ever dropped.
//
//osap:hotpath
func (s *Session) stepLocked(obs []float64, now time.Time) (StepResult, error) {
	if s.closed {
		return StepResult{}, ErrSessionClosed
	}
	var d core.Decision
	var pv any
	if s.mode < modeLatchedScore { // live or probation: the guard runs
		d, pv = s.decide(obs) //osap:hotpath-stop decide is panic containment by design; clean paths asserted by TestSessionStepZeroAlloc, TestBatchedStepZeroAlloc and TestShadowStepZeroAlloc
	}
	res := s.settleLocked(obs, d, pv)
	s.steps++
	s.lastUsed.Store(now.UnixNano())
	return res, nil
}

// settleLocked is the mode switch: given what the guard produced this
// step (d, or the panic pv; neither when a latched mode skipped the
// guard) it picks the next mode and records the transition on the
// StepResult. DESIGN.md §13 has the table.
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
		if !finiteStep(obs, &d) {
			after = modeProbation
			if s.readmitL <= 0 || s.readmitCap == 0 || (s.readmitCap > 0 && s.readmits >= s.readmitCap) {
				after = modeLatchedScore
			}
		}
	case finiteStep(obs, &d) && !d.UsedDefault:
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

	var res StepResult
	if after == modeLive {
		res = StepResult{Action: mdp.ArgmaxAction(d.Probs), Decision: d}
		res.Decision.Probs = nil
	} else {
		res = s.serveSafeLocked(obs)
	}
	res.From, res.To, res.Panicked = before, after, pv != nil
	switch {
	case before == modeProbation && after == modeLive:
		s.calm = 0
		s.demoteReason = ""
	case after == modeLive:
		if d.Fired && !s.fired {
			s.fired = true
			res.FirstFiring = true
		}
		if s.gate != nil {
			res.GateAdmitted = s.gate.Check(obs) == learn.VerdictAdmit
		}
	case before == modeLive:
		res.FirstDemotion = !s.everDemoted
		s.everDemoted = true
		// The trigger-firings counter tracks genuine uncertainty
		// triggers, not infrastructure faults.
		s.fired = true
		s.calm = 0
		//osap:ignore hotpath-alloc demotion slow path, runs at most a few (readmit-cap) times per session
		s.demoteReason = fmt.Sprintf("step %d: panic=%v score=%g%s", s.steps, pv, d.Score, nonFiniteInput(obs, &d))
	case pv != nil:
		//osap:ignore hotpath-alloc latch escalation slow path, runs at most once per session
		s.demoteReason = fmt.Sprintf("%s; shadow step %d: panic=%v", s.demoteReason, s.steps, pv)
	}
	return res
}

// decide runs the guard and is the step's only panic container: a
// fault in any forward, the signal or the trigger surfaces here as
// panicked, and settleLocked latches the session. It is deliberately
// not //osap:hotpath-annotated: the deferred recover is the whole
// point, and the clean path's zero-alloc guarantee is asserted
// empirically instead.
func (s *Session) decide(obs []float64) (d core.Decision, panicked any) {
	defer func() {
		if r := recover(); r != nil {
			panicked = r
		}
	}()
	return s.guard.Decide(obs), nil
}

// finiteStep reports whether the step is safe to serve: a finite
// observation, score and distribution (DESIGN.md §13). The observation
// is checked because it can leave every score finite: the forwards'
// ReLU maps NaN to +0. Checked before Probs is cleared, since a NaN in
// the distribution makes the argmax arbitrary.
func finiteStep(obs []float64, d *core.Decision) bool {
	return !math.IsNaN(d.Score) && !math.IsInf(d.Score, 0) && stats.AllFinite(obs) && stats.AllFinite(d.Probs)
}

// nonFiniteInput names, for a demotion's reason, the non-finite
// observation or distribution behind it ("" when there is neither; a
// non-finite score is in the reason already).
func nonFiniteInput(obs []float64, d *core.Decision) string {
	switch {
	case !stats.AllFinite(obs):
		return " cause=non-finite observation"
	case !stats.AllFinite(d.Probs):
		return " cause=non-finite distribution"
	}
	return ""
}

// serveSafeLocked answers one step purely from the safe default
// policy, bypassing the demoted guard entirely. Score stays 0 — never
// the poisoned value — so the response always JSON-encodes.
func (s *Session) serveSafeLocked(obs []float64) StepResult {
	probs := s.guard.Default.Probs(obs) //osap:hotpath-stop the fallback policy (experiments bbDefault over abr BB) is annotated and alloc-tested
	return StepResult{
		Action: mdp.ArgmaxAction(probs),
		Decision: core.Decision{
			UsedDefault: true,
			Fired:       true,
			Step:        int(s.steps),
		},
	}
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
func (s *Session) Reset(now time.Time) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrSessionClosed
	}
	if s.mode == modeProbation || s.mode == modeLatchedScore {
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
	return nil
}

// close marks the session unusable. Idempotent.
func (s *Session) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

// closeIfIdle closes the session if it has been idle since before
// cutoff, judged under mu, the lock a step stamps lastUsed under, and
// reports whether it did. A fresh stamp answers without the lock.
func (s *Session) closeIfIdle(cutoff time.Time) bool {
	if !s.idleSince().Before(cutoff) {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || !s.idleSince().Before(cutoff) {
		return false
	}
	s.closed = true
	return true
}

// liveMode reads the session's mode for the server's gauges; ok is
// false once the session is closed.
func (s *Session) liveMode() (mode sessionMode, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mode, !s.closed
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

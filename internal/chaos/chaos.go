// Package chaos is the repo's deterministic fault-injection framework:
// the systems-layer counterpart of the paper's uncertainty injection.
// The paper asks "what happens when the learned component meets inputs
// it was not trained for?"; this package asks the same question of the
// serving stack itself — what happens when inference panics, a NaN
// leaks out of a workspace, an artifact file loses a bit, the server
// is overloaded, or a client stalls mid-transfer — and lets the
// selftest harness (cmd/osap-serve's TestChaosSmallScale) prove the answer
// is "degrade to the safe policy, recover exactly when the state
// machine says, never crash, never drop a step".
//
// One Schedule drives both selftests; ServeScript and RecoveryScript
// are its two constructors. Every decision is a pure function of the
// schedule's seed, budget and probation knobs and an index — seeded draws by stateless hashing,
// or a fixed pattern cycle — so two runs inject exactly the same
// faults, and one replay of the session state machine (DESIGN.md §13)
// over each session's plan yields every expected value in closed form:
// the demoted flag of each (session, step) pair (DemotedAt) and the
// fleet totals (Expected).
//
// Production builds pay zero cost: the serving stack never imports
// this package. Injection happens behind small seams — the
// serve.Config.WrapGuard hook (one nil check at session creation), the
// serve.Config.RequestFault hook (one nil check per request) — both
// absent from production wiring.
package chaos

import (
	"fmt"
	"time"

	"osap/internal/core"
	"osap/internal/stats"
)

// Kind enumerates the injectable per-session inference faults.
type Kind uint8

const (
	// None marks no fault.
	None Kind = iota
	// PanicObserve panics inside Signal.Observe — a crash anywhere in
	// the per-step inference stack (nn workspaces, OC-SVM kernels,
	// ensemble bookkeeping all run under it).
	PanicObserve
	// NaNScore returns NaN from Signal.Observe — a poisoned inference
	// output reaching the guard.
	NaNScore
	// InfScore returns +Inf from Signal.Observe.
	InfScore
)

// String names the fault kind for logs.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case PanicObserve:
		return "panic"
	case NaNScore:
		return "nan"
	case InfScore:
		return "inf"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault schedules one inference fault: Kind injected at the session's
// Step-th guard decision (0-based, counted over the session's life).
type Fault struct {
	Step int
	Kind Kind
}

// SessionPlan is everything the schedule injects into one session: its
// faults in ascending step order, plus optional recurring latency
// spikes (sleep SpikeDelay on every step ≡ SpikePhase mod SpikeEvery).
type SessionPlan struct {
	Faults     []Fault
	SpikeEvery int
	SpikePhase int
	SpikeDelay time.Duration
}

// Clean reports whether the plan injects nothing.
func (p SessionPlan) Clean() bool { return len(p.Faults) == 0 && p.SpikeEvery == 0 }

// ClientPlan is the client-side misbehavior assigned to one loadgen
// client: an artificial pause before every request (slow client), and
// an early abandonment point (the viewer closes the tab without
// deleting its session).
type ClientPlan struct {
	SlowDelay time.Duration
	AbortStep int
}

// ServeScript's rates and sizes. Every rate is 1 in N; its step bounds
// follow from the budget (Schedule.faultStepMax, Schedule.abortStepMin).
const (
	// faultEvery sessions suffer one inference fault (kind cycled among
	// panic/NaN/Inf) at a step in [faultStepMin, faultStepMax].
	faultEvery   = 8
	faultStepMin = 2
	// spikeSessionEvery sessions sleep spikeDelay on every
	// spikeStepEvery-th step.
	spikeSessionEvery = 5
	spikeStepEvery    = 8
	spikeDelay        = 2 * time.Millisecond
	// rejectEvery requests are rejected (the server answers an injected
	// 503 + Retry-After or Error frame: overload), and delayEvery are
	// stalled by requestDelay before they are served.
	rejectEvery  = 53
	delayEvery   = 47
	requestDelay = 3 * time.Millisecond
	// slowClientEvery clients pause slowClientDelay before every
	// request, and abortEvery clients abandon their session at a step
	// in [abortStepMin, steps].
	slowClientEvery = 7
	slowClientDelay = time.Millisecond
	abortEvery      = 9
)

// Schedule is an immutable fault schedule, built by ServeScript or
// RecoveryScript. Safe for concurrent use: every lookup is a pure
// function of (schedule, index).
type Schedule struct {
	// seed derives every seeded draw.
	seed uint64
	// steps is each client's decision budget: the length of every
	// replay, and the step at which a client that never aborts stops.
	steps int
	// readmitL and readmitCap are the server's probation knobs
	// (experiments.Probation): the replay models the session state
	// machine under them, so the server must run with the same values.
	readmitL, readmitCap int
	// cycle plays RecoveryScript's six-pattern cycle: no seeded faults,
	// spikes, client faults or request faults.
	cycle bool
}

// Steps is the schedule's decision budget per client, after its
// constructor raised it to the script's minimum.
func (s *Schedule) Steps() int { return s.steps }

// settle is how many steps after a non-finite fault its last
// transition lands: readmitL when probation can re-admit, 0 when every
// demotion latches on the fault's own step.
func (s *Schedule) settle() int {
	if s.readmitL > 0 && s.readmitCap != 0 {
		return s.readmitL
	}
	return 0
}

// faultStepMax and abortStepMin bound ServeScript's draws: every
// transition a seeded fault schedules — the demotion, and under
// probation the re-admission readmitL steps later — lands by step
// steps/2, and no client aborts before steps/2 + 1, so whichever client
// draws a session sees all of it.
func (s *Schedule) faultStepMax() int { return s.steps/2 - s.settle() }
func (s *Schedule) abortStepMin() int { return s.steps/2 + 1 }

// ServeScript is the schedule behind the chaos selftest: 1 in 8
// sessions suffers one inference fault in the first half of its life,
// 1 in 5 gets periodic latency spikes, roughly 2% of requests are
// rejected with an injected 503 and 2% are delayed, 1 in 7 clients is
// slow, and 1 in 9 abandons its session in the second half of the run.
// Fault steps stay below abortStepMin − readmitL, so every demotion and
// every re-admission lands before any abort; with probation off that
// is the whole first half. The budget is raised to 2·(settle + 4), so
// the fault range holds at least three steps.
func ServeScript(seed uint64, steps, readmitL, readmitCap int) *Schedule {
	s := &Schedule{seed: seed, readmitL: readmitL, readmitCap: readmitCap}
	s.steps = max(steps, 2*(s.settle()+4))
	return s
}

// recoveryFaultBase is the step of the first fault in RecoveryScript's
// patterns, and recoveryFaultGap the number of live steps a recovered
// session serves before its next fault. Both are fixed: the script's
// value is exactness, not variety.
const (
	recoveryFaultBase = 6
	recoveryFaultGap  = 4
)

// The six recovery patterns, assigned round-robin by session creation
// index (idx % recoveryPatterns).
const (
	patClean     = 0 // no faults; serves live end to end
	patRecover   = 1 // one NaN: demote, shadow, re-admit
	patExhaust   = 2 // ReadmitCap+1 NaNs: recover cap times, then latch
	patPanic     = 3 // one panic: fault demotion, permanent from step one
	patRecoverIn = 4 // one +Inf: same shape as patRecover, Inf flavor
	patTail      = 5 // NaN near the end: the run finishes mid-probation

	recoveryPatterns = 6
)

// RecoveryScript is the schedule behind the recovery selftest: the
// scripted demote → recover → re-demote exercise. Every session's
// faults are a pure function of its creation index — clean,
// recover-once (NaN and +Inf flavors), cap-exhaustion, permanent panic
// and end-in-probation, round-robin — with no seeded draws and no
// client-side faults, so the run exercises every probation transition
// at a known step. The step budget is raised to the minimum the
// cap-exhaustion chain needs; seed only names the run.
func RecoveryScript(seed uint64, steps, readmitL, readmitCap int) (*Schedule, error) {
	if readmitL < 2 {
		return nil, fmt.Errorf("chaos: recovery ReadmitL %d < 2 (the tail pattern must end inside probation)", readmitL)
	}
	if readmitCap < 1 {
		return nil, fmt.Errorf("chaos: recovery ReadmitCap %d < 1 (the chain pattern needs at least one re-admission)", readmitCap)
	}
	chainEnd := recoveryFaultBase + readmitCap*(readmitL+recoveryFaultGap)
	if min := chainEnd + 4; steps < min {
		steps = min
	}
	return &Schedule{seed: seed, steps: steps, readmitL: readmitL, readmitCap: readmitCap, cycle: true}, nil
}

// cycleFaults returns RecoveryScript's faults for the idx-th session.
func (s *Schedule) cycleFaults(idx uint64) []Fault {
	switch idx % recoveryPatterns {
	case patRecover:
		return []Fault{{recoveryFaultBase, NaNScore}}
	case patExhaust:
		f := make([]Fault, s.readmitCap+1)
		for i := range f {
			f[i] = Fault{recoveryFaultBase + i*(s.readmitL+recoveryFaultGap), NaNScore}
		}
		return f
	case patPanic:
		return []Fault{{recoveryFaultBase, PanicObserve}}
	case patRecoverIn:
		return []Fault{{recoveryFaultBase, InfScore}}
	case patTail:
		return []Fault{{s.steps - 2, NaNScore}}
	}
	return nil
}

// Independent decision streams, so e.g. "is this session faulted" and
// "which kind" are uncorrelated draws.
const (
	saltFault     = 0xFA01
	saltKind      = 0xFA02
	saltStep      = 0xFA03
	saltSpike     = 0xFA04
	saltPhase     = 0xFA05
	saltSlow      = 0xC101
	saltAbort     = 0xC102
	saltAbortStep = 0xC103
)

func (s *Schedule) draw(salt, idx uint64) uint64 {
	return stats.Mix64(stats.Mix64(idx+1) ^ s.seed ^ salt)
}

func oneIn(n, draw uint64) bool { return draw%n == 0 }

// SessionPlan returns the faults injected into the idx-th created
// session (0-based creation order).
func (s *Schedule) SessionPlan(idx uint64) SessionPlan {
	var p SessionPlan
	if s.cycle {
		p.Faults = s.cycleFaults(idx)
		return p
	}
	if oneIn(faultEvery, s.draw(saltFault, idx)) {
		kinds := [3]Kind{PanicObserve, NaNScore, InfScore}
		span := uint64(s.faultStepMax() - faultStepMin + 1)
		p.Faults = []Fault{{
			Step: faultStepMin + int(s.draw(saltStep, idx)%span),
			Kind: kinds[s.draw(saltKind, idx)%3],
		}}
	}
	if oneIn(spikeSessionEvery, s.draw(saltSpike, idx)) {
		p.SpikeEvery = spikeStepEvery
		p.SpikePhase = int(s.draw(saltPhase, idx) % spikeStepEvery)
		p.SpikeDelay = spikeDelay
	}
	return p
}

// ClientPlan returns the misbehavior assigned to loadgen client i.
func (s *Schedule) ClientPlan(i int) ClientPlan {
	var p ClientPlan
	if s.cycle {
		return p
	}
	idx := uint64(i)
	if oneIn(slowClientEvery, s.draw(saltSlow, idx)) {
		p.SlowDelay = slowClientDelay
	}
	if oneIn(abortEvery, s.draw(saltAbort, idx)) {
		span := uint64(s.steps - s.abortStepMin() + 1)
		p.AbortStep = s.abortStepMin() + int(s.draw(saltAbortStep, idx)%span)
	}
	return p
}

// WrapGuard is the serve.Config.WrapGuard hook: it rewires the guard
// of the idx-th created session according to the schedule. Clean
// sessions are left untouched — their guards run the exact production
// path with no wrapper in the call chain.
func (s *Schedule) WrapGuard(idx uint64, g *core.Guard) {
	if plan := s.SessionPlan(idx); !plan.Clean() {
		g.Signal = WrapSignal(g.Signal, plan)
	}
}

package chaos

import (
	"fmt"
	"math"
	"time"

	"osap/internal/core"
)

// faultSignal wraps a session's uncertainty signal with its scheduled
// faults. The signal is the injection point because Observe runs
// exactly once per guard decision, unconditionally — the learned
// policy is skipped whenever the trigger has latched, so step-indexed
// faults planted there could silently never fire.
type faultSignal struct {
	inner core.Signal
	plan  SessionPlan
	sleep func(time.Duration)
	step  int
	done  bool
}

// WrapSignal returns sig with plan's faults injected. The demoting
// fault is one-shot: after it fires the wrapper is a transparent
// passthrough (in the serve stack the session is demoted by then and
// the guard is never consulted again).
func WrapSignal(sig core.Signal, plan SessionPlan) core.Signal {
	return &faultSignal{inner: sig, plan: plan, sleep: time.Sleep}
}

// Observe implements core.Signal.
func (f *faultSignal) Observe(obs []float64) float64 {
	step := f.step
	f.step++
	if f.plan.SpikeEvery > 0 && step%f.plan.SpikeEvery == f.plan.SpikePhase {
		f.sleep(f.plan.SpikeDelay)
	}
	if !f.done && f.plan.Fault.Kind != None && step >= f.plan.Fault.Step {
		f.done = true
		switch f.plan.Fault.Kind {
		case PanicObserve:
			panic(fmt.Sprintf("chaos: injected inference panic at step %d", step))
		case NaNScore:
			return math.NaN()
		case InfScore:
			return math.Inf(1)
		}
	}
	return f.inner.Observe(obs)
}

// Reset implements core.Signal. The step counter deliberately keeps
// running across episodes: the fault is scheduled against the
// session's lifetime, not any single episode.
func (f *faultSignal) Reset() { f.inner.Reset() }

// Name implements core.Signal.
func (f *faultSignal) Name() string { return f.inner.Name() }

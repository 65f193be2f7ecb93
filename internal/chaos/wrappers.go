package chaos

import (
	"fmt"
	"math"
	"time"

	"osap/internal/core"
)

// faultSignal pins a session's uncertainty stream to its plan: the
// planned fault at each fault step, a confident 0 everywhere else, so
// the plan alone decides every state transition the session makes.
// The signal is the injection point because Observe runs exactly once
// per guard decision, unconditionally — the learned policy is skipped
// whenever the trigger demands the default, so step-indexed faults
// planted there could silently never fire.
//
// The step counter counts Observe calls, which equal session steps for
// as long as the session consults its guard (live or in probation). A
// latched session stops consulting it; the replay stops reading the
// plan at the same step, so the two stay aligned.
type faultSignal struct {
	inner core.Signal
	plan  SessionPlan
	sleep func(time.Duration)
	step  int
	next  int // index of the next fault in plan.Faults
}

// WrapSignal returns sig with plan's faults injected. The inner signal
// is never consulted for a score; it keeps its name and its Reset.
func WrapSignal(sig core.Signal, plan SessionPlan) core.Signal {
	return &faultSignal{inner: sig, plan: plan, sleep: time.Sleep}
}

// Observe implements core.Signal.
func (f *faultSignal) Observe([]float64) float64 {
	step := f.step
	f.step++
	if f.plan.SpikeEvery > 0 && step%f.plan.SpikeEvery == f.plan.SpikePhase {
		f.sleep(f.plan.SpikeDelay)
	}
	if f.next < len(f.plan.Faults) && step >= f.plan.Faults[f.next].Step {
		kind := f.plan.Faults[f.next].Kind
		f.next++
		switch kind {
		case PanicObserve:
			panic(fmt.Sprintf("chaos: injected inference panic at step %d", step))
		case NaNScore:
			return math.NaN()
		case InfScore:
			return math.Inf(1)
		}
	}
	return 0
}

// Reset implements core.Signal. The step counter deliberately keeps
// running across episodes: faults are scheduled against the session's
// lifetime, not any single episode.
func (f *faultSignal) Reset() { f.inner.Reset() }

// Name implements core.Signal.
func (f *faultSignal) Name() string { return f.inner.Name() }

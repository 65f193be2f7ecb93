package learn

import "osap/internal/core"

// Verdict classifies one step's admissibility to the experience
// window.
type Verdict uint8

const (
	// VerdictAdmit: all three signals agree the step is
	// in-distribution and the rate limit has headroom — the feature
	// vector was handed to the learner.
	VerdictAdmit Verdict = iota
	// VerdictWarmup: the feature windows are still filling; there is
	// no feature vector to judge yet.
	VerdictWarmup
	// VerdictState: U_S — the frozen baseline OC-SVM classifies the
	// windowed state features out-of-distribution (a positive margin),
	// or the margin is non-finite.
	VerdictState
	// VerdictPolicy: U_π — the variance of the agent-ensemble
	// disagreement over the guard's K-window exceeds the frozen AlphaPi
	// threshold (or the score is non-finite).
	VerdictPolicy
	// VerdictValue: U_V — the same for the value-ensemble disagreement
	// and AlphaV.
	VerdictValue
	// VerdictRate: the step is trusted but the session has exhausted
	// its admission budget for now (anti-dominance rate limit).
	VerdictRate

	numVerdicts
)

// String returns the metrics label for the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictAdmit:
		return "admitted"
	case VerdictWarmup:
		return "warmup"
	case VerdictState:
		return "state_ood"
	case VerdictPolicy:
		return "policy_disagree"
	case VerdictValue:
		return "value_disagree"
	case VerdictRate:
		return "rate_limited"
	default:
		return "unknown"
	}
}

// Gate is the per-session trust gate: it re-evaluates every clean
// serving step against the FROZEN boot-time baseline, independent of
// whatever generation happens to be serving the session. Its signals
// and triggers are those a served guard over the baseline builds
// (experiments.Signal), each trigger with L = 1 and no latch, so a step
// is uncertain when the statistic the guard thresholds exceeds its α.
// Judging against the frozen boundary is the poisoning ratchet:
// admitted samples already lie inside it, so no sequence of admitted
// steps can walk a refit far from where the baseline started.
//
// A Gate lives inside one serve.Session and is only touched under that
// session's lock; like the serving guard it owns private inference
// workspaces, so gates never contend with each other.
type Gate struct {
	learner *Learner
	sessIdx uint64

	state     *core.StateSignal
	pol       *core.PolicySignal
	val       *core.ValueSignal
	stateTrig *core.Trigger
	polTrig   *core.Trigger
	valTrig   *core.Trigger

	// Deterministic anti-dominance rate limit, a leaky bucket in step
	// counts (no clock): a step is admitted only while
	// admitted < steps/rateEvery + rateBurst, i.e. a burst of
	// rateBurst early admissions and a steady-state ceiling of one
	// admission per rateEvery checked steps.
	rateEvery uint64
	rateBurst uint64
	steps     uint64
	admitted  uint64
}

// Check classifies one clean serving step. On VerdictAdmit the feature
// vector and both disagreement statistics have already been handed to
// the learner (or dropped-and-counted if the handoff was full). Every
// signal observes every step, so the variance windows stay contiguous
// whatever the verdict, and a non-finite score is uncertain without
// entering its window (core.Trigger.Step); the verdicts are tried in order warmup, state,
// policy, value, rate. Zero-alloc: it runs inside the session lock on
// the serving hot path.
//
//osap:hotpath
func (g *Gate) Check(obs []float64) Verdict {
	c := &g.learner.counters
	c.Checked.Add(1)
	g.steps++
	novel := g.stateTrig.Step(g.state.Observe(obs))
	polOut := g.polTrig.Step(g.pol.Observe(obs))
	valOut := g.valTrig.Step(g.val.Observe(obs))
	switch {
	case g.state.Features() == nil:
		return c.reject(VerdictWarmup)
	case novel:
		return c.reject(VerdictState)
	case polOut:
		return c.reject(VerdictPolicy)
	case valOut:
		return c.reject(VerdictValue)
	case g.admitted >= g.steps/g.rateEvery+g.rateBurst:
		return c.reject(VerdictRate)
	}
	g.admitted++
	c.Admitted.Add(1)
	if !g.learner.handoff.offer(g.sessIdx, g.steps-1, g.state.Features(), g.polTrig.Statistic(), g.valTrig.Statistic()) {
		c.RingDropped.Add(1)
	}
	return VerdictAdmit
}

// Reset clears per-episode feature windows (mirrors the serving
// guard's episode reset). The rate-limit budget is per-session, not
// per-episode, so a client cannot refill it by resetting.
func (g *Gate) Reset() {
	g.state.Reset()
	g.pol.Reset()
	g.val.Reset()
	g.stateTrig.Reset()
	g.polTrig.Reset()
	g.valTrig.Reset()
}

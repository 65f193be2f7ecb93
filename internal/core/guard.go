package core

import (
	"fmt"

	"osap/internal/mdp"
	"osap/internal/stats"
)

// Guard is the safety-assurance wrapper: it streams with the learned
// policy while the uncertainty signal stays quiet and hands control to
// the default policy when the trigger fires. It implements mdp.Policy
// but is stateful across an episode — call Reset between episodes (the
// EvaluateGuard helper does this).
type Guard struct {
	Learned mdp.Policy
	Default mdp.Policy
	Signal  Signal
	Trigger *Trigger

	// Episode bookkeeping.
	steps     int
	defaulted int
}

// NewGuard assembles a safety-enhanced policy. The trigger thresholds
// any of its statistics: the paper's raw score or windowed variance, or
// an EWMA or CUSUM (TriggerConfig.Running).
func NewGuard(learned, def mdp.Policy, sig Signal, trig *Trigger) (*Guard, error) {
	if learned == nil || def == nil || sig == nil || trig == nil {
		return nil, fmt.Errorf("core: NewGuard requires learned, default, signal and trigger")
	}
	return &Guard{Learned: learned, Default: def, Signal: sig, Trigger: trig}, nil
}

// Decision describes one guarded decision step: which policy acted and
// why. It is the per-step metadata a serving front end needs to report
// alongside the chosen action (see internal/serve).
type Decision struct {
	// Probs is the acting policy's action distribution. The slice may
	// alias a buffer owned by that policy, valid until the guard's next
	// decision; callers that retain it must copy.
	Probs []float64
	// Score is the raw uncertainty score the signal produced for this
	// observation (the OC-SVM margin for U_S, a continuous disagreement
	// for U_π/U_V).
	Score float64
	// UsedDefault reports whether the default policy produced Probs.
	UsedDefault bool
	// Fired reports whether the trigger has fired at least once this
	// episode (with a latched trigger and no probation this stays true
	// after the first firing, so UsedDefault == Fired; unlatched
	// triggers and latched triggers under probation can recover, after
	// which Fired stays true while UsedDefault clears).
	Fired bool
	// Step is the 0-based index of this decision within the episode.
	Step int
}

// Policy names the policy that acted ("default" or "learned").
func (d Decision) Policy() string {
	if d.UsedDefault {
		return "default"
	}
	return "learned"
}

// Decide evaluates the signal on the current observation, advances the
// trigger, delegates to the appropriate policy — the learned one is
// evaluated only on a step it acts on — and reports the full per-step
// outcome. A non-finite score acts with the default policy and stays
// out of the trigger's statistic (Trigger.Step). It is the
// metadata-carrying form of Probs, and the one decision function:
// offline evaluation and every served step call it.
//
//osap:hotpath
func (g *Guard) Decide(obs []float64) Decision {
	score := g.Signal.Observe(obs) //osap:hotpath-stop production Signal implementations are annotated and alloc-tested
	d := Decision{Score: score, Step: g.steps}
	g.steps++
	if g.Trigger.Step(score) {
		g.defaulted++
		d.UsedDefault = true
		d.Probs = g.Default.Probs(obs) //osap:hotpath-stop the fallback policy (experiments bbDefault over abr BB) is annotated
	} else {
		d.Probs = g.Learned.Probs(obs) //osap:hotpath-stop learned members are annotated rl inference sessions
	}
	d.Fired = g.Trigger.Fired()
	return d
}

// Probs implements mdp.Policy: evaluate the signal on the current
// observation, advance the trigger, and delegate to the appropriate
// policy.
func (g *Guard) Probs(obs []float64) []float64 {
	return g.Decide(obs).Probs
}

// Reset starts a new episode.
func (g *Guard) Reset() {
	g.Signal.Reset()
	g.Trigger.Reset()
	g.steps = 0
	g.defaulted = 0
}

// Steps returns the number of decisions made this episode.
func (g *Guard) Steps() int { return g.steps }

// DefaultedSteps returns how many decisions were delegated to the
// default policy this episode.
func (g *Guard) DefaultedSteps() int { return g.defaulted }

// DefaultedFraction returns the fraction of decisions delegated this
// episode (0 if no steps were taken).
func (g *Guard) DefaultedFraction() float64 {
	if g.steps == 0 {
		return 0
	}
	return float64(g.defaulted) / float64(g.steps)
}

// SwitchStep returns the step at which the guard first defaulted, or -1.
func (g *Guard) SwitchStep() int { return g.Trigger.FiredAt }

// Readmissions returns how many times the trigger re-admitted the
// learned policy this episode (DESIGN.md §13; 0 without probation).
func (g *Guard) Readmissions() int { return g.Trigger.Readmissions() }

// EpisodeResult summarizes one guarded episode.
type EpisodeResult struct {
	QoE               float64
	Steps             int
	DefaultedSteps    int
	SwitchStep        int // -1 if the guard never fired
	DefaultedFraction float64
	Readmissions      int // probation re-admissions (0 without probation)
}

// EvaluateGuard runs episodes of the guarded policy, resetting the guard
// between episodes, and returns per-episode results.
func EvaluateGuard(env mdp.Env, g *Guard, rng *stats.RNG, episodes int) []EpisodeResult {
	out := make([]EpisodeResult, episodes)
	for i := range out {
		g.Reset()
		traj := mdp.Rollout(env, g, rng, mdp.RolloutOptions{})
		out[i] = EpisodeResult{
			QoE:               traj.TotalReward(),
			Steps:             g.Steps(),
			DefaultedSteps:    g.DefaultedSteps(),
			SwitchStep:        g.SwitchStep(),
			DefaultedFraction: g.DefaultedFraction(),
			Readmissions:      g.Readmissions(),
		}
	}
	return out
}

// MeanQoE averages the QoE over episode results.
func MeanQoE(results []EpisodeResult) float64 {
	if len(results) == 0 {
		return 0
	}
	var sum float64
	for _, r := range results {
		sum += r.QoE
	}
	return sum / float64(len(results))
}

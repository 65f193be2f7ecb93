package core

import (
	"fmt"
	"math"

	"osap/internal/stats"
)

// Triggerer turns a stream of per-step uncertainty scores into the
// decision to default. The paper's windowed-variance + l-consecutive
// rule (Trigger) is one implementation; EWMATrigger and CUSUMTrigger
// realize the alternative thresholding strategies the paper defers to
// future work (§5).
type Triggerer interface {
	// Step ingests one score and reports whether the system should use
	// the default policy for this step.
	Step(score float64) bool
	// Fired reports whether the trigger has fired this episode.
	Fired() bool
	// FiredAtStep returns the step index of the first firing (-1 if
	// none).
	FiredAtStep() int
	// Reset starts a new episode.
	Reset()
}

// FiredAtStep implements Triggerer for the paper's Trigger.
func (t *Trigger) FiredAtStep() int { return t.FiredAt }

var _ Triggerer = (*Trigger)(nil)

// EWMATriggerConfig parameterizes an exponentially-weighted moving
// average trigger: default when the EWMA of the score exceeds Threshold
// (latched). Compared to the paper's variance-of-window rule, the EWMA
// responds to sustained level shifts rather than to dispersion.
type EWMATriggerConfig struct {
	// Alpha in (0,1] is the smoothing weight of the newest score.
	Alpha float64
	// Threshold is the EWMA level that triggers defaulting.
	Threshold float64
	// Warmup is the number of steps before the trigger may fire.
	Warmup int
	// Latched keeps the default active once fired.
	Latched bool
}

// Validate checks the configuration.
func (c EWMATriggerConfig) Validate() error {
	if c.Alpha <= 0 || c.Alpha > 1 {
		return fmt.Errorf("core: EWMA alpha %v outside (0,1]", c.Alpha)
	}
	if c.Warmup < 0 {
		return fmt.Errorf("core: EWMA warmup %d negative", c.Warmup)
	}
	return nil
}

// EWMATrigger is the per-episode state machine for EWMATriggerConfig.
type EWMATrigger struct {
	cfg     EWMATriggerConfig
	ewma    float64
	steps   int
	fired   bool
	firedAt int
}

// NewEWMATrigger builds the trigger; it panics on invalid config.
func NewEWMATrigger(cfg EWMATriggerConfig) *EWMATrigger {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &EWMATrigger{cfg: cfg, firedAt: -1}
}

// Step implements Triggerer.
func (t *EWMATrigger) Step(score float64) bool {
	if t.steps == 0 {
		t.ewma = score
	} else {
		t.ewma = t.cfg.Alpha*score + (1-t.cfg.Alpha)*t.ewma
	}
	active := t.steps >= t.cfg.Warmup && t.ewma > t.cfg.Threshold
	if active && !t.fired {
		t.fired = true
		t.firedAt = t.steps
	}
	t.steps++
	if t.cfg.Latched {
		return t.fired
	}
	return active
}

// Fired implements Triggerer.
func (t *EWMATrigger) Fired() bool { return t.fired }

// FiredAtStep implements Triggerer.
func (t *EWMATrigger) FiredAtStep() int { return t.firedAt }

// Reset implements Triggerer.
func (t *EWMATrigger) Reset() {
	t.ewma = 0
	t.steps = 0
	t.fired = false
	t.firedAt = -1
}

// CUSUMTriggerConfig parameterizes a one-sided CUSUM change detector
// (Page 1954): the classical sequential test for "the mean of this
// stream has shifted upward". The statistic S ← max(0, S + (x − μ₀ − κ))
// accumulates evidence of scores above the in-distribution reference
// level μ₀ plus slack κ, and fires when it exceeds H. Unlike the
// consecutive rule it integrates evidence, so it catches slow drifts
// the l-consecutive rule can miss.
type CUSUMTriggerConfig struct {
	// Ref (μ₀) is the in-distribution reference score level.
	Ref float64
	// Slack (κ) is the allowance per step; shifts smaller than κ are
	// ignored.
	Slack float64
	// Decision (H) is the cumulative-evidence bar.
	Decision float64
	// Latched keeps the default active once fired.
	Latched bool
}

// Validate checks the configuration.
func (c CUSUMTriggerConfig) Validate() error {
	if c.Slack < 0 {
		return fmt.Errorf("core: CUSUM slack %v negative", c.Slack)
	}
	if c.Decision <= 0 {
		return fmt.Errorf("core: CUSUM decision bar %v must be positive", c.Decision)
	}
	return nil
}

// CalibrateCUSUM derives a CUSUM configuration from in-distribution
// scores: μ₀ = mean, κ = half a standard deviation, H = hSigmas
// standard deviations (a standard parameterization).
func CalibrateCUSUM(inDistScores []float64, hSigmas float64, latched bool) CUSUMTriggerConfig {
	mu := stats.Mean(inDistScores)
	sigma := stats.Std(inDistScores)
	if sigma < 1e-9 {
		sigma = math.Max(1e-9, math.Abs(mu)*0.1+1e-9)
	}
	if hSigmas <= 0 {
		hSigmas = 5
	}
	return CUSUMTriggerConfig{
		Ref:      mu,
		Slack:    sigma / 2,
		Decision: hSigmas * sigma,
		Latched:  latched,
	}
}

// CUSUMTrigger is the per-episode state machine for CUSUMTriggerConfig.
type CUSUMTrigger struct {
	cfg     CUSUMTriggerConfig
	s       float64
	steps   int
	fired   bool
	firedAt int
}

// NewCUSUMTrigger builds the trigger; it panics on invalid config.
func NewCUSUMTrigger(cfg CUSUMTriggerConfig) *CUSUMTrigger {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &CUSUMTrigger{cfg: cfg, firedAt: -1}
}

// Step implements Triggerer.
func (t *CUSUMTrigger) Step(score float64) bool {
	t.s = math.Max(0, t.s+score-t.cfg.Ref-t.cfg.Slack)
	active := t.s > t.cfg.Decision
	if active && !t.fired {
		t.fired = true
		t.firedAt = t.steps
	}
	t.steps++
	if t.cfg.Latched {
		return t.fired
	}
	return active
}

// Fired implements Triggerer.
func (t *CUSUMTrigger) Fired() bool { return t.fired }

// FiredAtStep implements Triggerer.
func (t *CUSUMTrigger) FiredAtStep() int { return t.firedAt }

// Reset implements Triggerer.
func (t *CUSUMTrigger) Reset() {
	t.s = 0
	t.steps = 0
	t.fired = false
	t.firedAt = -1
}

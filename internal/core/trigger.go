package core

import (
	"fmt"
	"math"

	"osap/internal/stats"
)

// TriggerConfig turns a stream of raw uncertainty scores into the
// decision to default, using the paper's two noise-robustness ideas
// (§2.5): smoothing over sequences of data points, and requiring L
// consecutive uncertain steps.
type TriggerConfig struct {
	// K selects the statistic a step compares with Threshold. K ≥ 2 is
	// the continuous-signal rule of U_π and U_V: the variance of the
	// score across the last K steps (paper: 5). K = 0 is the U_S rule:
	// the raw score itself (the OC-SVM margin, so Threshold 0 means
	// "classified OOD"). Validate refuses any other K. With Running
	// set, K ≥ 0 is instead the warmup: the steps before the running
	// statistic is first compared.
	K int
	// Threshold is α, the uncertainty bar: a step is uncertain when
	// its statistic exceeds it (for CUSUM, the decision bar H).
	Threshold float64
	// L is the number of consecutive uncertain steps before defaulting
	// (paper: 3).
	L int
	// Latched keeps the system on the default policy for the rest of
	// the episode once triggered, which is the paper's behavior. When
	// false, the system returns to the learned policy as soon as the
	// uncertain streak breaks (an extension explored in the ablations).
	Latched bool
	// ReadmitL is the hysteresis length l′ of the probation extension
	// (Neural Simplex reverse switching, PAPERS.md): a latched trigger
	// re-admits the learned policy after ReadmitL consecutive confident
	// (not-uncertain) steps while fired. 0 disables probation — the
	// latch is final for the episode, the paper's behavior. Ignored
	// when Latched is false. Choose ReadmitL > L so re-admission needs
	// strictly more evidence than firing did.
	ReadmitL int
	// ReadmitCap bounds re-admissions per episode before the latch
	// becomes permanent: after ReadmitCap recoveries the next firing
	// latches for good. 0 means no re-admissions (paper behavior even
	// when ReadmitL > 0); negative means unlimited.
	ReadmitCap int
	// Running replaces the windowed statistic with a running one, an
	// EWMA or a CUSUM: the alternative thresholding strategies the
	// paper leaves to future work (§5). nil is the paper's rule.
	Running *Running
}

// Running parameterizes a running statistic S, updated by every
// finite score x.
type Running struct {
	// CUSUM selects Page's one-sided CUSUM, S ← max(0, S + x − Ref −
	// Slack), from S = 0: it accumulates evidence of scores above the
	// in-distribution level Ref plus the per-step allowance Slack, so
	// it catches slow drifts the l-consecutive rule can miss. Otherwise
	// S is the EWMA w·x + (1−w)·S seeded by the first score, which
	// responds to sustained level shifts rather than to dispersion.
	CUSUM bool
	// Weight in (0,1] is the EWMA's weight w of the newest score.
	Weight float64
	// Ref (μ₀) and Slack (κ ≥ 0) are the CUSUM's reference level and
	// allowance.
	Ref, Slack float64
}

// Probation reports whether the configuration enables re-admission of
// a latched trigger: latched, a positive hysteresis length, and a
// non-zero re-admission budget.
func (c TriggerConfig) Probation() bool {
	return c.Latched && c.ReadmitL > 0 && c.ReadmitCap != 0
}

// StateTriggerConfig returns the paper's U_S trigger: default after
// L=3 consecutive OOD classifications (a positive margin).
func StateTriggerConfig() TriggerConfig {
	return TriggerConfig{Threshold: 0, L: 3, Latched: true}
}

// VarianceTriggerConfig returns the paper's U_π/U_V trigger shape:
// variance over the last K=5 scores exceeding α for L consecutive steps.
// α is set by calibration (Calibrate).
func VarianceTriggerConfig(alpha float64, l int) TriggerConfig {
	return TriggerConfig{K: 5, Threshold: alpha, L: l, Latched: true}
}

// Validate checks the configuration.
func (c TriggerConfig) Validate() error {
	if c.L < 1 {
		return fmt.Errorf("core: trigger L %d < 1", c.L)
	}
	switch r := c.Running; {
	case r == nil && c.K != 0 && c.K < 2:
		return fmt.Errorf("core: trigger K %d: want 0 (raw score) or ≥ 2 (variance window)", c.K)
	case r != nil && c.K < 0:
		return fmt.Errorf("core: trigger warmup K %d negative", c.K)
	case r != nil && r.CUSUM && !(r.Slack >= 0):
		return fmt.Errorf("core: CUSUM slack %v negative", r.Slack)
	case r != nil && r.CUSUM && !(c.Threshold > 0):
		return fmt.Errorf("core: CUSUM decision bar %v must be positive", c.Threshold)
	case r != nil && !r.CUSUM && !(r.Weight > 0 && r.Weight <= 1):
		return fmt.Errorf("core: EWMA weight %v outside (0,1]", r.Weight)
	}
	if c.ReadmitL < 0 {
		return fmt.Errorf("core: trigger ReadmitL %d < 0", c.ReadmitL)
	}
	if c.ReadmitL > 0 && !c.Latched {
		return fmt.Errorf("core: trigger ReadmitL %d requires Latched (unlatched triggers already recover)", c.ReadmitL)
	}
	return nil
}

// Trigger is the per-episode state machine applying a TriggerConfig.
type Trigger struct {
	cfg     TriggerConfig
	win     *stats.RollingWindow // the variance window (K ≥ 2, no Running), else nil
	stat    float64              // the statistic after the last finite Step
	streak  int
	fired   bool
	latched bool // currently holding the default policy (latched configs)
	calm    int  // consecutive confident steps while latched (probation)
	steps   int
	// readmits counts re-admissions granted this episode.
	readmits int
	// FiredAt is the step index at which the trigger first fired (-1 if
	// it has not).
	FiredAt int
	// ReadmittedAt is the step index of the most recent re-admission
	// (-1 if the trigger has never re-admitted this episode).
	ReadmittedAt int
}

// NewTrigger builds a trigger; it panics on an invalid configuration
// (construction-time programmer error).
func NewTrigger(cfg TriggerConfig) *Trigger {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &Trigger{cfg: cfg, FiredAt: -1, ReadmittedAt: -1}
	if cfg.K > 0 && cfg.Running == nil {
		t.win = stats.NewRollingWindow(cfg.K)
	}
	return t
}

// Step ingests one uncertainty score and reports whether the system
// should use the default policy for this step.
//
// A non-finite score is maximal uncertainty: Step returns true and
// changes no state, so the score never reaches the statistic, the
// streak or FiredAt — one NaN in the variance window would poison the
// estimate for the next K steps.
//
// With a latched config the latch is final for the episode (the
// paper's §2.5 behavior) unless probation is enabled (Probation):
// then the signal keeps scoring in shadow while the default policy
// acts, and the latch releases after ReadmitL consecutive confident
// steps — at most ReadmitCap times per episode, after which the latch
// is permanent. With probation disabled the step sequence is
// bit-identical to the pre-probation trigger.
//
//osap:hotpath
func (t *Trigger) Step(score float64) bool {
	if math.IsNaN(score) || math.IsInf(score, 0) {
		return true
	}
	full := true
	switch r := t.cfg.Running; {
	case r != nil:
		switch {
		case r.CUSUM:
			t.stat = math.Max(0, t.stat+score-r.Ref-r.Slack)
		case t.steps == 0:
			t.stat = score
		default:
			t.stat = r.Weight*score + (1-r.Weight)*t.stat
		}
		full = t.steps >= t.cfg.K
	case t.win != nil:
		t.win.Add(score)
		t.stat, full = 0, t.win.Full()
		if full {
			t.stat = t.win.Variance()
		}
	default:
		t.stat = score
	}
	uncertain := full && t.stat > t.cfg.Threshold
	if t.latched {
		// Holding the default policy. Under probation, count confident
		// steps toward re-admission; an uncertain step restarts the
		// hysteresis from zero.
		t.steps++
		if !t.cfg.Probation() || (t.cfg.ReadmitCap >= 0 && t.readmits >= t.cfg.ReadmitCap) {
			return true
		}
		if uncertain {
			t.streak++
			t.calm = 0
			return true
		}
		t.streak = 0
		t.calm++
		if t.calm < t.cfg.ReadmitL {
			return true
		}
		// Hysteresis satisfied: re-admit the learned policy, serving it
		// from this step on.
		t.latched = false
		t.readmits++
		t.calm = 0
		t.ReadmittedAt = t.steps - 1
		return false
	}
	if uncertain {
		t.streak++
	} else {
		t.streak = 0
	}
	active := t.streak >= t.cfg.L
	if active && !t.fired {
		t.fired = true
		t.FiredAt = t.steps
	}
	if active && t.cfg.Latched {
		t.latched = true
		t.calm = 0
	}
	t.steps++
	if t.cfg.Latched {
		return t.latched
	}
	return active
}

// Statistic returns the value the last finite Step compared with
// Threshold: the raw score, the variance of the last K scores (0 while
// that window fills, when Step compares nothing), or the EWMA or CUSUM
// (its running value, also during the warmup).
func (t *Trigger) Statistic() float64 { return t.stat }

// Fired reports whether the trigger has fired at least once this
// episode (monotone: re-admission does not clear it).
func (t *Trigger) Fired() bool { return t.fired }

// Readmissions returns how many times the latch released this episode.
func (t *Trigger) Readmissions() int { return t.readmits }

// Reset starts a new episode.
func (t *Trigger) Reset() {
	t.stat = 0
	t.streak = 0
	t.fired = false
	t.latched = false
	t.calm = 0
	t.steps = 0
	t.readmits = 0
	t.FiredAt = -1
	t.ReadmittedAt = -1
	if t.win != nil {
		t.win.Reset()
	}
}

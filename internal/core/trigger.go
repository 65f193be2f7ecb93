package core

import (
	"fmt"

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
	// "classified OOD"). Validate refuses any other K.
	K int
	// Threshold is α, the uncertainty bar: a step is uncertain when
	// its statistic exceeds it.
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
	if c.K != 0 && c.K < 2 {
		return fmt.Errorf("core: trigger K %d: want 0 (raw score) or ≥ 2 (variance window)", c.K)
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
	win     *stats.RollingWindow // the variance window (K ≥ 2), else nil
	stat    float64              // what the last Step compared with Threshold
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
	if cfg.K > 0 {
		t.win = stats.NewRollingWindow(cfg.K)
	}
	return t
}

// Step ingests one uncertainty score and reports whether the system
// should use the default policy for this step.
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
	t.stat = score
	full := true
	if t.win != nil {
		t.win.Add(score)
		t.stat, full = 0, t.win.Full()
		if full {
			t.stat = t.win.Variance()
		}
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

// Statistic returns the value the last Step compared with Threshold:
// the raw score, or the variance of the last K scores (0 while that
// window fills, when Step compares nothing).
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

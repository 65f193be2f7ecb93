package core

import (
	"testing"
)

func TestEWMATriggerFiresOnLevelShift(t *testing.T) {
	tr := NewEWMATrigger(EWMATriggerConfig{Alpha: 0.3, Threshold: 0.5, Warmup: 3, Latched: true})
	// Quiet phase.
	for i := 0; i < 20; i++ {
		if tr.Step(0.1) {
			t.Fatalf("fired during quiet phase at step %d", i)
		}
	}
	// Sustained shift.
	fired := false
	for i := 0; i < 20; i++ {
		if tr.Step(1.0) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("EWMA never fired on sustained shift")
	}
	if tr.FiredAtStep() < 20 {
		t.Errorf("FiredAtStep = %d, want ≥ 20", tr.FiredAtStep())
	}
}

func TestEWMATriggerIgnoresSingleSpike(t *testing.T) {
	tr := NewEWMATrigger(EWMATriggerConfig{Alpha: 0.2, Threshold: 0.5, Latched: true})
	for i := 0; i < 10; i++ {
		tr.Step(0.05)
	}
	// One big spike: EWMA with α=0.2 rises to ~0.05·0.8 + 2·0.2 ≈ 0.44 < 0.5.
	if tr.Step(2.0) {
		t.Error("EWMA fired on a single spike")
	}
}

func TestEWMATriggerWarmup(t *testing.T) {
	tr := NewEWMATrigger(EWMATriggerConfig{Alpha: 1, Threshold: 0.5, Warmup: 5, Latched: true})
	for i := 0; i < 5; i++ {
		if tr.Step(10) {
			t.Fatalf("fired during warmup at step %d", i)
		}
	}
	if !tr.Step(10) {
		t.Error("did not fire after warmup")
	}
}

func TestEWMATriggerResetAndUnlatched(t *testing.T) {
	cfg := EWMATriggerConfig{Alpha: 1, Threshold: 0.5}
	tr := NewEWMATrigger(cfg)
	tr.Step(1)
	if !tr.Fired() {
		t.Fatal("did not fire")
	}
	// Unlatched: drops back when the score falls.
	if tr.Step(0) {
		t.Error("unlatched EWMA stayed active")
	}
	tr.Reset()
	if tr.Fired() || tr.FiredAtStep() != -1 || tr.ewma != 0 {
		t.Error("reset incomplete")
	}
}

func TestEWMAConfigValidation(t *testing.T) {
	for _, cfg := range []EWMATriggerConfig{
		{Alpha: 0, Threshold: 1},
		{Alpha: 1.5, Threshold: 1},
		{Alpha: 0.5, Warmup: -1},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestCUSUMDetectsSlowDrift(t *testing.T) {
	// A drift of +0.3 per step over the reference: the l-consecutive
	// binary rule would never see it (each step looks individually
	// plausible), but CUSUM accumulates it.
	cfg := CUSUMTriggerConfig{Ref: 1.0, Slack: 0.1, Decision: 2.0, Latched: true}
	tr := NewCUSUMTrigger(cfg)
	for i := 0; i < 30; i++ {
		if tr.Step(1.0) {
			t.Fatalf("fired at reference level, step %d", i)
		}
	}
	fired := -1
	for i := 0; i < 30; i++ {
		if tr.Step(1.3) {
			fired = i
			break
		}
	}
	// Evidence per step = 1.3 − 1.0 − 0.1 = 0.2; bar 2.0 → ~10 steps.
	if fired < 0 {
		t.Fatal("CUSUM never fired on drift")
	}
	if fired < 8 || fired > 12 {
		t.Errorf("fired after %d drift steps, want ~10", fired+1)
	}
}

func TestCUSUMStatisticResetsOnQuiet(t *testing.T) {
	cfg := CUSUMTriggerConfig{Ref: 0, Slack: 0.5, Decision: 10, Latched: true}
	tr := NewCUSUMTrigger(cfg)
	tr.Step(3) // S = 2.5
	tr.Step(-5)
	if tr.s != 0 {
		t.Errorf("statistic = %v, want clamp to 0", tr.s)
	}
}

func TestCalibrateCUSUM(t *testing.T) {
	scores := []float64{1, 1.2, 0.8, 1.1, 0.9}
	cfg := CalibrateCUSUM(scores, 5, true)
	if cfg.Ref < 0.9 || cfg.Ref > 1.1 {
		t.Errorf("ref = %v", cfg.Ref)
	}
	if cfg.Slack <= 0 || cfg.Decision <= cfg.Slack {
		t.Errorf("slack %v / decision %v", cfg.Slack, cfg.Decision)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	// Degenerate (constant) scores must still produce a valid config.
	flat := CalibrateCUSUM([]float64{2, 2, 2}, 0, false)
	if err := flat.Validate(); err != nil {
		t.Errorf("degenerate calibration invalid: %v", err)
	}
}

func TestCUSUMConfigValidation(t *testing.T) {
	if err := (CUSUMTriggerConfig{Slack: -1, Decision: 1}).Validate(); err == nil {
		t.Error("negative slack accepted")
	}
	if err := (CUSUMTriggerConfig{Decision: 0}).Validate(); err == nil {
		t.Error("zero decision bar accepted")
	}
}

func TestGuardWorksWithAlternativeTriggers(t *testing.T) {
	sig := &scriptedSignal{scores: []float64{0, 0, 0, 5, 5, 5, 5}}
	for name, trig := range map[string]Triggerer{
		"ewma":  NewEWMATrigger(EWMATriggerConfig{Alpha: 0.5, Threshold: 1, Latched: true}),
		"cusum": NewCUSUMTrigger(CUSUMTriggerConfig{Ref: 0, Slack: 0.5, Decision: 5, Latched: true}),
	} {
		sig.Reset()
		g, err := NewGuard(fixedPolicy{1, 0}, fixedPolicy{0, 1}, sig, trig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defaulted := false
		for i := 0; i < 7; i++ {
			if p := g.Probs(nil); p[1] == 1 {
				defaulted = true
			}
		}
		if !defaulted {
			t.Errorf("%s: guard never defaulted", name)
		}
		if g.SwitchStep() < 0 {
			t.Errorf("%s: SwitchStep = %d", name, g.SwitchStep())
		}
	}
}

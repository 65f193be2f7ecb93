package core

import (
	"testing"

	"osap/internal/stats"
)

// threshold trigger shorthand: a step with score 1 is uncertain, 0 is
// confident (Threshold 0.5, the U_S shape).
func probationCfg(l, readmitL, cap int) TriggerConfig {
	return TriggerConfig{Threshold: 0.5, L: l, Latched: true, ReadmitL: readmitL, ReadmitCap: cap}
}

func TestTriggerProbationReadmits(t *testing.T) {
	tr := NewTrigger(probationCfg(2, 3, 1))
	// Steps 0,1 uncertain → fires at step 1.
	for i, score := range []float64{1, 1} {
		want := i >= 1
		if got := tr.Step(score); got != want {
			t.Fatalf("step %d: Step = %v, want %v", i, got, want)
		}
	}
	if !tr.Fired() || tr.FiredAt != 1 || !tr.latched {
		t.Fatalf("after firing: Fired=%v FiredAt=%d Latched=%v", tr.Fired(), tr.FiredAt, tr.latched)
	}
	// Steps 2,3 calm: still latched (hysteresis l'=3 not yet met).
	for i := 2; i <= 3; i++ {
		if !tr.Step(0) {
			t.Fatalf("step %d: released before hysteresis was met", i)
		}
		if tr.calm != i-1 {
			t.Fatalf("step %d: CalmStreak = %d, want %d", i, tr.calm, i-1)
		}
	}
	// Step 4: third consecutive calm step → re-admitted, served learned.
	if tr.Step(0) {
		t.Fatalf("step 4: still defaulting after 3 calm steps")
	}
	if tr.latched || tr.Readmissions() != 1 || tr.ReadmittedAt != 4 {
		t.Fatalf("after re-admission: Latched=%v Readmissions=%d ReadmittedAt=%d",
			tr.latched, tr.Readmissions(), tr.ReadmittedAt)
	}
	if !tr.Fired() || tr.FiredAt != 1 {
		t.Fatalf("re-admission must not clear Fired/FiredAt: %v/%d", tr.Fired(), tr.FiredAt)
	}
	// Re-fire (steps 5,6): cap 1 is spent, so the latch is now permanent
	// no matter how calm the signal gets.
	tr.Step(1)
	if !tr.Step(1) {
		t.Fatalf("re-firing after re-admission did not latch")
	}
	if tr.FiredAt != 1 {
		t.Fatalf("FiredAt moved on re-firing: %d", tr.FiredAt)
	}
	for i := 0; i < 10; i++ {
		if !tr.Step(0) {
			t.Fatalf("cap-exhausted latch released at calm step %d", i)
		}
	}
	if tr.Readmissions() != 1 {
		t.Fatalf("Readmissions = %d, want 1", tr.Readmissions())
	}
}

func TestTriggerProbationUncertainStepRestartsHysteresis(t *testing.T) {
	tr := NewTrigger(probationCfg(1, 3, -1))
	tr.Step(1) // fires immediately (L=1)
	// calm, calm, uncertain: hysteresis restarts.
	tr.Step(0)
	tr.Step(0)
	tr.Step(1)
	if tr.calm != 0 {
		t.Fatalf("CalmStreak = %d after uncertain step, want 0", tr.calm)
	}
	// Needs 3 fresh calm steps now.
	if !tr.Step(0) {
		t.Fatalf("released after 1 calm step")
	}
	if !tr.Step(0) {
		t.Fatalf("released after 2 calm steps")
	}
	if tr.Step(0) {
		t.Fatalf("not re-admitted after 3 fresh calm steps")
	}
}

func TestTriggerProbationUnlimitedCap(t *testing.T) {
	tr := NewTrigger(probationCfg(1, 2, -1))
	for round := 0; round < 5; round++ {
		if !tr.Step(1) {
			t.Fatalf("round %d: did not latch", round)
		}
		tr.Step(0)
		if tr.Step(0) {
			t.Fatalf("round %d: did not re-admit", round)
		}
	}
	if tr.Readmissions() != 5 {
		t.Fatalf("Readmissions = %d, want 5", tr.Readmissions())
	}
}

// TestTriggerProbationCapZeroBitIdentical pins the reproducibility
// contract: with ReadmitCap 0 (or ReadmitL 0) the trigger's step
// sequence is identical to the plain latched trigger on any score
// stream, so every pre-probation result is unchanged.
func TestTriggerProbationCapZeroBitIdentical(t *testing.T) {
	for name, cfg := range map[string]TriggerConfig{
		"cap0":     probationCfg(3, 4, 0),
		"readmit0": probationCfg(3, 0, 7),
	} {
		base := NewTrigger(TriggerConfig{Threshold: 0.5, L: 3, Latched: true})
		probed := NewTrigger(cfg)
		rng := stats.NewRNG(42)
		for i := 0; i < 500; i++ {
			score := 0.0
			if rng.Float64() < 0.3 {
				score = 1.0
			}
			if got, want := probed.Step(score), base.Step(score); got != want {
				t.Fatalf("%s: step %d diverged: %v vs latched %v", name, i, got, want)
			}
		}
		if probed.Fired() != base.Fired() || probed.FiredAt != base.FiredAt {
			t.Fatalf("%s: firing state diverged", name)
		}
		if probed.Readmissions() != 0 {
			t.Fatalf("%s: Readmissions = %d, want 0", name, probed.Readmissions())
		}
	}
}

// Variance-mode probation: the same rolling-variance rule that fires
// the trigger also judges confidence during probation, so a recovered
// trigger's window state matches a fresh trigger fed the same scores.
func TestTriggerProbationVarianceMode(t *testing.T) {
	cfg := VarianceTriggerConfig(0.1, 2)
	cfg.ReadmitL = 3
	cfg.ReadmitCap = 1
	tr := NewTrigger(cfg)
	// Alternating 0/10 has a huge window variance → fires.
	fired := -1
	for i := 0; i < 12; i++ {
		score := 0.0
		if i%2 == 0 {
			score = 10
		}
		if tr.Step(score) && fired < 0 {
			fired = i
		}
	}
	if !tr.Fired() {
		t.Fatalf("variance trigger never fired")
	}
	// A constant stream drives the variance to 0 → calm → re-admission
	// exactly 3 calm steps after the window variance falls under α.
	released := -1
	for i := 0; i < 12; i++ {
		if !tr.Step(5) {
			released = i
			break
		}
	}
	if released < 0 {
		t.Fatalf("variance trigger never re-admitted under constant scores")
	}
	if tr.Readmissions() != 1 {
		t.Fatalf("Readmissions = %d, want 1", tr.Readmissions())
	}
}

func TestTriggerProbationValidate(t *testing.T) {
	if err := (TriggerConfig{L: 3, ReadmitL: -1}).Validate(); err == nil {
		t.Fatalf("negative ReadmitL validated")
	}
	if err := (TriggerConfig{L: 3, ReadmitL: 4, Latched: false}).Validate(); err == nil {
		t.Fatalf("ReadmitL without Latched validated")
	}
	if err := probationCfg(3, 4, 2).Validate(); err != nil {
		t.Fatalf("valid probation config rejected: %v", err)
	}
	if probationCfg(3, 4, 0).Probation() {
		t.Fatalf("cap-0 config reports probation enabled")
	}
	if !probationCfg(3, 4, -1).Probation() {
		t.Fatalf("unlimited-cap config reports probation disabled")
	}
}

func TestTriggerProbationReset(t *testing.T) {
	tr := NewTrigger(probationCfg(1, 1, 2))
	tr.Step(1)
	tr.Step(0) // re-admit
	tr.Step(1) // latch again
	if tr.Readmissions() != 1 || !tr.latched {
		t.Fatalf("setup: Readmissions=%d Latched=%v", tr.Readmissions(), tr.latched)
	}
	tr.Reset()
	if tr.Readmissions() != 0 || tr.latched || tr.Fired() || tr.calm != 0 ||
		tr.FiredAt != -1 || tr.ReadmittedAt != -1 {
		t.Fatalf("Reset left probation state behind: %+v", tr)
	}
	// Budget is per-episode: after Reset the trigger re-admits again.
	tr.Step(1)
	if tr.Step(0) {
		t.Fatalf("post-Reset trigger did not re-admit")
	}
}

// Guard-level: a probation trigger re-admits through Decide, Fired
// stays monotone, and Readmissions surfaces the count.
func TestGuardProbationReadmission(t *testing.T) {
	learned := constPolicy{p: []float64{1, 0}}
	def := constPolicy{p: []float64{0, 1}}
	sig := &scriptSignal{scores: []float64{1, 1, 0, 0, 1, 1, 0}}
	g, err := NewGuard(learned, def, sig, NewTrigger(probationCfg(2, 2, 1)))
	if err != nil {
		t.Fatal(err)
	}
	wantDefault := []bool{false, true, true, false, false, true, true}
	obs := []float64{0}
	for i, want := range wantDefault {
		d := g.Decide(obs)
		if d.UsedDefault != want {
			t.Fatalf("step %d: UsedDefault = %v, want %v", i, d.UsedDefault, want)
		}
		if i >= 1 && !d.Fired {
			t.Fatalf("step %d: Fired cleared after first firing", i)
		}
	}
	if g.Readmissions() != 1 {
		t.Fatalf("Guard.Readmissions = %d, want 1", g.Readmissions())
	}
	if g.SwitchStep() != 1 {
		t.Fatalf("SwitchStep = %d, want 1", g.SwitchStep())
	}
}

type constPolicy struct{ p []float64 }

func (c constPolicy) Probs([]float64) []float64 { return c.p }

type scriptSignal struct {
	scores []float64
	i      int
}

func (s *scriptSignal) Observe([]float64) float64 {
	v := s.scores[s.i%len(s.scores)]
	s.i++
	return v
}
func (s *scriptSignal) Reset()       { s.i = 0 }
func (s *scriptSignal) Name() string { return "script" }

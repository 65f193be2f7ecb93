package core

import (
	"testing"
)

// decisionGuard builds a guard over distinguishable learned/default
// policies and a raw-score trigger (score > 0.5 for L consecutive
// steps, latched).
func decisionGuard(t *testing.T, scores []float64, l int, latched bool) *Guard {
	t.Helper()
	learned := fixedPolicy{1, 0}
	def := fixedPolicy{0, 1}
	cfg := TriggerConfig{Threshold: 0.5, L: l, Latched: latched}
	g, err := NewGuard(learned, def, &scriptedSignal{scores: scores}, NewTrigger(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDecideReportsMetadata(t *testing.T) {
	// Quiet, quiet, uncertain ×3 (fires at step 4), then quiet — latched.
	g := decisionGuard(t, []float64{0, 0, 1, 1, 1, 0, 0}, 3, true)

	want := []struct {
		score       float64
		usedDefault bool
		fired       bool
	}{
		{0, false, false},
		{0, false, false},
		{1, false, false},
		{1, false, false},
		{1, true, true}, // streak reaches L here
		{0, true, true}, // latched: stays on the default
		{0, true, true},
	}
	for i, w := range want {
		d := g.Decide(nil)
		if d.Step != i {
			t.Fatalf("step %d: Decision.Step = %d", i, d.Step)
		}
		if d.Score != w.score {
			t.Errorf("step %d: score = %v, want %v", i, d.Score, w.score)
		}
		if d.UsedDefault != w.usedDefault {
			t.Errorf("step %d: usedDefault = %v, want %v", i, d.UsedDefault, w.usedDefault)
		}
		if d.Fired != w.fired {
			t.Errorf("step %d: fired = %v, want %v", i, d.Fired, w.fired)
		}
		wantPolicy, wantProbs := "learned", 1.0
		if w.usedDefault {
			wantPolicy = "default"
			wantProbs = 0.0
		}
		if d.Policy() != wantPolicy {
			t.Errorf("step %d: policy = %q, want %q", i, d.Policy(), wantPolicy)
		}
		if d.Probs[0] != wantProbs {
			t.Errorf("step %d: probs = %v (wanted %s policy)", i, d.Probs, wantPolicy)
		}
	}
	if g.Steps() != len(want) {
		t.Errorf("Steps() = %d, want %d", g.Steps(), len(want))
	}
	if g.DefaultedSteps() != 3 {
		t.Errorf("DefaultedSteps() = %d, want 3", g.DefaultedSteps())
	}
	if g.SwitchStep() != 4 {
		t.Errorf("SwitchStep() = %d, want 4", g.SwitchStep())
	}
}

func TestDecideUnlatchedRecovers(t *testing.T) {
	g := decisionGuard(t, []float64{1, 1, 0, 1}, 2, false)
	seq := []bool{false, true, false, false} // streak 1, 2 (acts), broken, 1
	for i, wantDefault := range seq {
		d := g.Decide(nil)
		if d.UsedDefault != wantDefault {
			t.Errorf("step %d: usedDefault = %v, want %v", i, d.UsedDefault, wantDefault)
		}
	}
	// Fired stays true once it has fired, even after recovery.
	g.Reset()
	if d := g.Decide(nil); d.Fired {
		t.Errorf("after Reset: fired = true on first step %+v", d)
	}
}

func TestProbsMatchesDecide(t *testing.T) {
	a := decisionGuard(t, []float64{0, 1, 1, 1, 0}, 3, true)
	b := decisionGuard(t, []float64{0, 1, 1, 1, 0}, 3, true)
	for i := 0; i < 10; i++ {
		pa := a.Probs(nil)
		pb := b.Decide(nil).Probs
		for j := range pa {
			if pa[j] != pb[j] {
				t.Fatalf("step %d: Probs %v != Decide().Probs %v", i, pa, pb)
			}
		}
	}
	if a.DefaultedSteps() != b.DefaultedSteps() {
		t.Errorf("bookkeeping diverged: %d vs %d", a.DefaultedSteps(), b.DefaultedSteps())
	}
}

func TestDecideZeroAlloc(t *testing.T) {
	g := decisionGuard(t, []float64{0, 0, 1}, 3, true)
	g.Decide(nil)
	if n := testing.AllocsPerRun(100, func() { g.Decide(nil) }); n != 0 {
		t.Errorf("Decide allocs/op = %v, want 0", n)
	}
}

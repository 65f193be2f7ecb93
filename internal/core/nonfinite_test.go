package core

import (
	"math"
	"testing"

	"osap/internal/mdp"
	"osap/internal/stats"
)

// TestDecideNonFiniteScoreActsSafe checks the guard's handling of a
// poisoned uncertainty score: the step acts with the default policy
// (maximal uncertainty) and the score is kept out of the trigger
// window. The window check is behavioral — with the variance rule, one
// NaN admitted into the K-window would make the variance NaN for the
// next K steps and silently mask a real spike (NaN > α is false), so
// the guard must still fire at the exact step the spike demands.
func TestDecideNonFiniteScoreActsSafe(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		// K=3, α=1, L=1: scores 0,0,bad,0,5 → window {0,0,0} then
		// {0,0,5} (variance 8.3) ⇒ must fire at step 4. If bad leaked
		// into the window, variance would be NaN through step 4 and the
		// guard would stay quiet.
		scores := []float64{0, 0, bad, 0, 5}
		g, err := NewGuard(fixedPolicy{1, 0}, fixedPolicy{0, 1},
			&scriptedSignal{scores: scores},
			NewTrigger(TriggerConfig{K: 3, Threshold: 1, L: 1, Latched: true}))
		if err != nil {
			t.Fatal(err)
		}
		for i := range scores {
			d := g.Decide(nil)
			if i == 2 {
				if !d.UsedDefault {
					t.Errorf("score %v: poisoned step acted with the learned policy", bad)
				}
				if d.Fired {
					t.Errorf("score %v: poisoned step reported the trigger fired", bad)
				}
				continue
			}
			if wantFired := i == 4; d.Fired != wantFired {
				t.Errorf("score %v step %d: fired = %v, want %v (window poisoned?)", bad, i, d.Fired, wantFired)
			}
		}
	}
}

// TestStateSignalNaNObservationsScoreNonFinite: U_S reports the
// OC-SVM margin, so a NaN throughput scores NaN as soon as the windows
// yield a feature vector, and the guard defaults on that very step
// through the trigger's non-finite skip, never firing. While the
// windows fill there is no feature vector and the score is 0.
func TestStateSignalNaNObservationsScoreNonFinite(t *testing.T) {
	cfg := DefaultStateSignalConfig()
	model := trainThroughputModel(t, stats.Gamma{Shape: 2, Scale: 2}, cfg)
	sig, err := NewStateSignal(model, extractFirst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGuard(fixedPolicy{1, 0}, fixedPolicy{0, 1}, sig, NewTrigger(StateTriggerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*cfg.ThroughputWindow; i++ {
		d := g.Decide([]float64{math.NaN()})
		if sig.Features() == nil {
			if d.Score != 0 || d.UsedDefault {
				t.Fatalf("warmup step %d: score %v, defaulted %v", i, d.Score, d.UsedDefault)
			}
			continue
		}
		if !math.IsNaN(d.Score) || !d.UsedDefault || d.Fired {
			t.Fatalf("step %d: score %v defaulted %v fired %v, want NaN, the default, no firing",
				i, d.Score, d.UsedDefault, d.Fired)
		}
	}
}

// TestPolicySignalNaNMemberDefaultsGuard: one ensemble member emitting
// NaN probabilities (a poisoned workspace) must push every decision to
// the default policy via the non-finite score path, never crash the
// guard or leak NaN into the served distribution.
func TestPolicySignalNaNMemberDefaultsGuard(t *testing.T) {
	members := []mdp.Policy{
		fixedPolicy{math.NaN(), 0.5, 0.5},
		fixedPolicy{0.2, 0.6, 0.2},
		fixedPolicy{0.3, 0.3, 0.4},
	}
	sig, err := NewPolicySignal(members, EnsembleConfig{Discard: 0})
	if err != nil {
		t.Fatal(err)
	}
	assertPoisonedSignalDefaults(t, sig, "U_π")
}

// TestValueSignalNaNMemberDefaultsGuard is the U_V counterpart.
func TestValueSignalNaNMemberDefaultsGuard(t *testing.T) {
	members := []mdp.ValueFn{fixedValue(math.NaN()), fixedValue(3), fixedValue(5)}
	sig, err := NewValueSignal(members, EnsembleConfig{Discard: 0})
	if err != nil {
		t.Fatal(err)
	}
	assertPoisonedSignalDefaults(t, sig, "U_V")
}

func assertPoisonedSignalDefaults(t *testing.T, sig Signal, name string) {
	t.Helper()
	g, err := NewGuard(fixedPolicy{0.7, 0.2, 0.1}, fixedPolicy{0.1, 0.2, 0.7}, sig,
		NewTrigger(VarianceTriggerConfig(0.05, 2)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		d := g.Decide(nil)
		if !math.IsNaN(d.Score) {
			t.Fatalf("%s step %d: score %v, want NaN from the poisoned member", name, i, d.Score)
		}
		if !d.UsedDefault {
			t.Fatalf("%s step %d: poisoned decision used the learned policy", name, i)
		}
		if d.Fired {
			t.Fatalf("%s step %d: non-finite scores must not advance the trigger", name, i)
		}
		for _, p := range d.Probs {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("%s step %d: served non-finite prob %v", name, i, p)
			}
		}
	}
}

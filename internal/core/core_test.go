package core

import (
	"math"
	"testing"

	"osap/internal/mdp"
	"osap/internal/ocsvm"
	"osap/internal/stats"
)

func TestBuildStateFeaturesShape(t *testing.T) {
	cfg := StateSignalConfig{ThroughputWindow: 10, K: 5}
	thr := make([]float64, 40)
	for i := range thr {
		thr[i] = float64(i)
	}
	feats := BuildStateFeatures(thr, cfg)
	// First pair at sample 2 (window has ≥2), K pairs needed: first
	// feature at sample 2+K-1 = 6 → 40-6+1 = 35 features.
	if len(feats) != 35 {
		t.Fatalf("got %d features, want 35", len(feats))
	}
	for _, f := range feats {
		if len(f) != cfg.FeatureDim() {
			t.Fatalf("feature dim %d, want %d", len(f), cfg.FeatureDim())
		}
	}
}

func TestBuildStateFeaturesValues(t *testing.T) {
	cfg := StateSignalConfig{ThroughputWindow: 2, K: 1}
	feats := BuildStateFeatures([]float64{1, 3, 5}, cfg)
	// Windows: [1,3] → mean 2, std 1; [3,5] → mean 4, std 1.
	if len(feats) != 2 {
		t.Fatalf("got %d features", len(feats))
	}
	if feats[0][0] != 2 || feats[0][1] != 1 || feats[1][0] != 4 || feats[1][1] != 1 {
		t.Fatalf("features = %v", feats)
	}
}

func TestStateSignalConfigValidation(t *testing.T) {
	if err := (StateSignalConfig{ThroughputWindow: 1, K: 5}).Validate(); err == nil {
		t.Error("window 1 accepted")
	}
	if err := (StateSignalConfig{ThroughputWindow: 10, K: 0}).Validate(); err == nil {
		t.Error("K=0 accepted")
	}
	if err := DefaultStateSignalConfig().Validate(); err != nil {
		t.Error(err)
	}
}

// trainThroughputModel fits an OC-SVM on features of i.i.d. throughput
// from the given sampler.
func trainThroughputModel(t *testing.T, s stats.Sampler, cfg StateSignalConfig) *ocsvm.Model {
	t.Helper()
	rng := stats.NewRNG(100)
	thr := make([]float64, 3000)
	for i := range thr {
		thr[i] = s.Sample(rng)
	}
	model, err := ocsvm.Train(BuildStateFeatures(thr, cfg), ocsvm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return model
}

// obsFromThroughput builds a 1-dim "observation" carrying the
// throughput.
func extractFirst(obs []float64) float64 { return obs[0] }

func TestStateSignalInDistributionQuiet(t *testing.T) {
	cfg := DefaultStateSignalConfig()
	model := trainThroughputModel(t, stats.Gamma{Shape: 2, Scale: 2}, cfg)
	sig, err := NewStateSignal(model, extractFirst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(7)
	g := stats.Gamma{Shape: 2, Scale: 2}
	ood := 0
	n := 500
	for i := 0; i < n; i++ {
		if sig.Observe([]float64{g.Sample(rng)}) > 0 {
			ood++
		}
	}
	if frac := float64(ood) / float64(n); frac > 0.2 {
		t.Errorf("in-distribution OOD rate %.2f too high", frac)
	}
}

func TestStateSignalDetectsShift(t *testing.T) {
	cfg := DefaultStateSignalConfig()
	model := trainThroughputModel(t, stats.Gamma{Shape: 2, Scale: 2}, cfg)
	sig, err := NewStateSignal(model, extractFirst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(8)
	// Feed a very different distribution (mean 12 vs 4).
	d := stats.Normal{Mu: 12, Sigma: 0.5}
	ood := 0
	n := 300
	for i := 0; i < n; i++ {
		if sig.Observe([]float64{d.Sample(rng)}) > 0 {
			ood++
		}
	}
	if frac := float64(ood) / float64(n); frac < 0.7 {
		t.Errorf("OOD rate %.2f too low under a large shift", frac)
	}
}

func TestStateSignalResetClearsHistory(t *testing.T) {
	cfg := StateSignalConfig{ThroughputWindow: 2, K: 2}
	model := trainThroughputModel(t, stats.Uniform{Low: 1, High: 2}, cfg)
	sig, err := NewStateSignal(model, extractFirst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		sig.Observe([]float64{100})
	}
	sig.Reset()
	// After reset, windows refill: the first observations report 0.
	if s := sig.Observe([]float64{1.5}); s != 0 {
		t.Errorf("post-reset warmup score = %v, want 0", s)
	}
}

// TestStateSignalScoreIsMargin: U_S scores the OC-SVM margin of the
// features it reports, so "score > 0" is exactly "Decision < 0",
// and it scores 0 with no features while the windows fill.
func TestStateSignalScoreIsMargin(t *testing.T) {
	cfg := DefaultStateSignalConfig()
	model := trainThroughputModel(t, stats.Gamma{Shape: 2, Scale: 2}, cfg)
	sig, err := NewStateSignal(model, extractFirst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(9)
	novel := 0
	for i := 0; i < 300; i++ {
		v := stats.Gamma{Shape: 2, Scale: 2}.Sample(rng)
		if i >= 150 {
			v += 6
		}
		score := sig.Observe([]float64{v})
		feat := sig.Features()
		if feat == nil {
			if score != 0 || i > cfg.K {
				t.Fatalf("step %d: no features with score %v", i, score)
			}
			continue
		}
		if score != -model.Decision(feat) || (score > 0) != (model.Decision(feat) < 0) {
			t.Fatalf("step %d: score %v is not the margin of Decision %v", i, score, model.Decision(feat))
		}
		if score > 0 {
			novel++
		}
	}
	if novel == 0 {
		t.Error("no positive margin after a +6 shift")
	}
	sig.Reset()
	if sig.Features() != nil {
		t.Error("Reset kept the last feature vector")
	}
}

func TestNewStateSignalErrors(t *testing.T) {
	cfg := DefaultStateSignalConfig()
	model := trainThroughputModel(t, stats.Uniform{Low: 0, High: 1}, cfg)
	if _, err := NewStateSignal(nil, extractFirst, cfg); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := NewStateSignal(model, nil, cfg); err == nil {
		t.Error("nil extractor accepted")
	}
	bad := cfg
	bad.K = 7 // model dim mismatch
	if _, err := NewStateSignal(model, extractFirst, bad); err == nil {
		t.Error("dim mismatch accepted")
	}
}

// fixedPolicy always returns the same distribution.
type fixedPolicy []float64

func (f fixedPolicy) Probs([]float64) []float64 { return f }

func TestPolicySignalAgreementIsZero(t *testing.T) {
	members := []mdp.Policy{
		fixedPolicy{0.7, 0.2, 0.1},
		fixedPolicy{0.7, 0.2, 0.1},
		fixedPolicy{0.7, 0.2, 0.1},
		fixedPolicy{0.7, 0.2, 0.1},
		fixedPolicy{0.7, 0.2, 0.1},
	}
	sig, err := NewPolicySignal(members, DefaultEnsembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if u := sig.Observe(nil); math.Abs(u) > 1e-9 {
		t.Errorf("agreement uncertainty = %v, want 0", u)
	}
}

func TestPolicySignalDisagreementPositive(t *testing.T) {
	members := []mdp.Policy{
		fixedPolicy{0.9, 0.05, 0.05},
		fixedPolicy{0.05, 0.9, 0.05},
		fixedPolicy{0.05, 0.05, 0.9},
		fixedPolicy{1.0 / 3, 1.0 / 3, 1.0 / 3},
		fixedPolicy{0.5, 0.25, 0.25},
	}
	sig, _ := NewPolicySignal(members, DefaultEnsembleConfig())
	if u := sig.Observe(nil); u <= 0.01 {
		t.Errorf("disagreement uncertainty = %v, want clearly positive", u)
	}
}

func TestPolicySignalTrimmingDropsOutliers(t *testing.T) {
	// Three members agree; two are wildly different. With Discard=2 the
	// signal should be ~0; without trimming it should be large.
	members := []mdp.Policy{
		fixedPolicy{0.8, 0.1, 0.1},
		fixedPolicy{0.8, 0.1, 0.1},
		fixedPolicy{0.8, 0.1, 0.1},
		fixedPolicy{0.01, 0.01, 0.98},
		fixedPolicy{0.01, 0.98, 0.01},
	}
	trimmed, _ := NewPolicySignal(members, EnsembleConfig{Discard: 2})
	raw, _ := NewPolicySignal(members, EnsembleConfig{Discard: 0})
	ut, ur := trimmed.Observe(nil), raw.Observe(nil)
	if ut > 1e-6 {
		t.Errorf("trimmed uncertainty = %v, want ~0", ut)
	}
	if ur < 0.5 {
		t.Errorf("untrimmed uncertainty = %v, want large", ur)
	}
}

func TestNewPolicySignalErrors(t *testing.T) {
	one := []mdp.Policy{fixedPolicy{1}}
	if _, err := NewPolicySignal(one, DefaultEnsembleConfig()); err == nil {
		t.Error("single member accepted")
	}
	five := []mdp.Policy{fixedPolicy{1}, fixedPolicy{1}, fixedPolicy{1}, fixedPolicy{1}, fixedPolicy{1}}
	if _, err := NewPolicySignal(five, EnsembleConfig{Discard: 5}); err == nil {
		t.Error("discard == size accepted")
	}
}

// fixedValue is a constant value function.
type fixedValue float64

func (f fixedValue) Value([]float64) float64 { return float64(f) }

func TestValueSignalAgreementAndDisagreement(t *testing.T) {
	agree := []mdp.ValueFn{fixedValue(5), fixedValue(5), fixedValue(5), fixedValue(5), fixedValue(5)}
	sig, err := NewValueSignal(agree, DefaultEnsembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	if u := sig.Observe(nil); u != 0 {
		t.Errorf("agreement = %v, want 0", u)
	}

	disagree := []mdp.ValueFn{fixedValue(0), fixedValue(10), fixedValue(20), fixedValue(-10), fixedValue(5)}
	sig2, _ := NewValueSignal(disagree, DefaultEnsembleConfig())
	if u := sig2.Observe(nil); u <= 0 {
		t.Errorf("disagreement = %v, want > 0", u)
	}
}

func TestValueSignalTrimming(t *testing.T) {
	// Three agree at 5; two at ±100.
	members := []mdp.ValueFn{fixedValue(5), fixedValue(5), fixedValue(5), fixedValue(100), fixedValue(-100)}
	trimmed, _ := NewValueSignal(members, EnsembleConfig{Discard: 2})
	if u := trimmed.Observe(nil); u > 1e-9 {
		t.Errorf("trimmed value uncertainty = %v, want 0", u)
	}
	raw, _ := NewValueSignal(members, EnsembleConfig{Discard: 0})
	if u := raw.Observe(nil); u < 50 {
		t.Errorf("untrimmed value uncertainty = %v, want large", u)
	}
}

func TestTrimIndices(t *testing.T) {
	kept := trimIndicesInto(make([]int, 0, 5), []float64{0.1, 5, 0.2, 7, 0.15}, 2)
	want := []int{0, 2, 4}
	if len(kept) != 3 {
		t.Fatalf("kept %v", kept)
	}
	for i := range want {
		if kept[i] != want[i] {
			t.Fatalf("kept %v, want %v", kept, want)
		}
	}
	// Discarding everything still keeps one.
	if k := trimIndicesInto(make([]int, 0, 2), []float64{1, 2}, 5); len(k) != 1 || k[0] != 0 {
		t.Fatalf("over-discard kept %v", k)
	}
}

func TestBinaryTriggerNeedsConsecutive(t *testing.T) {
	tr := NewTrigger(StateTriggerConfig()) // L=3
	seq := []float64{1, 1, 0, 1, 1, 1}
	want := []bool{false, false, false, false, false, true}
	for i, s := range seq {
		if got := tr.Step(s); got != want[i] {
			t.Fatalf("step %d: defaulted=%v, want %v", i, got, want[i])
		}
		if tr.Statistic() != s {
			t.Fatalf("step %d: Statistic %v, want the raw score %v", i, tr.Statistic(), s)
		}
	}
	if tr.FiredAt != 5 {
		t.Errorf("FiredAt = %d, want 5", tr.FiredAt)
	}
}

func TestLatchedTriggerStaysFired(t *testing.T) {
	tr := NewTrigger(StateTriggerConfig())
	for i := 0; i < 3; i++ {
		tr.Step(1)
	}
	if !tr.Step(0) {
		t.Error("latched trigger released after quiet score")
	}
}

func TestUnlatchedTriggerReleases(t *testing.T) {
	cfg := StateTriggerConfig()
	cfg.Latched = false
	tr := NewTrigger(cfg)
	for i := 0; i < 3; i++ {
		tr.Step(1)
	}
	if tr.Step(0) {
		t.Error("unlatched trigger did not release")
	}
	if !tr.Fired() {
		t.Error("Fired() should remember the first firing")
	}
}

func TestVarianceTriggerWarmup(t *testing.T) {
	tr := NewTrigger(VarianceTriggerConfig(0.01, 1))
	// High-variance scores, but the window (K=5) must fill first.
	scores := []float64{0, 10, 0, 10}
	for i, s := range scores {
		if tr.Step(s) {
			t.Fatalf("fired during warmup at step %d", i)
		}
		if tr.Statistic() != 0 {
			t.Fatalf("warmup step %d: Statistic %v, want 0", i, tr.Statistic())
		}
	}
	if !tr.Step(0) {
		t.Error("did not fire once window full with high variance")
	}
	if want := stats.Variance([]float64{0, 10, 0, 10, 0}); math.Abs(tr.Statistic()-want) > 1e-12 {
		t.Errorf("Statistic %v, want the window's variance %v", tr.Statistic(), want)
	}
}

func TestVarianceTriggerQuietUnderStableScores(t *testing.T) {
	tr := NewTrigger(VarianceTriggerConfig(0.01, 1))
	for i := 0; i < 50; i++ {
		if tr.Step(3.0) { // constant score: zero variance
			t.Fatal("fired on constant scores")
		}
	}
}

func TestTriggerReset(t *testing.T) {
	tr := NewTrigger(StateTriggerConfig())
	for i := 0; i < 3; i++ {
		tr.Step(1)
	}
	tr.Reset()
	if tr.Fired() || tr.FiredAt != -1 {
		t.Error("reset did not clear fired state")
	}
	if tr.Step(1) {
		t.Error("fired immediately after reset")
	}
}

func TestTriggerConfigValidation(t *testing.T) {
	if err := (TriggerConfig{L: 0}).Validate(); err == nil {
		t.Error("L=0 accepted")
	}
	for _, k := range []int{1, -1} {
		if err := (TriggerConfig{K: k, L: 1}).Validate(); err == nil {
			t.Errorf("K=%d accepted", k)
		}
	}
	for _, k := range []int{0, 2} {
		if err := (TriggerConfig{K: k, L: 1}).Validate(); err != nil {
			t.Errorf("K=%d refused: %v", k, err)
		}
	}
}

// scriptedSignal replays a fixed score sequence.
type scriptedSignal struct {
	scores []float64
	i      int
}

func (s *scriptedSignal) Observe([]float64) float64 {
	if s.i >= len(s.scores) {
		return 0
	}
	v := s.scores[s.i]
	s.i++
	return v
}
func (s *scriptedSignal) Reset()       { s.i = 0 }
func (s *scriptedSignal) Name() string { return "scripted" }

func TestGuardSwitchesPolicies(t *testing.T) {
	learned := fixedPolicy{1, 0}
	def := fixedPolicy{0, 1}
	sig := &scriptedSignal{scores: []float64{0, 0, 1, 1, 1, 0, 0}}
	g, err := NewGuard(learned, def, sig, NewTrigger(StateTriggerConfig()))
	if err != nil {
		t.Fatal(err)
	}
	wantLearned := []bool{true, true, true, true, false, false, false}
	for i, want := range wantLearned {
		p := g.Probs(nil)
		isLearned := p[0] == 1
		if isLearned != want {
			t.Fatalf("step %d: learned=%v, want %v", i, isLearned, want)
		}
	}
	if g.SwitchStep() != 4 {
		t.Errorf("SwitchStep = %d, want 4", g.SwitchStep())
	}
	if g.DefaultedSteps() != 3 || g.Steps() != 7 {
		t.Errorf("defaulted %d/%d", g.DefaultedSteps(), g.Steps())
	}
	if math.Abs(g.DefaultedFraction()-3.0/7) > 1e-12 {
		t.Errorf("fraction = %v", g.DefaultedFraction())
	}
}

func TestGuardResetRestoresLearned(t *testing.T) {
	sig := &scriptedSignal{scores: []float64{1, 1, 1, 0}}
	g, _ := NewGuard(fixedPolicy{1, 0}, fixedPolicy{0, 1}, sig, NewTrigger(StateTriggerConfig()))
	for i := 0; i < 4; i++ {
		g.Probs(nil)
	}
	if g.DefaultedSteps() == 0 {
		t.Fatal("guard never defaulted in setup")
	}
	g.Reset()
	if p := g.Probs(nil); p[0] != 1 {
		t.Error("guard still defaulted after Reset")
	}
	if g.Steps() != 1 || g.DefaultedSteps() != 0 {
		t.Error("episode counters not reset")
	}
}

func TestNewGuardValidation(t *testing.T) {
	tr := NewTrigger(StateTriggerConfig())
	sig := &scriptedSignal{}
	if _, err := NewGuard(nil, fixedPolicy{1}, sig, tr); err == nil {
		t.Error("nil learned accepted")
	}
	if _, err := NewGuard(fixedPolicy{1}, nil, sig, tr); err == nil {
		t.Error("nil default accepted")
	}
	if _, err := NewGuard(fixedPolicy{1}, fixedPolicy{1}, nil, tr); err == nil {
		t.Error("nil signal accepted")
	}
	if _, err := NewGuard(fixedPolicy{1}, fixedPolicy{1}, sig, nil); err == nil {
		t.Error("nil trigger accepted")
	}
}

func TestCalibrateFindsThreshold(t *testing.T) {
	// Synthetic monotone response: QoE rises smoothly with α.
	eval := func(a float64) float64 { return 10 * a / (a + 1) } // 0→0, ∞→10
	res, err := Calibrate(eval, 5, 1e-3, 1e3, 30)
	if err != nil {
		t.Fatal(err)
	}
	// QoE(α)=5 at α=1.
	if math.Abs(res.Threshold-1) > 0.05 {
		t.Errorf("threshold = %v, want ~1", res.Threshold)
	}
	if res.AchievedQoE < 5 {
		t.Errorf("achieved %v < target", res.AchievedQoE)
	}
	if res.Bound != "" {
		t.Errorf("bracketed target reported pinned to %q", res.Bound)
	}
}

// TestCalibrateEndpoints: a target out of the range's reach settles
// for the nearer end, and says which one it pinned to.
func TestCalibrateEndpoints(t *testing.T) {
	for _, tc := range []struct {
		bound string
		qoe   float64 // the constant eval
		want  float64
	}{
		{"lo", 100, 0.01}, // target below the whole range: the lowest α already qualifies
		{"hi", 1, 10},     // target above it: even never defaulting misses
	} {
		t.Run(tc.bound, func(t *testing.T) {
			res, err := Calibrate(func(a float64) float64 { return tc.qoe }, 5, 0.01, 10, 10)
			if err != nil {
				t.Fatal(err)
			}
			if res.Threshold != tc.want || res.Bound != tc.bound {
				t.Errorf("threshold %v bound %q, want %v %q", res.Threshold, res.Bound, tc.want, tc.bound)
			}
		})
	}
}

func TestCalibrateInvalidRange(t *testing.T) {
	if _, err := Calibrate(func(float64) float64 { return 0 }, 1, 0, 1, 5); err == nil {
		t.Error("lo=0 accepted")
	}
	if _, err := Calibrate(func(float64) float64 { return 0 }, 1, 2, 1, 5); err == nil {
		t.Error("hi<lo accepted")
	}
}

func TestSignalNames(t *testing.T) {
	ps, _ := NewPolicySignal([]mdp.Policy{fixedPolicy{1}, fixedPolicy{1}}, EnsembleConfig{})
	vs, _ := NewValueSignal([]mdp.ValueFn{fixedValue(0), fixedValue(0)}, EnsembleConfig{})
	cfg := DefaultStateSignalConfig()
	model := trainThroughputModel(t, stats.Uniform{Low: 0, High: 1}, cfg)
	ss, _ := NewStateSignal(model, extractFirst, cfg)
	if ss.Name() != "ND" || ps.Name() != "A-ensemble" || vs.Name() != "V-ensemble" {
		t.Errorf("names: %q %q %q", ss.Name(), ps.Name(), vs.Name())
	}
}

func TestFuncSignal(t *testing.T) {
	calls := 0
	sig := FuncSignal{F: func(obs []float64) float64 {
		calls++
		return obs[0] * 2
	}, SignalName: "RND"}
	if got := sig.Observe([]float64{1.5}); got != 3 {
		t.Errorf("Observe = %v", got)
	}
	sig.Reset() // no-op, must not panic
	if sig.Name() != "RND" {
		t.Errorf("Name = %q", sig.Name())
	}
	if (FuncSignal{F: func([]float64) float64 { return 0 }}).Name() != "func" {
		t.Error("default name wrong")
	}
	if calls != 1 {
		t.Errorf("calls = %d", calls)
	}
}

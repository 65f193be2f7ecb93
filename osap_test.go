package osap_test

import (
	"math"
	"testing"

	"osap"
	"osap/internal/stats"
)

// tideEnv is a tiny MDP used to exercise the public facade end to end:
// the observation is a noisy "water level"; action 1 (raise barrier)
// costs 1 but prevents flood damage when the level exceeds 1.
type tideEnv struct {
	rng   *stats.RNG
	storm bool
	level float64
	steps int
}

func (e *tideEnv) Reset(rng *stats.RNG) []float64 {
	e.rng = rng
	e.steps = 0
	e.sample()
	return []float64{e.level}
}

func (e *tideEnv) sample() {
	mean := 0.5
	if e.storm && e.steps > 10 {
		mean = 2.5
	}
	e.level = math.Max(0, mean+0.1*e.rng.NormFloat64())
}

func (e *tideEnv) Step(a int) ([]float64, float64, bool) {
	reward := 0.0
	if a == 1 {
		reward -= 1
	} else if e.level > 1 {
		reward -= 20 // flood
	}
	e.steps++
	e.sample()
	return []float64{e.level}, reward, e.steps >= 30
}

func (e *tideEnv) NumActions() int { return 2 }
func (e *tideEnv) ObsDim() int     { return 1 }

func TestFacadeEndToEnd(t *testing.T) {
	// "Learned" policy tuned for calm weather: never raise the barrier.
	learned := osap.PolicyFunc(func([]float64) []float64 { return []float64{1, 0} })
	// Safe default: always raise it.
	safe := osap.PolicyFunc(func([]float64) []float64 { return []float64{0, 1} })

	// Fit a U_S-style novelty detector on calm-weather levels.
	rng := osap.NewRNG(1)
	var calm []float64
	for i := 0; i < 3000; i++ {
		calm = append(calm, math.Max(0, 0.5+0.1*rng.NormFloat64()))
	}
	sigCfg := osap.StateSignalConfig{ThroughputWindow: 4, K: 2}
	model, err := osap.TrainOCSVM(osap.BuildStateFeatures(calm, sigCfg), osap.OCSVMConfig{Nu: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	sig, err := osap.NewStateSignal(model, func(obs []float64) float64 { return obs[0] }, sigCfg)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := osap.NewGuard(learned, safe, sig, osap.NewTrigger(osap.StateTriggerConfig()))
	if err != nil {
		t.Fatal(err)
	}

	// Calm episode: the guard should behave like the learned policy.
	calmEnv := &tideEnv{}
	calmRes := osap.EvaluateGuard(calmEnv, guard, osap.NewRNG(2), 5)
	calmQoE := osap.MeanQoE(calmRes)
	learnedCalm := osap.Rollout(&tideEnv{}, learned, osap.NewRNG(2), 0).TotalReward()
	// Occasional false-positive defaults cost a few barrier-raises; the
	// guard must stay far above always-defaulting (-30).
	if calmQoE < learnedCalm-8 {
		t.Errorf("guarded calm reward %v well below learned %v", calmQoE, learnedCalm)
	}

	// Storm episode: vanilla learned policy floods, guard must default.
	stormRes := osap.EvaluateGuard(&tideEnv{storm: true}, guard, osap.NewRNG(3), 5)
	stormQoE := osap.MeanQoE(stormRes)
	vanillaStorm := osap.Rollout(&tideEnv{storm: true}, learned, osap.NewRNG(3), 0).TotalReward()
	if stormQoE <= vanillaStorm {
		t.Errorf("guard (%v) did not improve on vanilla (%v) in a storm", stormQoE, vanillaStorm)
	}
	switched := 0
	for _, r := range stormRes {
		if r.SwitchStep >= 0 {
			switched++
		}
	}
	if switched == 0 {
		t.Error("guard never defaulted during storms")
	}
}

func TestFacadePolicyAndValueSignals(t *testing.T) {
	members := []osap.Policy{
		osap.PolicyFunc(func([]float64) []float64 { return []float64{0.9, 0.1} }),
		osap.PolicyFunc(func([]float64) []float64 { return []float64{0.88, 0.12} }),
		osap.PolicyFunc(func([]float64) []float64 { return []float64{0.92, 0.08} }),
	}
	ps, err := osap.NewPolicySignal(members, osap.EnsembleConfig{Discard: 1})
	if err != nil {
		t.Fatal(err)
	}
	if u := ps.Observe([]float64{0}); u < 0 || u > 0.1 {
		t.Errorf("agreeing ensemble uncertainty = %v", u)
	}

	vs, err := osap.NewValueSignal([]osap.ValueFn{vf(1), vf(1.1), vf(50)}, osap.EnsembleConfig{Discard: 1})
	if err != nil {
		t.Fatal(err)
	}
	if u := vs.Observe(nil); u > 0.2 {
		t.Errorf("trimmed value uncertainty = %v, want small (outlier dropped)", u)
	}
}

// vf is a constant ValueFn.
type vf float64

func (v vf) Value([]float64) float64 { return float64(v) }

func TestFacadeCalibrate(t *testing.T) {
	res, err := osap.Calibrate(func(a float64) float64 { return a }, 0.5, 0.01, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Threshold-0.5) > 0.05 {
		t.Errorf("calibrated threshold = %v, want ~0.5", res.Threshold)
	}
}

func TestFacadeVarianceTrigger(t *testing.T) {
	trig := osap.NewTrigger(osap.VarianceTriggerConfig(0.5, 2))
	// Alternating extremes: variance >> 0.5 once the window fills.
	fired := false
	for i := 0; i < 20; i++ {
		v := 0.0
		if i%2 == 0 {
			v = 10
		}
		if trig.Step(v) {
			fired = true
		}
	}
	if !fired {
		t.Error("variance trigger never fired on oscillating scores")
	}
	trig.Reset()
	if trig.Fired() {
		t.Error("Reset did not clear trigger")
	}
}

func TestFacadeAlternativeTriggers(t *testing.T) {
	// EWMA through the facade.
	ew := osap.NewTrigger(osap.TriggerConfig{Threshold: 1, L: 1, Latched: true, Running: &osap.Running{Weight: 0.5}})
	fired := false
	for i := 0; i < 10; i++ {
		if ew.Step(3) {
			fired = true
		}
	}
	if !fired {
		t.Error("facade EWMA trigger never fired")
	}

	// CUSUM via calibration through the facade.
	cfg := osap.CalibrateCUSUM([]float64{1, 1.1, 0.9, 1.05}, 4, true)
	cu := osap.NewTrigger(cfg)
	for i := 0; i < 100; i++ {
		cu.Step(2.5)
	}
	if !cu.Fired() {
		t.Error("facade CUSUM trigger never fired on a sustained shift")
	}

	// A guard takes a trigger over any statistic.
	g, err := osap.NewGuard(
		osap.PolicyFunc(func([]float64) []float64 { return []float64{1} }),
		osap.PolicyFunc(func([]float64) []float64 { return []float64{1} }),
		osap.FuncSignal{F: func([]float64) float64 { return 0 }},
		osap.NewTrigger(cfg),
	)
	if err != nil {
		t.Fatal(err)
	}
	g.Reset()
	g.Probs(nil)
}

func TestFacadeRolloutMaxSteps(t *testing.T) {
	env := &tideEnv{}
	traj := osap.Rollout(env, osap.PolicyFunc(func([]float64) []float64 { return []float64{1, 0} }),
		osap.NewRNG(1), 7)
	if traj.Len() != 7 {
		t.Errorf("rollout length %d, want 7 (truncated)", traj.Len())
	}
}

func TestFacadeMeanQoEEmpty(t *testing.T) {
	if osap.MeanQoE(nil) != 0 {
		t.Error("MeanQoE(nil) should be 0")
	}
}

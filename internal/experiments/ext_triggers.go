package experiments

import (
	"fmt"
	"strings"

	"osap/internal/core"
	"osap/internal/mdp"
	"osap/internal/stats"
	"osap/internal/trace"
)

// TriggerStrategyNames lists the thresholding strategies compared by
// ExtensionTriggers, each a statistic of the one core.Trigger: the
// paper's windowed variance with an l-streak, an EWMA level test, and
// a CUSUM change detector.
func TriggerStrategyNames() []string { return []string{"Variance", "EWMA", "CUSUM"} }

// ExtensionTriggersResult compares thresholding strategies on the U_V
// signal across OOD pairs.
type ExtensionTriggersResult struct {
	TrainDataset string
	// Norm[strategy][test] is the guarded normalized score.
	Norm  map[string]map[string]float64
	Tests []string
	// Params records each strategy's calibrated parameter.
	Params map[string]float64
}

// collectSignalScores runs the guard's learned policy on validation
// traces and records its signal's per-step scores; the trigger never
// acts.
func (l *Lab) collectSignalScores(d *trace.Dataset, g *core.Guard, episodes int, seed uint64) []float64 {
	env := l.newEnv(l.cfg.EvalVideo, d.Val)
	rng := stats.NewRNG(seed)
	var scores []float64
	for ep := 0; ep < episodes; ep++ {
		g.Signal.Reset()
		mdp.Rollout(env, g.Learned, rng, mdp.RolloutOptions{
			OnStep: func(_ int, tr mdp.Transition) {
				scores = append(scores, g.Signal.Observe(tr.Obs))
			},
		})
	}
	return scores
}

// ExtensionTriggers calibrates each thresholding strategy on the U_V
// signal to ND's in-distribution QoE (the paper's fair-comparison rule)
// and evaluates it across the OOD test datasets.
func (l *Lab) ExtensionTriggers(trainDS string) (*ExtensionTriggersResult, error) {
	a, frozen, err := l.trained(trainDS)
	if err != nil {
		return nil, err
	}
	d := l.datasets[trainDS]
	seed := l.cfg.Seed ^ hashString(trainDS) ^ 0x7716

	// Every strategy's guard is the V-ensemble guard; Variance is the
	// paper's trigger with α = param, the others swap in a trigger over
	// a running statistic.
	newGuard := func(alpha float64) (*core.Guard, error) {
		return NewGuard(a.withAlpha(SchemeVEns, alpha), SchemeVEns, frozen.NewScratch(), Probation{})
	}

	// In-distribution U_V scores for the CUSUM reference.
	ref, err := newGuard(a.AlphaV)
	if err != nil {
		return nil, err
	}
	inScores := l.collectSignalScores(d, ref, l.cfg.CalibEpisodes, seed)

	// Guard builders per strategy, parameterized by the calibration
	// knob.
	builders := map[string]func(param float64) (*core.Guard, error){
		"Variance": newGuard,
		"EWMA": func(threshold float64) (*core.Guard, error) {
			g, err := newGuard(threshold)
			if err == nil {
				g.Trigger = core.NewTrigger(core.TriggerConfig{
					K: 5, Threshold: threshold, L: 1, Latched: true, Running: &core.Running{Weight: 0.2},
				})
			}
			return g, err
		},
		"CUSUM": func(hSigmas float64) (*core.Guard, error) {
			g, err := newGuard(hSigmas)
			if err == nil {
				g.Trigger = core.NewTrigger(core.CalibrateCUSUM(inScores, hSigmas, true))
			}
			return g, err
		},
	}

	res := &ExtensionTriggersResult{
		TrainDataset: trainDS,
		Norm:         map[string]map[string]float64{},
		Params:       map[string]float64{},
		Tests:        oodTests(trainDS),
	}
	for _, strategy := range TriggerStrategyNames() {
		var rows map[string]episodeMeans
		if res.Params[strategy], rows, err = l.calibratedOOD(a, seed^1, "/trig/"+strategy, builders[strategy]); err != nil {
			return nil, fmt.Errorf("experiments: calibrate %s trigger: %w", strategy, err)
		}
		res.Norm[strategy] = map[string]float64{}
		for te, m := range rows {
			res.Norm[strategy][te] = m.Norm
		}
	}
	return res, nil
}

// Render formats the extension as a text table.
func (r *ExtensionTriggersResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: thresholding strategies on the U_V signal (train = %s)\n", r.TrainDataset)
	fmt.Fprintf(&b, "%-12s%10s", "strategy", "param")
	for _, te := range r.Tests {
		fmt.Fprintf(&b, "%12s", te)
	}
	b.WriteByte('\n')
	for _, s := range TriggerStrategyNames() {
		fmt.Fprintf(&b, "%-12s%10.3g", s, r.Params[s])
		for _, te := range r.Tests {
			fmt.Fprintf(&b, "%12.2f", r.Norm[s][te])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

package experiments

import (
	"fmt"
	"strings"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/mdp"
	"osap/internal/rl"
	"osap/internal/stats"
)

// This file implements the paper's future-work directions (§5) as
// first-class experiments:
//
//   - "considering … other default policies": guards falling back to
//     BOLA and RobustMPC instead of BB (ExtensionDefaults);
//   - exploring additional uncertainty signals: random network
//     distillation as a learned alternative to the OC-SVM behind U_S
//     (ExtensionSignals).

// DefaultPolicyNames lists the default policies compared by
// ExtensionDefaults.
func DefaultPolicyNames() []string { return []string{"BB", "BOLA", "MPC"} }

// defaultPolicy instantiates a named default policy for the evaluation
// video.
func (l *Lab) defaultPolicy(name string) (mdp.Policy, error) {
	v := l.cfg.EvalVideo
	switch name {
	case "BB":
		return abr.NewBBPolicy(v.NumLevels()), nil
	case "BOLA":
		return abr.NewBolaPolicy(v.BitratesKbps, v.ChunkSec, 60), nil
	case "MPC":
		return abr.NewMPCPolicy(v, abr.DefaultQoE()), nil
	default:
		return nil, fmt.Errorf("experiments: unknown default policy %q", name)
	}
}

// ExtensionDefaultsResult compares default policies under the ND guard.
type ExtensionDefaultsResult struct {
	TrainDataset string
	// Norm[default][test] is the normalized QoE of the ND guard using
	// that default policy on the given OOD test dataset.
	Norm map[string]map[string]float64
	// RawDefault[default][test] is the unguarded default policy's own
	// normalized score, for reference.
	RawDefault map[string]map[string]float64
	Tests      []string
}

// ExtensionDefaults evaluates ND-guarded Pensieve with each default
// policy across all OOD test datasets for one training distribution.
func (l *Lab) ExtensionDefaults(trainDS string) (*ExtensionDefaultsResult, error) {
	a, frozen, err := l.trained(trainDS)
	if err != nil {
		return nil, err
	}
	res := &ExtensionDefaultsResult{
		TrainDataset: trainDS,
		Norm:         map[string]map[string]float64{},
		RawDefault:   map[string]map[string]float64{},
		Tests:        oodTests(trainDS),
	}
	for _, defName := range DefaultPolicyNames() {
		res.Norm[defName] = map[string]float64{}
		res.RawDefault[defName] = map[string]float64{}
		for _, te := range res.Tests {
			base, err := l.EvaluatePair(trainDS, te) // brings BB/Random anchors
			if err != nil {
				return nil, err
			}
			d, err := l.Dataset(te)
			if err != nil {
				return nil, err
			}
			def, err := l.defaultPolicy(defName)
			if err != nil {
				return nil, err
			}
			seed := l.cfg.Seed ^ hashString(trainDS+"→"+te+"/def/"+defName)

			// Guarded QoE.
			g, err := NewGuard(&a.Calibration, SchemeND, frozen.NewScratch(), Probation{})
			if err != nil {
				return nil, err
			}
			g.Default = def
			env := l.newEnv(l.cfg.EvalVideo, d.Test)
			guarded := core.MeanQoE(core.EvaluateGuard(env, g, stats.NewRNG(seed), l.cfg.EvalEpisodes))
			res.Norm[defName][te] = Normalize(guarded, base[SchemeRandom], base[SchemeBB])

			// The bare default policy for reference (MPC is stateful —
			// fresh instance per evaluation, reset per episode via the
			// policy's own state being re-derived from observations).
			rawEnv := l.newEnv(l.cfg.EvalVideo, d.Test)
			raw := stats.Mean(abr.EvaluatePolicy(rawEnv, def, stats.NewRNG(seed^1), l.cfg.EvalEpisodes))
			res.RawDefault[defName][te] = Normalize(raw, base[SchemeRandom], base[SchemeBB])
		}
	}
	return res, nil
}

// Render formats the extension as a text table.
func (r *ExtensionDefaultsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: ND guard with alternative default policies (train = %s, normalized: 0 = Random, 1 = BB)\n", r.TrainDataset)
	fmt.Fprintf(&b, "%-18s", "default\\test")
	for _, te := range r.Tests {
		fmt.Fprintf(&b, "%12s", te)
	}
	b.WriteByte('\n')
	for _, def := range DefaultPolicyNames() {
		fmt.Fprintf(&b, "guard→%-12s", def)
		for _, te := range r.Tests {
			fmt.Fprintf(&b, "%12.2f", r.Norm[def][te])
		}
		b.WriteByte('\n')
		fmt.Fprintf(&b, "bare  %-12s", def)
		for _, te := range r.Tests {
			fmt.Fprintf(&b, "%12.2f", r.RawDefault[def][te])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// rndArtifacts trains (or returns cached) an RND novelty model for a
// training dataset, fitted on the observations the deployed agent visits
// on its training traces.
func (l *Lab) rndArtifacts(trainDS string) (*rl.RND, error) {
	l.mu.Lock()
	if l.rnd == nil {
		l.rnd = map[string]*rl.RND{}
	}
	if r, ok := l.rnd[trainDS]; ok {
		l.mu.Unlock()
		return r, nil
	}
	l.mu.Unlock()

	a, err := l.Artifacts(trainDS)
	if err != nil {
		return nil, err
	}
	d, err := l.Dataset(trainDS)
	if err != nil {
		return nil, err
	}
	seed := l.cfg.Seed ^ hashString(trainDS) ^ 0x12d
	obs := rl.CollectObservations(
		l.envFactory(l.cfg.TrainVideo, d.Train),
		rl.GreedyPolicy{P: a.Agents[0]},
		l.cfg.OCSVMEpisodes, 0, seed)
	cfg := rl.DefaultRNDConfig()
	cfg.Net = l.cfg.Train.Net
	cfg.Seed = seed
	r, err := rl.TrainRND(obs, cfg)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.rnd[trainDS]; ok {
		return prev, nil
	}
	l.rnd[trainDS] = r
	return r, nil
}

// ExtensionSignalsResult compares the paper's ND (OC-SVM) signal against
// random network distillation as the state-novelty estimator.
type ExtensionSignalsResult struct {
	TrainDataset string
	// Norm[signal][test]: normalized OOD score ("ND", "RND",
	// "Pensieve").
	Norm  map[string]map[string]float64
	Tests []string
	// AlphaRND is the calibrated RND trigger threshold.
	AlphaRND float64
}

// ExtensionSignals evaluates an RND-signal guard next to the paper's ND
// guard. The RND guard uses the same variance-trigger shape as U_π/U_V
// and is calibrated to ND's in-distribution QoE, exactly as the paper
// calibrates its continuous signals (§2.5).
func (l *Lab) ExtensionSignals(trainDS string) (*ExtensionSignalsResult, error) {
	a, frozen, err := l.trained(trainDS)
	if err != nil {
		return nil, err
	}
	rnd, err := l.rndArtifacts(trainDS)
	if err != nil {
		return nil, err
	}
	seed := l.cfg.Seed ^ hashString(trainDS) ^ 0x516

	// The RND guard is the V-ensemble guard with RND as its signal.
	buildRNDGuard := func(alpha float64) (*core.Guard, error) {
		g, err := NewGuard(a.withAlpha(SchemeVEns, alpha), SchemeVEns, frozen.NewScratch(), Probation{})
		if err != nil {
			return nil, err
		}
		g.Signal = core.FuncSignal{F: rnd.Error, SignalName: "RND"}
		return g, nil
	}

	res := &ExtensionSignalsResult{
		TrainDataset: trainDS,
		Norm:         map[string]map[string]float64{"ND": {}, "RND": {}, "Pensieve": {}},
		Tests:        oodTests(trainDS),
	}
	res.AlphaRND, err = l.calibratedOOD(a, seed, "/rnd", buildRNDGuard,
		func(te string, q float64, _ []core.EpisodeResult) { res.Norm["RND"][te] = q })
	if err != nil {
		return nil, err
	}
	for _, te := range res.Tests {
		base, err := l.EvaluatePair(trainDS, te)
		if err != nil {
			return nil, err
		}
		res.Norm["ND"][te] = NormalizedScore(base, SchemeND)
		res.Norm["Pensieve"][te] = NormalizedScore(base, SchemePensieve)
	}
	return res, nil
}

// calibratedOOD measures a guard family as every extension does:
// build's parameter is calibrated to ND's in-distribution QoE on the
// validation traces of a's dataset (the paper's fair-comparison rule,
// §2.5; calibration RNG calibSeed), then the calibrated guard runs on
// every OOD test set under the RNG the pair and tag name, and each gets
// the test set, the guard's normalized score and its episodes.
func (l *Lab) calibratedOOD(a *Artifacts, calibSeed uint64, tag string, build func(param float64) (*core.Guard, error),
	each func(te string, norm float64, eps []core.EpisodeResult)) (float64, error) {
	d, err := l.Dataset(a.Dataset)
	if err != nil {
		return 0, err
	}
	calib, err := core.Calibrate(func(param float64) float64 {
		g, err := build(param)
		if err != nil {
			panic(err)
		}
		env := l.newEnv(l.cfg.EvalVideo, d.Val)
		return core.MeanQoE(core.EvaluateGuard(env, g, stats.NewRNG(calibSeed), l.cfg.CalibEpisodes))
	}, a.NDValQoE, 1e-6, 1e4, l.cfg.CalibIters)
	if err != nil {
		return 0, err
	}
	for _, te := range oodTests(a.Dataset) {
		base, err := l.EvaluatePair(a.Dataset, te)
		if err != nil {
			return 0, err
		}
		dt, err := l.Dataset(te)
		if err != nil {
			return 0, err
		}
		g, err := build(calib.Threshold)
		if err != nil {
			return 0, err
		}
		env := l.newEnv(l.cfg.EvalVideo, dt.Test)
		eps := core.EvaluateGuard(env, g, stats.NewRNG(l.cfg.Seed^hashString(a.Dataset+"→"+te+tag)), l.cfg.EvalEpisodes)
		each(te, Normalize(core.MeanQoE(eps), base[SchemeRandom], base[SchemeBB]), eps)
	}
	return calib.Threshold, nil
}

// oodTests lists the test datasets out of trainDS's distribution.
func oodTests(trainDS string) []string {
	var out []string
	for _, te := range datasetOrder() {
		if te != trainDS {
			out = append(out, te)
		}
	}
	return out
}

// Render formats the extension as a text table.
func (r *ExtensionSignalsResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension: OC-SVM (ND) vs random-network-distillation signal (train = %s, alpha_RND = %.3g)\n",
		r.TrainDataset, r.AlphaRND)
	fmt.Fprintf(&b, "%-12s", "signal\\test")
	for _, te := range r.Tests {
		fmt.Fprintf(&b, "%12s", te)
	}
	b.WriteByte('\n')
	for _, s := range []string{"Pensieve", "ND", "RND"} {
		fmt.Fprintf(&b, "%-12s", s)
		for _, te := range r.Tests {
			fmt.Fprintf(&b, "%12.2f", r.Norm[s][te])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

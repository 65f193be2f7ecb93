package experiments

import (
	"fmt"
	"strings"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/mdp"
	"osap/internal/rl"
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
		return abr.NewMPCPolicy(v), nil
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
	n := l.cfg.EvalEpisodes
	for _, defName := range DefaultPolicyNames() {
		res.Norm[defName] = map[string]float64{}
		res.RawDefault[defName] = map[string]float64{}
		for _, te := range res.Tests {
			base, err := l.EvaluatePair(trainDS, te) // brings BB/Random anchors
			if err != nil {
				return nil, err
			}
			tag := "/def/" + defName
			// One entry holds the guarded episodes, then the bare default's
			// for reference. Both runs share one default policy instance,
			// in that order, and MPC's error tracker (lastErr) carries
			// across all of them: it is not reset per episode (a ROADMAP
			// debt), so the two runs are filled together.
			eps, err := l.episodes(episodeKey{trainDS, te, tag}, func() ([]episode, error) {
				d := l.datasets[te]
				def, err := l.defaultPolicy(defName)
				if err != nil {
					return nil, err
				}
				g, err := NewGuard(&a.Calibration, SchemeND, frozen.NewScratch(), Probation{})
				if err != nil {
					return nil, err
				}
				g.Default = def
				seed := l.cfg.Seed ^ hashString(trainDS+"→"+te+tag)
				return append(l.play(d.Test, g, seed, n), l.play(d.Test, def, seed^1, n)...), nil
			})
			if err != nil {
				return nil, err
			}
			res.Norm[defName][te] = Normalize(meanOf(eps[:n]).QoE, base[SchemeRandom], base[SchemeBB])
			res.RawDefault[defName][te] = Normalize(meanOf(eps[n:]).QoE, base[SchemeRandom], base[SchemeBB])
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
	return cached(l, l.rnd, trainDS, func() (*rl.RND, error) {
		a, err := l.Artifacts(trainDS)
		if err != nil {
			return nil, err
		}
		d := l.datasets[trainDS]
		seed := l.cfg.Seed ^ hashString(trainDS) ^ 0x12d
		obs := rl.CollectObservations(
			l.envFactory(l.cfg.TrainVideo, d.Train),
			rl.GreedyPolicy{P: a.Agents[0]},
			l.cfg.OCSVMEpisodes, seed)
		cfg := rl.DefaultRNDConfig()
		cfg.Net = l.cfg.Train.Net
		cfg.Seed = seed
		return rl.TrainRND(obs, cfg)
	})
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
	var rows map[string]episodeMeans
	if res.AlphaRND, rows, err = l.calibratedOOD(a, seed, "/rnd", buildRNDGuard); err != nil {
		return nil, err
	}
	for _, te := range res.Tests {
		base, err := l.EvaluatePair(trainDS, te)
		if err != nil {
			return nil, err
		}
		res.Norm["RND"][te] = rows[te].Norm
		res.Norm["ND"][te] = NormalizedScore(base, SchemeND)
		res.Norm["Pensieve"][te] = NormalizedScore(base, SchemePensieve)
	}
	return res, nil
}

// calibratedOOD measures a guard family as every extension does:
// build's parameter is calibrated to ND's in-distribution QoE on the
// validation traces of a's dataset (the paper's fair-comparison rule,
// §2.5; calibration RNG calibSeed), then the calibrated guard plays
// every OOD test set under the RNG the pair and variant name, into the
// episode table under variant. It returns the calibrated parameter and,
// per test set, the means of its entry, normalized on the pair's scale.
func (l *Lab) calibratedOOD(a *Artifacts, calibSeed uint64, variant string, build func(param float64) (*core.Guard, error)) (float64, map[string]episodeMeans, error) {
	d := l.datasets[a.Dataset]
	calib, err := core.Calibrate(func(param float64) float64 {
		g, err := build(param)
		if err != nil {
			panic(err)
		}
		return meanOf(l.play(d.Val, g, calibSeed, l.cfg.CalibEpisodes)).QoE
	}, a.NDValQoE, 1e-6, 1e4, l.cfg.CalibIters)
	if err != nil {
		return 0, nil, err
	}
	rows := map[string]episodeMeans{}
	for _, te := range oodTests(a.Dataset) {
		base, err := l.EvaluatePair(a.Dataset, te)
		if err != nil {
			return 0, nil, err
		}
		eps, err := l.episodes(episodeKey{a.Dataset, te, variant}, func() ([]episode, error) {
			g, err := build(calib.Threshold)
			if err != nil {
				return nil, err
			}
			return l.play(l.datasets[te].Test, g, l.cfg.Seed^hashString(a.Dataset+"→"+te+variant), l.cfg.EvalEpisodes), nil
		})
		if err != nil {
			return 0, nil, err
		}
		m := meanOf(eps)
		m.Norm = Normalize(m.QoE, base[SchemeRandom], base[SchemeBB])
		rows[te] = m
	}
	return calib.Threshold, rows, nil
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
	return grid(fmt.Sprintf("Extension: OC-SVM (ND) vs random-network-distillation signal (train = %s, alpha_RND = %.3g)\n",
		r.TrainDataset, r.AlphaRND), "signal\\test", r.Tests, []string{"Pensieve", "ND", "RND"},
		func(s, te string) float64 { return r.Norm[s][te] })
}

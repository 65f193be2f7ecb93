package experiments

import (
	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/stats"
)

// EvaluatePair measures the mean QoE of every scheme with artifacts
// trained on trainDS, streaming over testDS's test traces. Results are
// cached per pair, single-flight: concurrent callers of the same pair
// share one evaluation.
func (l *Lab) EvaluatePair(trainDS, testDS string) (map[string]float64, error) {
	key := trainDS + "→" + testDS
	l.mu.Lock()
	e, ok := l.pairs[key]
	if !ok {
		e = &pairEntry{}
		l.pairs[key] = e
	}
	l.mu.Unlock()

	e.once.Do(func() {
		e.r, e.err = l.evaluatePair(key, trainDS, testDS)
		if e.err != nil {
			l.mu.Lock()
			if l.pairs[key] == e {
				delete(l.pairs, key)
			}
			l.mu.Unlock()
		}
	})
	return e.r, e.err
}

// evaluatePair runs the actual per-pair measurement. Every policy,
// guard, env and RNG is constructed fresh here, so concurrent pairs
// share nothing but the (immutable) artifacts.
func (l *Lab) evaluatePair(key, trainDS, testDS string) (map[string]float64, error) {
	a, frozen, err := l.trained(trainDS)
	if err != nil {
		return nil, err
	}
	d, err := l.Dataset(testDS)
	if err != nil {
		return nil, err
	}

	seed := l.cfg.Seed ^ hashString(key)
	episodes := l.cfg.EvalEpisodes
	out := make(map[string]float64, len(Schemes()))

	// Baselines and vanilla Pensieve share the plain-policy path.
	levels := l.cfg.EvalVideo.NumLevels()
	plain := map[string]interface {
		Probs([]float64) []float64
	}{
		SchemePensieve: frozen.NewScratch().Greedy(),
		SchemeBB:       abr.NewBBPolicy(levels),
		SchemeRandom:   abr.RandomPolicy{Levels: levels},
	}
	for name, policy := range plain {
		env := l.newEnv(l.cfg.EvalVideo, d.Test)
		rng := stats.NewRNG(seed ^ hashString(name))
		out[name] = stats.Mean(abr.EvaluatePolicy(env, policy, rng, episodes))
	}

	// The three guarded schemes.
	for _, name := range GuardSchemes() {
		g, err := NewGuard(&a.Calibration, name, frozen.NewScratch(), Probation{})
		if err != nil {
			return nil, err
		}
		env := l.newEnv(l.cfg.EvalVideo, d.Test)
		rng := stats.NewRNG(seed ^ hashString(name))
		out[name] = core.MeanQoE(core.EvaluateGuard(env, g, rng, episodes))
	}

	l.logf("[%s] evaluated: Pensieve=%.1f ND=%.1f A=%.1f V=%.1f BB=%.1f Rand=%.1f",
		key, out[SchemePensieve], out[SchemeND], out[SchemeAEns], out[SchemeVEns],
		out[SchemeBB], out[SchemeRandom])
	return out, nil
}

// Normalize maps a raw QoE onto the paper's normalized scale for a pair
// evaluation: 0 = Random's QoE, 1 = BB's QoE. If BB and Random tie the
// result is 0 by convention.
func Normalize(qoe, random, bb float64) float64 {
	den := bb - random
	if den == 0 {
		return 0
	}
	return (qoe - random) / den
}

// NormalizedScore returns a scheme's normalized score within a pair's
// results.
func NormalizedScore(pair map[string]float64, scheme string) float64 {
	return Normalize(pair[scheme], pair[SchemeRandom], pair[SchemeBB])
}

// PairList enumerates (train, test) combinations. inDistribution selects
// the 6 matched pairs; otherwise the 30 OOD pairs.
func PairList(inDistribution bool) [][2]string {
	names := datasetOrder()
	var out [][2]string
	for _, tr := range names {
		for _, te := range names {
			if (tr == te) == inDistribution {
				out = append(out, [2]string{tr, te})
			}
		}
	}
	return out
}

// datasetOrder returns the canonical presentation order.
func datasetOrder() []string {
	return []string{"norway", "belgium", "gamma12", "gamma22", "logistic", "exponential"}
}

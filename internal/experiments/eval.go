package experiments

import (
	"osap/internal/abr"
	"osap/internal/mdp"
)

// EvaluatePair measures the mean QoE of every scheme with artifacts
// trained on trainDS, streaming over testDS's test traces: each is a
// mean over the scheme's entry in the episode table, which is played on
// first request. Every policy, guard and RNG is built fresh for its
// entry, so concurrent pairs share nothing but the immutable artifacts.
func (l *Lab) EvaluatePair(trainDS, testDS string) (map[string]float64, error) {
	a, frozen, err := l.trained(trainDS)
	if err != nil {
		return nil, err
	}
	d, err := l.Dataset(testDS)
	if err != nil {
		return nil, err
	}
	seed := l.cfg.Seed ^ hashString(trainDS+"→"+testDS)
	levels := l.cfg.EvalVideo.NumLevels()
	out := make(map[string]float64, len(Schemes()))
	for _, name := range Schemes() {
		eps, err := l.episodes(episodeKey{trainDS, testDS, name}, func() ([]episode, error) {
			var p mdp.Policy
			switch name {
			case SchemePensieve:
				p = frozen.NewScratch().Greedy()
			case SchemeBB:
				p = abr.NewBBPolicy(levels)
			case SchemeRandom:
				p = abr.RandomPolicy{Levels: levels}
			default:
				g, err := NewGuard(&a.Calibration, name, frozen.NewScratch(), Probation{})
				if err != nil {
					return nil, err
				}
				p = g
			}
			return l.play(d.Test, p, seed^hashString(name), l.cfg.EvalEpisodes), nil
		})
		if err != nil {
			return nil, err
		}
		out[name] = meanOf(eps).QoE
	}
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

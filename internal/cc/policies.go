package cc

import (
	"osap/internal/mdp"
)

// AIMDPolicy is the safe default for the congestion-control case study:
// a classical additive-increase/multiplicative-decrease-style controller
// expressed over the discrete rate-factor action set. It backs off
// multiplicatively on congestion evidence (queueing latency or loss) and
// probes gently otherwise — the congestion-control analogue of the ABR
// study's Buffer-Based heuristic: simple, slow, and safe everywhere.
type AIMDPolicy struct {
	// HistoryLen must match the environment's observation depth.
	HistoryLen int
	// LatencyBackoff is the latency ratio above which the controller
	// backs off (1.15 default).
	LatencyBackoff float64
}

// NewAIMDPolicy returns the default configuration.
func NewAIMDPolicy(historyLen int) *AIMDPolicy {
	return &AIMDPolicy{HistoryLen: historyLen, LatencyBackoff: 1.15}
}

// action indices into RateFactors.
const (
	actHalve  = 0 // ×0.5
	actBack   = 1 // ×0.8
	actHold   = 2 // ×1.0
	actProbe  = 3 // ×1.25
	actDouble = 4 // ×2.0
)

// Probs implements mdp.Policy.
func (p *AIMDPolicy) Probs(obs []float64) []float64 {
	lat := LatencyRatioFromObs(obs, p.HistoryLen)
	loss := LossRateFromObs(obs, p.HistoryLen)
	switch {
	case loss > 0.05:
		return mdp.OneHot(len(RateFactors), actHalve)
	case loss > 0 || lat > p.LatencyBackoff:
		return mdp.OneHot(len(RateFactors), actBack)
	case lat <= 1.02:
		// No queueing at all: probe.
		return mdp.OneHot(len(RateFactors), actProbe)
	default:
		return mdp.OneHot(len(RateFactors), actHold)
	}
}

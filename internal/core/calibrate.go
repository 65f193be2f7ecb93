package core

import (
	"fmt"
	"math"

	"osap/internal/stats"
)

// CalibrationResult reports the threshold chosen by Calibrate and the
// performance it achieved on the calibration workload.
type CalibrationResult struct {
	Threshold   float64
	AchievedQoE float64
	Evaluations int
	// Bound names the end of the range, "lo" or "hi", that a target
	// out of reach pinned Threshold to ("" when bracketed).
	Bound string
}

// Calibrate chooses the defaulting threshold α for a variance-mode
// trigger so that the guarded system matches targetQoE on the training
// distribution — the paper's fair-comparison rule (§2.5): U_π- and
// U_V-based schemes are "calibrated to attain the same performance when
// μ_train = μ_test" as the ND scheme.
//
// eval must return the mean in-distribution QoE of the guarded system
// when its trigger threshold is set to the given α. Because a larger α
// means fewer defaults (performance closer to the raw learned policy,
// which dominates in-distribution), eval is assumed monotonically
// non-decreasing in α. Calibrate evaluates lo, then hi, and then
// bisects log α iters times (12 when iters < 1). It returns the
// smallest α it found whose QoE reaches targetQoE, or the endpoint,
// named in Bound, when the target is out of range: lo when lo already
// reaches it, hi when even hi does not.
func Calibrate(eval func(alpha float64) float64, targetQoE, lo, hi float64, iters int) (CalibrationResult, error) {
	if lo <= 0 || hi <= lo {
		return CalibrationResult{}, fmt.Errorf("core: calibration range [%v, %v] invalid (need 0 < lo < hi)", lo, hi)
	}
	if iters < 1 {
		iters = 12
	}
	evals := 0
	call := func(a float64) float64 {
		evals++
		return eval(a)
	}

	qLo := call(lo)
	if qLo >= targetQoE {
		// Even the most trigger-happy threshold meets the target; take
		// it (safest choice).
		return CalibrationResult{Threshold: lo, AchievedQoE: qLo, Evaluations: evals, Bound: "lo"}, nil
	}
	qHi := call(hi)
	if qHi < targetQoE {
		// Even never-defaulting misses the target; α = hi is as close
		// as this signal gets.
		return CalibrationResult{Threshold: hi, AchievedQoE: qHi, Evaluations: evals, Bound: "hi"}, nil
	}

	// Bisect on log(α): smallest α with eval(α) ≥ target.
	lgLo, lgHi := math.Log(lo), math.Log(hi)
	achieved := qHi
	for i := 0; i < iters; i++ {
		mid := math.Exp((lgLo + lgHi) / 2)
		q := call(mid)
		if q >= targetQoE {
			lgHi = math.Log(mid)
			achieved = q
		} else {
			lgLo = math.Log(mid)
		}
	}
	return CalibrationResult{
		Threshold:   math.Exp(lgHi),
		AchievedQoE: achieved,
		Evaluations: evals,
	}, nil
}

// CalibrateCUSUM derives a CUSUM trigger (L = 1) from in-distribution
// scores: μ₀ = mean, κ = half a standard deviation, H = hSigmas
// standard deviations (a standard parameterization).
func CalibrateCUSUM(inDistScores []float64, hSigmas float64, latched bool) TriggerConfig {
	mu := stats.Mean(inDistScores)
	sigma := stats.Std(inDistScores)
	if sigma < 1e-9 {
		sigma = math.Max(1e-9, math.Abs(mu)*0.1+1e-9)
	}
	if hSigmas <= 0 {
		hSigmas = 5
	}
	return TriggerConfig{
		Threshold: hSigmas * sigma,
		L:         1,
		Latched:   latched,
		Running:   &Running{CUSUM: true, Ref: mu, Slack: sigma / 2},
	}
}

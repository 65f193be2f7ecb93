package trace

import (
	"fmt"
	"strings"

	"osap/internal/stats"
)

// Analysis summarizes a trace's statistical character — the quantities
// that distinguish the six evaluation datasets from one another (and
// that the U_S features ultimately key on).
type Analysis struct {
	Name        string
	DurationSec int
	MeanMbps    float64
	StdMbps     float64
	MinMbps     float64
	MaxMbps     float64
	// CV is the coefficient of variation (std/mean).
	CV float64
	// AutocorrLag1 is the lag-1 autocorrelation: ~0 for the i.i.d.
	// synthetic traces, high for the smooth Belgium-like traces.
	AutocorrLag1 float64
	// OutageFraction is the fraction of seconds below OutageThreshold.
	OutageFraction float64
	// P10/P50/P90 are capacity percentiles.
	P10, P50, P90 float64
}

// OutageThresholdMbps defines an outage second for OutageFraction.
const OutageThresholdMbps = 0.3

// Analyze computes an Analysis of a trace.
func Analyze(t *Trace) Analysis {
	a := Analysis{
		Name:        t.Name,
		DurationSec: len(t.Mbps),
		MeanMbps:    t.Mean(),
		StdMbps:     t.Std(),
		MinMbps:     stats.Min(t.Mbps),
		MaxMbps:     stats.Max(t.Mbps),
		P10:         stats.Quantile(t.Mbps, 0.1),
		P50:         stats.Quantile(t.Mbps, 0.5),
		P90:         stats.Quantile(t.Mbps, 0.9),
	}
	if a.MeanMbps > 0 {
		a.CV = a.StdMbps / a.MeanMbps
	}
	a.AutocorrLag1 = Autocorrelation(t.Mbps, 1)
	outages := 0
	for _, v := range t.Mbps {
		if v < OutageThresholdMbps {
			outages++
		}
	}
	if len(t.Mbps) > 0 {
		a.OutageFraction = float64(outages) / float64(len(t.Mbps))
	}
	return a
}

// Autocorrelation returns the sample autocorrelation of xs at the given
// lag (0 for degenerate inputs).
func Autocorrelation(xs []float64, lag int) float64 {
	if lag <= 0 || len(xs) <= lag {
		return 0
	}
	mean := stats.Mean(xs)
	var num, den float64
	for i := range xs {
		d := xs[i] - mean
		den += d * d
		if i+lag < len(xs) {
			num += d * (xs[i+lag] - mean)
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// String renders the analysis as a one-line report.
func (a Analysis) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %ds, mean %.2f Mbps (std %.2f, CV %.2f), p10/p50/p90 %.2f/%.2f/%.2f, "+
		"lag-1 autocorr %.2f, outage %.1f%%",
		a.Name, a.DurationSec, a.MeanMbps, a.StdMbps, a.CV,
		a.P10, a.P50, a.P90, a.AutocorrLag1, 100*a.OutageFraction)
	return b.String()
}

package trace

import (
	"fmt"
	"math"

	"osap/internal/stats"
)

// The trace transforms below are called by no shipping code; only this
// package's unit tests use them, so they live in a test file and the
// package's non-test code keeps no function without a caller.

// Scale returns a copy with every sample multiplied by factor.
func (t *Trace) Scale(factor float64) *Trace {
	out := &Trace{Name: t.Name, Mbps: make([]float64, len(t.Mbps))}
	for i, v := range t.Mbps {
		out.Mbps[i] = v * factor
	}
	return out
}

// Clip returns a copy with every sample clamped into [lo, hi].
func (t *Trace) Clip(lo, hi float64) *Trace {
	out := &Trace{Name: t.Name, Mbps: make([]float64, len(t.Mbps))}
	for i, v := range t.Mbps {
		out.Mbps[i] = math.Min(math.Max(v, lo), hi)
	}
	return out
}

// Jitter returns a copy of t with multiplicative lognormal noise of the
// given sigma applied per second — a trace transform for robustness
// experiments.
func (t *Trace) Jitter(rng *stats.RNG, sigma float64) *Trace {
	out := &Trace{Name: t.Name + "+jitter", Mbps: make([]float64, len(t.Mbps))}
	noise := stats.LogNormal{Mu: 0, Sigma: sigma}
	for i, v := range t.Mbps {
		out.Mbps[i] = v * noise.Sample(rng)
	}
	return out
}

// Speedup returns a copy of t resampled by the given time factor
// (factor 2 plays the trace twice as fast, halving its duration;
// factor 0.5 stretches it). Capacity values are taken by nearest
// sampling. It panics on a non-positive factor.
func (t *Trace) Speedup(factor float64) *Trace {
	if factor <= 0 {
		panic("trace: Speedup factor must be positive")
	}
	n := int(math.Max(1, math.Round(float64(len(t.Mbps))/factor)))
	out := &Trace{Name: fmt.Sprintf("%s@x%g", t.Name, factor), Mbps: make([]float64, n)}
	for i := 0; i < n; i++ {
		src := int(float64(i) * factor)
		if src >= len(t.Mbps) {
			src = len(t.Mbps) - 1
		}
		out.Mbps[i] = t.Mbps[src]
	}
	return out
}

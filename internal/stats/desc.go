package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n), or 0
// for slices with fewer than two elements.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return ss / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// AllFinite reports whether no element of xs is NaN or ±Inf.
//
//osap:hotpath
func AllFinite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs, or 0 for an empty slice.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quantile returns the q-quantile (0 <= q <= 1) of xs using linear
// interpolation between order statistics. It copies and sorts the input.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the descriptive statistics reported in the paper's
// Figure 4 (max, min, mean, median) plus count and std.
type Summary struct {
	N      int
	Min    float64
	Max    float64
	Mean   float64
	Median float64
	Std    float64
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	return Summary{
		N:      len(xs),
		Min:    Min(xs),
		Max:    Max(xs),
		Mean:   Mean(xs),
		Median: Median(xs),
		Std:    Std(xs),
	}
}

// Welford accumulates mean and variance online in a single pass, in a
// numerically stable way. The zero value is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// RollingWindow keeps the most recent Cap observations and reports their
// mean/variance. It is the smoothing primitive behind the paper's
// "variance of the signal across the last k time steps" thresholding rule
// and the [mean, deviation] throughput features fed to the OC-SVM.
type RollingWindow struct {
	cap  int
	buf  []float64
	next int
	full bool
}

// NewRollingWindow returns a window holding up to cap observations.
// It panics if cap <= 0.
func NewRollingWindow(cap int) *RollingWindow {
	if cap <= 0 {
		panic("stats: RollingWindow capacity must be positive")
	}
	return &RollingWindow{cap: cap, buf: make([]float64, 0, cap)}
}

// Add appends an observation, evicting the oldest if the window is full.
func (rw *RollingWindow) Add(x float64) {
	if len(rw.buf) < rw.cap {
		rw.buf = append(rw.buf, x)
		if len(rw.buf) == rw.cap {
			rw.full = true
		}
		return
	}
	rw.buf[rw.next] = x
	rw.next = (rw.next + 1) % rw.cap
}

// Len returns the number of observations currently held.
func (rw *RollingWindow) Len() int { return len(rw.buf) }

// Full reports whether the window has reached capacity at least once.
func (rw *RollingWindow) Full() bool { return rw.full }

// ValuesInto fills dst — resliced to empty first, so any previous
// contents are discarded — with the window contents ordered oldest to
// newest, and returns the filled slice. Passing a reused buffer makes
// the call allocation-free once it has window capacity.
//
//osap:hotpath
func (rw *RollingWindow) ValuesInto(dst []float64) []float64 {
	dst = dst[:0]
	if len(rw.buf) < rw.cap {
		return append(dst, rw.buf...)
	}
	dst = append(dst, rw.buf[rw.next:]...)
	return append(dst, rw.buf[:rw.next]...)
}

// Mean returns the mean of the window contents.
func (rw *RollingWindow) Mean() float64 { return Mean(rw.buf) }

// Variance returns the population variance of the window contents.
func (rw *RollingWindow) Variance() float64 { return Variance(rw.buf) }

// Std returns the population standard deviation of the window contents.
func (rw *RollingWindow) Std() float64 { return Std(rw.buf) }

// Reset empties the window.
func (rw *RollingWindow) Reset() {
	rw.buf = rw.buf[:0]
	rw.next = 0
	rw.full = false
}

// BootstrapCI estimates a percentile bootstrap confidence interval for a
// statistic of xs, using resamples draws seeded by rng. conf is the
// confidence level (e.g. 0.95). It returns the (lo, hi) bounds; for
// fewer than 2 observations it returns the degenerate interval at the
// statistic itself.
func BootstrapCI(xs []float64, stat func([]float64) float64, resamples int, conf float64, rng *RNG) (lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	if len(xs) < 2 || resamples < 2 {
		v := stat(xs)
		return v, v
	}
	estimates := make([]float64, resamples)
	sample := make([]float64, len(xs))
	for r := 0; r < resamples; r++ {
		for i := range sample {
			sample[i] = xs[rng.Intn(len(xs))]
		}
		estimates[r] = stat(sample)
	}
	alpha := (1 - conf) / 2
	return Quantile(estimates, alpha), Quantile(estimates, 1-alpha)
}

package stats

import "math"

// The functions below are called by no shipping code; only this
// package's unit tests use them, so they live in a test file and the
// package's non-test code keeps no function without a caller.

// SampleVariance returns the unbiased sample variance of xs (dividing by
// n-1), or 0 for slices with fewer than two elements.
func SampleVariance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	return Variance(xs) * float64(len(xs)) / float64(len(xs)-1)
}

// Points returns the (x, F(x)) step points of the ECDF, one per distinct
// sample value, suitable for plotting or tabulating.
func (e *ECDF) Points() (xs, fs []float64) {
	n := len(e.sorted)
	for i := 0; i < n; i++ {
		if i+1 < n && e.sorted[i+1] == e.sorted[i] {
			continue
		}
		xs = append(xs, e.sorted[i])
		fs = append(fs, float64(i+1)/float64(n))
	}
	return xs, fs
}

// Entropy returns the Shannon entropy of p in nats.
func Entropy(p []float64) float64 {
	var h float64
	for _, pi := range p {
		if pi > klEps {
			h -= pi * math.Log(pi)
		}
	}
	return h
}

// Normalize scales xs in place so it sums to 1, returning xs. If the sum
// is not positive it returns the uniform distribution instead.
func Normalize(xs []float64) []float64 {
	var sum float64
	for _, x := range xs {
		sum += x
	}
	if sum <= 0 {
		u := 1 / float64(len(xs))
		for i := range xs {
			xs[i] = u
		}
		return xs
	}
	for i := range xs {
		xs[i] /= sum
	}
	return xs
}

package stats

import "math"

// klEps floors probabilities when computing KL divergence so that
// zero-probability entries (which neural softmax outputs approach but
// never reach exactly, and which averaged ensemble outputs can produce
// after trimming) do not yield infinities.
const klEps = 1e-12

// KLDivergence returns D_KL(p || q) in nats for two discrete
// distributions given as probability vectors of equal length. Entries are
// floored at a small epsilon. It panics if the lengths differ.
func KLDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		panic("stats: KLDivergence length mismatch")
	}
	var d float64
	for i := range p {
		pi := math.Max(p[i], klEps)
		qi := math.Max(q[i], klEps)
		d += pi * math.Log(pi/qi)
	}
	return d
}

// MeanDistributionInto writes the element-wise average of the given
// probability vectors — the ensemble-mean action distribution ā used by
// the U_π uncertainty signal — into a caller-owned buffer of length
// len(dists[0]), for allocation-free hot paths, and returns it. It
// panics if dists is empty or lengths differ.
func MeanDistributionInto(mean []float64, dists [][]float64) []float64 {
	if len(dists) == 0 {
		panic("stats: MeanDistribution of empty set")
	}
	n := len(dists[0])
	if len(mean) != n {
		panic("stats: MeanDistributionInto buffer length mismatch")
	}
	for i := range mean {
		mean[i] = 0
	}
	for _, d := range dists {
		if len(d) != n {
			panic("stats: MeanDistribution length mismatch")
		}
		for i, v := range d {
			mean[i] += v
		}
	}
	inv := 1 / float64(len(dists))
	for i := range mean {
		mean[i] *= inv
	}
	return mean
}

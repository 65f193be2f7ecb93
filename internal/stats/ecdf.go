package stats

import "sort"

// ECDF is an empirical cumulative distribution function built from a
// sample. It backs the paper's Figure 5 (CDF of normalized performance
// across the 30 OOD training/test pairs).
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from xs (copied and sorted).
func NewECDF(xs []float64) *ECDF {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X <= x) under the empirical distribution.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// Index of the first element > x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

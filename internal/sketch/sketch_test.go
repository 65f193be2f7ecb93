package sketch

import (
	"math"
	"sort"
	"testing"

	"osap/internal/stats"
)

// refQuantile is the sequential reference: exact quantile of the
// sorted sample (nearest-rank with interpolation, matching the
// sketch's continuous convention closely enough for rank-error
// comparison).
func refQuantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(i)
	return sorted[i] + (sorted[i+1]-sorted[i])*frac
}

// rankOf returns the fraction of sample points ≤ x.
func rankOf(sorted []float64, x float64) float64 {
	return float64(sort.SearchFloat64s(sorted, x)) / float64(len(sorted))
}

// checkRankError asserts the sketch's estimate at q lands within tol
// rank error of the reference sample.
func checkRankError(t *testing.T, name string, s *Sketch, sorted []float64, q, tol float64) {
	t.Helper()
	est := s.Quantile(q)
	if math.IsNaN(est) {
		t.Fatalf("%s: Quantile(%g) = NaN", name, q)
	}
	gotRank := rankOf(sorted, est)
	if diff := math.Abs(gotRank - q); diff > tol {
		t.Errorf("%s: q=%g estimate %g has rank %g (rank error %g > %g); ref value %g",
			name, q, est, gotRank, diff, tol, refQuantile(sorted, q))
	}
}

func sampleStreams(n int) map[string][]float64 {
	rng := stats.NewRNG(20200713)
	uniform := make([]float64, n)
	normal := make([]float64, n)
	heavy := make([]float64, n)
	for i := 0; i < n; i++ {
		uniform[i] = rng.Float64() * 100
		normal[i] = 5 + 2*rng.NormFloat64()
		heavy[i] = math.Exp(rng.NormFloat64() * 2)
	}
	return map[string][]float64{"uniform": uniform, "normal": normal, "lognormal": heavy}
}

func TestQuantileAccuracy(t *testing.T) {
	for name, data := range sampleStreams(100_000) {
		s := New(DefaultCompression)
		for _, x := range data {
			s.Add(x)
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		checkRankError(t, name, s, sorted, 0.5, 0.02)
		checkRankError(t, name, s, sorted, 0.9, 0.01)
		checkRankError(t, name, s, sorted, 0.99, 0.005)
		checkRankError(t, name, s, sorted, 0.01, 0.005)
		if got := s.Quantile(0); got != sorted[0] {
			t.Errorf("%s: Quantile(0) = %g, want min %g", name, got, sorted[0])
		}
		if got := s.Quantile(1); got != sorted[len(sorted)-1] {
			t.Errorf("%s: Quantile(1) = %g, want max %g", name, got, sorted[len(sorted)-1])
		}
		if s.Count() != uint64(len(data)) {
			t.Errorf("%s: Count = %d, want %d", name, s.Count(), len(data))
		}
	}
}

// TestMergeAccuracy shards the stream, merges in ascending shard
// order, and checks the merged quantiles against the full sample.
func TestMergeAccuracy(t *testing.T) {
	for name, data := range sampleStreams(80_000) {
		const shards = 8
		parts := make([]*Sketch, shards)
		for i := range parts {
			parts[i] = New(DefaultCompression)
		}
		for i, x := range data {
			parts[i%shards].Add(x)
		}
		merged := New(DefaultCompression)
		for _, p := range parts {
			p.MergeInto(merged)
		}
		if merged.Count() != uint64(len(data)) {
			t.Fatalf("%s: merged count %d, want %d", name, merged.Count(), len(data))
		}
		sorted := append([]float64(nil), data...)
		sort.Float64s(sorted)
		checkRankError(t, name, merged, sorted, 0.5, 0.03)
		checkRankError(t, name, merged, sorted, 0.99, 0.01)
	}
}

// TestDeterministicMerge: identical observation order and identical
// merge order must produce bit-identical digests and quantiles.
func TestDeterministicMerge(t *testing.T) {
	build := func() *Sketch {
		rng := stats.NewRNG(7)
		parts := make([]*Sketch, 4)
		for i := range parts {
			parts[i] = New(50)
		}
		for i := 0; i < 50_000; i++ {
			parts[i%4].Add(rng.NormFloat64())
		}
		merged := New(50)
		for _, p := range parts {
			p.MergeInto(merged)
		}
		merged.compress()
		return merged
	}
	a, b := build(), build()
	if a.nc != b.nc {
		t.Fatalf("centroid counts differ: %d vs %d", a.nc, b.nc)
	}
	for i := 0; i < a.nc; i++ {
		if math.Float64bits(a.cm[i]) != math.Float64bits(b.cm[i]) ||
			math.Float64bits(a.cw[i]) != math.Float64bits(b.cw[i]) {
			t.Fatalf("centroid %d differs: (%g,%g) vs (%g,%g)", i, a.cm[i], a.cw[i], b.cm[i], b.cw[i])
		}
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if math.Float64bits(a.Quantile(q)) != math.Float64bits(b.Quantile(q)) {
			t.Fatalf("Quantile(%g) differs between identical builds", q)
		}
	}
}

// TestMergeUntouchedSource: MergeInto must not mutate the source (the
// scrape path merges live shards).
func TestMergeUntouchedSource(t *testing.T) {
	src := New(50)
	rng := stats.NewRNG(11)
	for i := 0; i < 10_000; i++ {
		src.Add(rng.Float64())
	}
	nc, bn, total := src.nc, src.bn, src.total
	dst := New(50)
	src.MergeInto(dst)
	if src.nc != nc || src.bn != bn || src.total != total {
		t.Fatalf("MergeInto mutated source: nc %d→%d bn %d→%d total %g→%g",
			nc, src.nc, bn, src.bn, total, src.total)
	}
}

func TestNonFiniteDropped(t *testing.T) {
	s := New(0)
	s.Add(math.NaN())
	s.Add(math.Inf(1))
	s.AddWeighted(1, -3)
	s.AddWeighted(1, math.NaN())
	s.Add(2)
	if s.Count() != 1 || s.Dropped() != 4 {
		t.Fatalf("count %d dropped %d, want 1 and 4", s.Count(), s.Dropped())
	}
	if got := s.Quantile(0.5); got != 2 {
		t.Fatalf("Quantile(0.5) = %g, want 2", got)
	}
}

func TestEmptyAndTiny(t *testing.T) {
	s := New(0)
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Fatalf("empty sketch Quantile = %g, want NaN", s.Quantile(0.5))
	}
	s.Add(7)
	for _, q := range []float64{0, 0.5, 1} {
		if got := s.Quantile(q); got != 7 {
			t.Fatalf("single-point Quantile(%g) = %g, want 7", q, got)
		}
	}
}

// TestAddZeroAlloc locks the //osap:hotpath contract: steady-state
// Add (including its amortized compressions) allocates nothing.
func TestAddZeroAlloc(t *testing.T) {
	s := New(DefaultCompression)
	rng := stats.NewRNG(3)
	for i := 0; i < 10_000; i++ {
		s.Add(rng.NormFloat64()) // warm past initial growth
	}
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	i := 0
	allocs := testing.AllocsPerRun(4096, func() {
		s.Add(vals[i&4095])
		i++
	})
	if allocs != 0 {
		t.Fatalf("Add allocates %.2f per run, want 0", allocs)
	}
}

func BenchmarkAdd(b *testing.B) {
	s := New(DefaultCompression)
	rng := stats.NewRNG(5)
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(vals[i&4095])
	}
}

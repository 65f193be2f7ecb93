package abr

import "testing"

// TestFallbackPathZeroAlloc pins the //osap:hotpath contracts of the
// observation accessors and the BB level rule — together they are the
// guard's per-step fallback decision (experiments' bbDefault writes the
// one-hot into a guard-owned buffer around them).
func TestFallbackPathZeroAlloc(t *testing.T) {
	obs := make([]float64, ObsDim)
	obs[obsIndex(rowBuffer, HistoryLen-1)] = 0.7
	obs[obsIndex(rowThroughput, HistoryLen-1)] = 0.3
	bb := NewBBPolicy(6)
	var lvl int
	var thr float64
	allocs := testing.AllocsPerRun(1000, func() {
		lvl = bb.Level(BufferSecFromObs(obs))
		thr = LastThroughputMbps(obs)
	})
	if allocs != 0 {
		t.Fatalf("fallback path allocated %.1f times per run, want 0", allocs)
	}
	if lvl < 0 || lvl >= 6 {
		t.Fatalf("BB level %d out of range", lvl)
	}
	if thr <= 0 {
		t.Fatalf("LastThroughputMbps = %v, want > 0", thr)
	}
}

package ocsvm

import (
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"osap/internal/stats"
)

// naiveDecision is the textbook formulation Decision's cached-norm
// expansion replaced.
func naiveDecision(m *Model, x []float64) float64 {
	var s float64
	for i, sv := range m.SVs {
		s += m.Alpha[i] * rbf(m.Gamma, sv, x)
	}
	return s - m.Rho
}

// TestDecisionMatchesNaiveKernel bounds the rounding difference between
// the norm-expansion decision and the direct ‖x−sv‖² evaluation.
func TestDecisionMatchesNaiveKernel(t *testing.T) {
	rng := stats.NewRNG(21)
	train := gaussianCloud(rng, 300, 4, 0, 1)
	m, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		x := gaussianCloud(rng, 1, 4, 0, 3)[0]
		got := m.Decision(x)
		want := naiveDecision(m, x)
		if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("trial %d: Decision = %v, naive = %v", trial, got, want)
		}
	}
}

// TestTrainWorkerCountInvariant checks the parallel kernel construction
// produces bit-identical models for any worker count: the pool is
// GOMAXPROCS wide, so the test varies GOMAXPROCS.
func TestTrainWorkerCountInvariant(t *testing.T) {
	rng := stats.NewRNG(22)
	train := gaussianCloud(rng, 200, 3, 0, 1)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))

	var models []*Model
	for _, w := range []int{1, 2, 3, 8} {
		runtime.GOMAXPROCS(w)
		m, err := Train(train, DefaultConfig())
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		models = append(models, m)
	}
	ref := models[0]
	for i, m := range models[1:] {
		if m.Rho != ref.Rho || m.Gamma != ref.Gamma || len(m.SVs) != len(ref.SVs) {
			t.Fatalf("model %d differs: rho %v vs %v, %d vs %d SVs", i+1, m.Rho, ref.Rho, len(m.SVs), len(ref.SVs))
		}
		for j := range ref.Alpha {
			if m.Alpha[j] != ref.Alpha[j] {
				t.Fatalf("model %d alpha[%d] = %v, want %v", i+1, j, m.Alpha[j], ref.Alpha[j])
			}
			for k := range ref.SVs[j] {
				if m.SVs[j][k] != ref.SVs[j][k] {
					t.Fatalf("model %d sv[%d][%d] differs", i+1, j, k)
				}
			}
		}
	}
}

// TestDecisionZeroAlloc verifies the serving-path classifier stays off
// the heap.
func TestDecisionZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(23)
	train := gaussianCloud(rng, 200, 4, 0, 1)
	m, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := gaussianCloud(rng, 1, 4, 0, 1)[0]
	if n := testing.AllocsPerRun(100, func() { m.Decision(x) }); n != 0 {
		t.Errorf("Decision allocs/op = %v, want 0", n)
	}
}

// TestDeserializedModelDecides checks the lazy ‖sv‖² cache works for
// models that skipped Train (JSON round trip drops unexported fields).
func TestDeserializedModelDecides(t *testing.T) {
	rng := stats.NewRNG(24)
	train := gaussianCloud(rng, 200, 2, 0, 1)
	m, err := Train(train, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Model
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 50; trial++ {
		x := gaussianCloud(rng, 1, 2, 0, 2)[0]
		if got, want := back.Decision(x), m.Decision(x); got != want {
			t.Fatalf("trial %d: deserialized Decision = %v, want %v", trial, got, want)
		}
	}
}

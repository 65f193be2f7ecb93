package core

import (
	"sort"
	"testing"

	"osap/internal/mdp"
	"osap/internal/ocsvm"
	"osap/internal/stats"
)

// TestTrimIndicesMatchesSortStable cross-checks the insertion-sort trim
// against the original sort.SliceStable formulation, including ties
// (stability determines which duplicate survives).
func TestTrimIndicesMatchesSortStable(t *testing.T) {
	rng := stats.NewRNG(11)
	for trial := 0; trial < 200; trial++ {
		n := 2 + int(rng.Uint64()%6)
		dists := make([]float64, n)
		for i := range dists {
			dists[i] = float64(int(rng.Uint64() % 4)) // many ties
		}
		discard := int(rng.Uint64() % uint64(n+2))

		keep := n - discard
		if keep < 1 {
			keep = 1
		}
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool { return dists[idx[a]] < dists[idx[b]] })
		want := append([]int(nil), idx[:keep]...)
		sort.Ints(want)

		got := trimIndicesInto(make([]int, 0, n), dists, discard)
		if len(got) != len(want) {
			t.Fatalf("trial %d: kept %v, want %v (dists=%v discard=%d)", trial, got, want, dists, discard)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: kept %v, want %v (dists=%v discard=%d)", trial, got, want, dists, discard)
			}
		}
	}
}

// TestPolicySignalZeroAlloc verifies steady-state Observe stays off the
// heap when members do (fixedPolicy returns a preexisting slice).
func TestPolicySignalZeroAlloc(t *testing.T) {
	members := []mdp.Policy{
		fixedPolicy{0.9, 0.05, 0.05},
		fixedPolicy{0.05, 0.9, 0.05},
		fixedPolicy{0.05, 0.05, 0.9},
		fixedPolicy{1.0 / 3, 1.0 / 3, 1.0 / 3},
		fixedPolicy{0.5, 0.25, 0.25},
	}
	sig, err := NewPolicySignal(members, DefaultEnsembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	sig.Observe(nil) // size the scratch buffers
	if n := testing.AllocsPerRun(100, func() { sig.Observe(nil) }); n != 0 {
		t.Errorf("PolicySignal.Observe allocs/op = %v, want 0", n)
	}
}

// TestValueSignalZeroAlloc mirrors TestPolicySignalZeroAlloc for U_V.
func TestValueSignalZeroAlloc(t *testing.T) {
	members := []mdp.ValueFn{fixedValue(0), fixedValue(10), fixedValue(20), fixedValue(-10), fixedValue(5)}
	sig, err := NewValueSignal(members, DefaultEnsembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	sig.Observe(nil)
	if n := testing.AllocsPerRun(100, func() { sig.Observe(nil) }); n != 0 {
		t.Errorf("ValueSignal.Observe allocs/op = %v, want 0", n)
	}
}

// newAllocGuard builds a guard around sig with fixed learned/default
// policies and the paper's trigger for that signal family.
func newAllocGuard(t *testing.T, sig Signal, cfg TriggerConfig) *Guard {
	t.Helper()
	g, err := NewGuard(fixedPolicy{0.7, 0.2, 0.1}, fixedPolicy{0.1, 0.2, 0.7}, sig, NewTrigger(cfg))
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// assertDecideZeroAlloc drives the guard through warmup steps, then
// asserts steady-state Decide does not touch the heap. It dynamically
// cross-validates what the hotpath-alloc static analyzer (cmd/osap-vet)
// proves structurally over the annotated Decide call chain.
func assertDecideZeroAlloc(t *testing.T, g *Guard, obs []float64) {
	t.Helper()
	for i := 0; i < 50; i++ {
		g.Decide(obs) // fill signal windows, size scratch buffers
	}
	if n := testing.AllocsPerRun(100, func() { g.Decide(obs) }); n != 0 {
		t.Errorf("Guard.Decide allocs/op = %v, want 0", n)
	}
}

// TestGuardDecideZeroAllocStateSignal covers U_S end to end: feature
// tracking, a real trained OC-SVM decision, the consecutive trigger
// and the policy delegation.
func TestGuardDecideZeroAllocStateSignal(t *testing.T) {
	cfg := StateSignalConfig{ThroughputWindow: 3, K: 2}
	rng := stats.NewRNG(7)
	thr := make([]float64, 400)
	for i := range thr {
		thr[i] = 2 + 0.3*rng.NormFloat64()
	}
	feats := BuildStateFeatures(thr, cfg)
	model, err := ocsvm.Train(feats, ocsvm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := NewStateSignal(model, func(obs []float64) float64 { return obs[0] }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := newAllocGuard(t, sig, StateTriggerConfig())
	assertDecideZeroAlloc(t, g, []float64{2.1, 0, 0})
}

// TestGuardDecideZeroAllocPolicySignal covers U_π through the guard.
func TestGuardDecideZeroAllocPolicySignal(t *testing.T) {
	members := []mdp.Policy{
		fixedPolicy{0.9, 0.05, 0.05},
		fixedPolicy{0.05, 0.9, 0.05},
		fixedPolicy{0.05, 0.05, 0.9},
		fixedPolicy{1.0 / 3, 1.0 / 3, 1.0 / 3},
		fixedPolicy{0.5, 0.25, 0.25},
	}
	sig, err := NewPolicySignal(members, DefaultEnsembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := newAllocGuard(t, sig, VarianceTriggerConfig(0.05, 3))
	assertDecideZeroAlloc(t, g, []float64{1, 2, 3})
}

// TestGuardDecideZeroAllocValueSignal covers U_V through the guard.
func TestGuardDecideZeroAllocValueSignal(t *testing.T) {
	members := []mdp.ValueFn{fixedValue(0), fixedValue(10), fixedValue(20), fixedValue(-10), fixedValue(5)}
	sig, err := NewValueSignal(members, DefaultEnsembleConfig())
	if err != nil {
		t.Fatal(err)
	}
	g := newAllocGuard(t, sig, VarianceTriggerConfig(0.05, 3))
	assertDecideZeroAlloc(t, g, []float64{1, 2, 3})
}

// TestPolicySignalScratchReuseIsDeterministic checks repeated Observe
// calls on one signal return identical scores (scratch reuse must not
// leak state between calls).
func TestPolicySignalScratchReuseIsDeterministic(t *testing.T) {
	members := []mdp.Policy{
		fixedPolicy{0.9, 0.05, 0.05},
		fixedPolicy{0.05, 0.9, 0.05},
		fixedPolicy{0.05, 0.05, 0.9},
		fixedPolicy{1.0 / 3, 1.0 / 3, 1.0 / 3},
		fixedPolicy{0.5, 0.25, 0.25},
	}
	sig, _ := NewPolicySignal(members, DefaultEnsembleConfig())
	fresh, _ := NewPolicySignal(members, DefaultEnsembleConfig())
	first := sig.Observe(nil)
	for i := 0; i < 10; i++ {
		if u := sig.Observe(nil); u != first {
			t.Fatalf("observe %d = %v, first = %v", i, u, first)
		}
	}
	if u := fresh.Observe(nil); u != first {
		t.Fatalf("fresh signal = %v, reused = %v", u, first)
	}
}

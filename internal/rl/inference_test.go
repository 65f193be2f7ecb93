package rl

import (
	"math"
	"testing"

	"osap/internal/nn"
	"osap/internal/stats"
)

// packAlone packs one agent and one critic by themselves and returns
// forward scratch of that artifact set.
func packAlone(t *testing.T, ac *ActorCritic, critic *nn.Network) *Scratch {
	t.Helper()
	f, err := Freeze([]*ActorCritic{ac}, []*nn.Network{critic})
	if err != nil {
		t.Fatal(err)
	}
	return f.NewScratch()
}

func infTestObs(n int, seed uint64) []float64 {
	rng := stats.NewRNG(seed)
	obs := make([]float64, n)
	for i := range obs {
		obs[i] = rng.NormFloat64()
	}
	return obs
}

// TestPolicyInferenceMatchesProbs checks the workspace-backed handle is
// bit-identical to the allocating ActorCritic.Probs, including across
// repeated buffer reuse.
func TestPolicyInferenceMatchesProbs(t *testing.T) {
	ac, err := NewActorCritic(toyNetConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	pi := packAlone(t, ac, ac.Critic).Policies()[0]
	for trial := 0; trial < 5; trial++ {
		obs := infTestObs(ac.Actor.InDim(), uint64(40+trial))
		want := ac.Probs(obs)
		got := pi.Probs(obs)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: PolicyInference.Probs[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestValueInferenceMatchesValue checks the workspace-backed value
// handle is bit-identical to the critic's own Forward.
func TestValueInferenceMatchesValue(t *testing.T) {
	ac, err := NewActorCritic(toyNetConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	vi := packAlone(t, ac, ac.Critic).Values()[0]
	for trial := 0; trial < 5; trial++ {
		obs := infTestObs(ac.Critic.InDim(), uint64(50+trial))
		want := ac.Critic.Forward(obs)[0]
		if got := vi.Value(obs); got != want {
			t.Fatalf("trial %d: ValueInference.Value = %v, want %v", trial, got, want)
		}
	}
}

// TestGreedyInferenceMatchesGreedyPolicy checks the serving one-hot
// equals GreedyPolicy's.
func TestGreedyInferenceMatchesGreedyPolicy(t *testing.T) {
	ac, err := NewActorCritic(toyNetConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	gi := NewGreedyInference(ac)
	gp := GreedyPolicy{P: ac}
	for trial := 0; trial < 5; trial++ {
		obs := infTestObs(ac.Actor.InDim(), uint64(60+trial))
		want := gp.Probs(obs)
		got := gi.Probs(obs)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("trial %d: GreedyInference.Probs[%d] = %v, want %v", trial, i, got[i], want[i])
			}
		}
	}
}

// TestGreedyInferencePassesNonFinite: an actor whose weights overflow
// its first dense product yields a non-finite forward, and Probs
// returns it as it is, not as the one-hot on its argmax.
func TestGreedyInferencePassesNonFinite(t *testing.T) {
	ac, err := NewActorCritic(toyNetConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range ac.Actor.Params() {
		for i := range p.W {
			p.W[i] = math.MaxFloat64
		}
	}
	probs := NewGreedyInference(ac).Probs(infTestObs(ac.Actor.InDim(), 80))
	if stats.AllFinite(probs) {
		t.Fatalf("GreedyInference.Probs of an overflowing actor = %v, want it non-finite", probs)
	}
}

// TestInferenceZeroAlloc verifies the handles never touch the heap in
// steady state.
func TestInferenceZeroAlloc(t *testing.T) {
	ac, err := NewActorCritic(toyNetConfig(), 9)
	if err != nil {
		t.Fatal(err)
	}
	sc := packAlone(t, ac, ac.Critic)
	pi, vi, gi := sc.Policies()[0], sc.Values()[0], sc.Greedy()
	obs := infTestObs(ac.Actor.InDim(), 70)

	if n := testing.AllocsPerRun(100, func() { pi.Probs(obs) }); n != 0 {
		t.Errorf("PolicyInference.Probs allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { vi.Value(obs) }); n != 0 {
		t.Errorf("ValueInference.Value allocs/op = %v, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { gi.Probs(obs) }); n != 0 {
		t.Errorf("GreedyInference.Probs allocs/op = %v, want 0", n)
	}
}

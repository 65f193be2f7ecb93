package rl

import (
	"math"
	"testing"

	"osap/internal/linalg"
	"osap/internal/mdp"
	"osap/internal/nn"
	"osap/internal/stats"
)

func batchTestEnsemble(t *testing.T, n int) []*ActorCritic {
	t.Helper()
	cfg := DefaultNetConfig()
	agents := make([]*ActorCritic, n)
	for i := range agents {
		ac, err := NewActorCritic(cfg, 100+uint64(i)*7)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = ac
	}
	return agents
}

func criticNets(agents []*ActorCritic) []*nn.Network {
	nets := make([]*nn.Network, len(agents))
	for i, a := range agents {
		nets[i] = a.Critic
	}
	return nets
}

func randObs(rng *stats.RNG, rows, dim int) *linalg.Matrix {
	m := linalg.NewMatrix(rows, dim)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// TestBatchScorerMatchesInferenceSessions is the cross-layer
// equivalence property: every row the scorer produces — deployed
// distribution, per-member ensemble distributions, per-member values —
// is bit-identical to the one-row handles a served step runs on.
func TestBatchScorerMatchesInferenceSessions(t *testing.T) {
	agents := batchTestEnsemble(t, 3)
	scorer, err := NewBatchScorer(agents, criticNets(agents), 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	obs := randObs(rng, 33, agents[0].Actor.InDim())

	f, err := Freeze(agents, criticNets(agents))
	if err != nil {
		t.Fatal(err)
	}
	sc := f.NewScratch()
	pols, vals := sc.Policies(), sc.Values()
	single := pols[0]
	probs := scorer.Deployed(obs)
	for r := 0; r < obs.Rows; r++ {
		want := single.Probs(obs.Row(r))
		got := probs.Row(r)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("deployed row %d col %d: %g vs %g", r, j, got[j], want[j])
			}
		}
	}

	dists := scorer.PolicyDists(obs)
	for m, pi := range pols {
		for r := 0; r < obs.Rows; r++ {
			want := pi.Probs(obs.Row(r))
			got := dists[m].Row(r)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
					t.Fatalf("member %d row %d col %d: %g vs %g", m, r, j, got[j], want[j])
				}
			}
		}
	}

	cols := scorer.Values(obs)
	for m, vi := range vals {
		for r := 0; r < obs.Rows; r++ {
			want := vi.Value(obs.Row(r))
			if math.Float64bits(cols[m][r]) != math.Float64bits(want) {
				t.Fatalf("value member %d row %d: %g vs %g", m, r, cols[m][r], want)
			}
		}
	}
}

func TestBatchScorerSingleAgent(t *testing.T) {
	agents := batchTestEnsemble(t, 1)
	scorer, err := NewBatchScorer(agents, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(2)
	obs := randObs(rng, 8, agents[0].Actor.InDim())
	if got := scorer.Deployed(obs); got.Rows != 8 {
		t.Fatalf("rows %d", got.Rows)
	}
	for name, f := range map[string]func(){
		"policy": func() { scorer.PolicyDists(obs) },
		"value":  func() { scorer.Values(obs) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic without ensemble", name)
				}
			}()
			f()
		}()
	}
}

func TestBatchScorerZeroAlloc(t *testing.T) {
	agents := batchTestEnsemble(t, 3)
	scorer, err := NewBatchScorer(agents, criticNets(agents), 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4)
	obs := randObs(rng, 64, agents[0].Actor.InDim())
	allocs := testing.AllocsPerRun(20, func() {
		scorer.Deployed(obs)
		scorer.PolicyDists(obs)
		scorer.Values(obs)
	})
	if allocs != 0 {
		t.Fatalf("batched scoring allocates %.1f/op, want 0", allocs)
	}
}

// TestDeployedIsMemberZero pins the Scratch invariant a guard relies
// on: the greedy handle runs on member 0's workspace, and running it
// after the whole ensemble — the order Guard.Decide runs them in —
// answers exactly as a greedy handle with a workspace of its own, on
// member 0's argmax.
func TestDeployedIsMemberZero(t *testing.T) {
	agents := batchTestEnsemble(t, 5)
	f, err := Freeze(agents, nil)
	if err != nil {
		t.Fatal(err)
	}
	sc := f.NewScratch()
	greedy, pols := sc.Greedy(), sc.Policies()
	alone := NewGreedyInference(agents[0])
	obs := randObs(stats.NewRNG(5), 16, f.ObsDim())
	for r := 0; r < obs.Rows; r++ {
		row := obs.Row(r)
		member0 := mdp.ArgmaxAction(pols[0].Probs(row))
		for _, p := range pols[1:] {
			p.Probs(row)
		}
		got, want := greedy.Probs(row), alone.Probs(row)
		if mdp.ArgmaxAction(got) != member0 {
			t.Fatalf("row %d: greedy acts %d, member 0's argmax is %d", r, mdp.ArgmaxAction(got), member0)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("row %d: greedy on the shared scratch %v, alone %v", r, got, want)
			}
		}
	}
}

// TestFrozenSessionsMatchStandalone: handles over a shared Frozen's
// scratch answer exactly as the ones over each member packed by itself,
// and keep the weights of the moment Freeze was called.
func TestFrozenSessionsMatchStandalone(t *testing.T) {
	agents := batchTestEnsemble(t, 3)
	f, err := Freeze(agents, criticNets(agents))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Freeze(nil, nil); err == nil {
		t.Fatal("Freeze accepted an artifact set without a deployed agent")
	}
	sc := f.NewScratch()
	greedy, pols, vals := sc.Greedy(), sc.Policies(), sc.Values()
	wantGreedy := NewGreedyInference(agents[0])
	wantPols := make([]mdp.Policy, len(agents))
	wantVals := make([]mdp.ValueFn, len(agents))
	for i, a := range agents {
		alone := packAlone(t, a, a.Critic)
		wantPols[i], wantVals[i] = alone.Policies()[0], alone.Values()[0]
	}
	// From here on the source networks drift; nothing above may notice.
	frozenRef := make([]*ActorCritic, len(agents))
	for i, a := range agents {
		ref, err := NewActorCritic(a.Cfg, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, pair := range [][2]*nn.Network{{ref.Actor, a.Actor}, {ref.Critic, a.Critic}} {
			for j, p := range pair[0].Params() {
				copy(p.W, pair[1].Params()[j].W)
			}
		}
		frozenRef[i] = ref
		for _, p := range a.Actor.Params() {
			p.W[0] += 1
		}
	}
	rng := stats.NewRNG(6)
	obs := randObs(rng, 10, f.ObsDim())
	for r := 0; r < obs.Rows; r++ {
		row := obs.Row(r)
		for j, want := range wantGreedy.Probs(row) {
			if got := greedy.Probs(row); got[j] != want {
				t.Fatalf("row %d: greedy one-hot %v differs at %d", r, got, j)
			}
		}
		for m := range pols {
			got, want, ref := pols[m].Probs(row), wantPols[m].Probs(row), frozenRef[m].Probs(row)
			for j := range want {
				if math.Float64bits(got[j]) != math.Float64bits(want[j]) || math.Float64bits(got[j]) != math.Float64bits(ref[j]) {
					t.Fatalf("row %d member %d col %d: frozen %g, standalone %g, scalar %g", r, m, j, got[j], want[j], ref[j])
				}
			}
		}
		for m := range vals {
			if got, want := vals[m].Value(row), wantVals[m].Value(row); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("row %d value member %d: %g vs %g", r, m, got, want)
			}
		}
	}
}

package rl

import (
	"math"
	"testing"

	"osap/internal/linalg"
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
// is bit-identical to the single-session inference handles the serve
// path used before batching.
func TestBatchScorerMatchesInferenceSessions(t *testing.T) {
	agents := batchTestEnsemble(t, 3)
	scorer, err := NewBatchScorer(agents, criticNets(agents), 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(1)
	obs := randObs(rng, 33, scorer.ObsDim())

	single := NewPolicyInference(agents[0])
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
	for m, a := range agents {
		pi := NewPolicyInference(a)
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
	for m, net := range criticNets(agents) {
		vi := NewValueInference(net)
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
	if scorer.NumMembers() != 0 || scorer.NumValueNets() != 0 {
		t.Fatal("single-agent scorer must not report ensembles")
	}
	rng := stats.NewRNG(2)
	obs := randObs(rng, 8, scorer.ObsDim())
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

func TestGreedyOneHotMatchesProbs(t *testing.T) {
	agents := batchTestEnsemble(t, 1)
	g := NewGreedyInference(agents[0])
	raw := NewPolicyInference(agents[0])
	rng := stats.NewRNG(3)
	obs := randObs(rng, 10, agents[0].Actor.InDim())
	scratch := make([]float64, agents[0].Actor.OutDim())
	for r := 0; r < obs.Rows; r++ {
		copy(scratch, raw.Probs(obs.Row(r)))
		want := append([]float64(nil), g.Probs(obs.Row(r))...)
		got := g.OneHot(scratch)
		for j := range want {
			if want[j] != got[j] {
				t.Fatalf("row %d: OneHot %v != Probs %v", r, got, want)
			}
		}
	}
}

func TestBatchScorerZeroAlloc(t *testing.T) {
	agents := batchTestEnsemble(t, 3)
	scorer, err := NewBatchScorer(agents, criticNets(agents), 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4)
	obs := randObs(rng, 64, scorer.ObsDim())
	allocs := testing.AllocsPerRun(20, func() {
		scorer.Deployed(obs)
		scorer.PolicyDists(obs)
		scorer.Values(obs)
	})
	if allocs != 0 {
		t.Fatalf("batched scoring allocates %.1f/op, want 0", allocs)
	}
}

// TestDeployedIsMemberZero pins the invariant the serve shard
// relies on to skip a forward: member 0 of the policy ensemble is the
// deployed agent, so its PolicyDists rows equal Deployed's bit for bit.
func TestDeployedIsMemberZero(t *testing.T) {
	agents := batchTestEnsemble(t, 5)
	scorer, err := NewBatchScorer(agents, nil, 32)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	for _, rows := range []int{1, 2, 31, 32} {
		obs := randObs(rng, rows, scorer.ObsDim())
		deployed := scorer.Deployed(obs)
		member0 := scorer.PolicyDists(obs)[0]
		for r := 0; r < rows; r++ {
			d, m := deployed.Row(r), member0.Row(r)
			for j := range d {
				if math.Float64bits(d[j]) != math.Float64bits(m[j]) {
					t.Fatalf("batch %d row %d col %d: deployed %g vs member 0 %g", rows, r, j, d[j], m[j])
				}
			}
		}
	}
}

// TestFrozenSessionsMatchStandalone: sessions handed out by a shared
// Frozen answer exactly as the ones that pack privately, and keep the
// weights of the moment Freeze was called.
func TestFrozenSessionsMatchStandalone(t *testing.T) {
	agents := batchTestEnsemble(t, 3)
	f, err := Freeze(agents, criticNets(agents))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Freeze(nil, nil); err == nil {
		t.Fatal("Freeze accepted an artifact set without a deployed agent")
	}
	greedy, pols, vals := f.Greedy(), f.Policies(), f.Values()
	wantGreedy := NewGreedyInference(agents[0])
	wantPols := InferencePolicyEnsemble(agents)
	wantVals := InferenceValueEnsemble(criticNets(agents))
	// From here on the source networks drift; nothing above may notice.
	frozenRef := make([]*ActorCritic, len(agents))
	for i, a := range agents {
		frozenRef[i] = a.Clone()
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

package rl

import (
	"encoding/json"
	"math"
	"testing"

	"osap/internal/mdp"
	"osap/internal/stats"
)

// toyNetConfig is a tiny architecture for fast tests.
func toyNetConfig() NetConfig {
	return NetConfig{
		ObsChannels: 2,
		HistoryLen:  4,
		ConvFilters: 4,
		ConvKernel:  2,
		Hidden:      16,
		Actions:     3,
	}
}

// cueEnv is a contextual bandit dressed as an episodic MDP: the
// observation encodes which of 3 actions pays off this step; matching it
// earns +1, anything else 0. Ten steps per episode.
type cueEnv struct {
	rng  *stats.RNG
	cue  int
	step int
}

func (c *cueEnv) Reset(rng *stats.RNG) []float64 {
	c.rng = rng
	c.step = 0
	return c.next()
}

func (c *cueEnv) next() []float64 {
	c.cue = c.rng.Intn(3)
	obs := make([]float64, 8)
	// Encode the cue redundantly across both channels.
	obs[c.cue] = 1
	obs[4+c.cue] = 1
	return obs
}

func (c *cueEnv) Step(a int) ([]float64, float64, bool) {
	var r float64
	if a == c.cue {
		r = 1
	}
	c.step++
	return c.next(), r, c.step >= 10
}

func (c *cueEnv) NumActions() int { return 3 }
func (c *cueEnv) ObsDim() int     { return 8 }

func toyFactory() mdp.Env { return &cueEnv{} }

func toyTrainConfig() TrainConfig {
	return TrainConfig{
		Net:              toyNetConfig(),
		Gamma:            0.9,
		Epochs:           60,
		RolloutsPerEpoch: 8,
		LRActor:          3e-3,
		LRCritic:         1e-2,
		EntropyInit:      0.1,
		EntropyFinal:     0.01,
		GradClip:         5,
		Seed:             3,
		Workers:          2,
	}
}

func TestTrainLearnsCueTask(t *testing.T) {
	agent, st, err := Train(toyFactory, toyTrainConfig())
	if err != nil {
		t.Fatal(err)
	}
	early := stats.Mean(st.MeanReward[:5])
	late := stats.Mean(st.MeanReward[len(st.MeanReward)-5:])
	if late < early+2 {
		t.Errorf("no learning: early %.2f late %.2f (max 10)", early, late)
	}
	// Greedy agent should be near-perfect.
	env, rng := toyFactory(), stats.NewRNG(7)
	scores := make([]float64, 20)
	for i := range scores {
		scores[i] = mdp.Rollout(env, GreedyPolicy{P: agent}, rng, mdp.RolloutOptions{}).TotalReward()
	}
	if m := stats.Mean(scores); m < 8.5 {
		t.Errorf("greedy mean reward %.2f, want > 8.5/10", m)
	}
}

func TestTrainDeterministic(t *testing.T) {
	cfg := toyTrainConfig()
	cfg.Epochs = 8
	run := func(workers int) []float64 {
		c := cfg
		c.Workers = workers
		agent, _, err := Train(toyFactory, c)
		if err != nil {
			t.Fatal(err)
		}
		var ws []float64
		for _, p := range agent.Actor.Params() {
			ws = append(ws, p.W...)
		}
		return ws
	}
	a := run(1)
	b := run(4) // worker count must not affect results
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("training depends on worker count / scheduling")
		}
	}
}

func TestTrainValidatesEnvShape(t *testing.T) {
	cfg := toyTrainConfig()
	cfg.Net.Actions = 5 // env has 3
	if _, _, err := Train(toyFactory, cfg); err == nil {
		t.Error("expected action-count mismatch error")
	}
	cfg = toyTrainConfig()
	cfg.Net.ObsChannels = 3 // obs dim mismatch
	if _, _, err := Train(toyFactory, cfg); err == nil {
		t.Error("expected obs-dim mismatch error")
	}
}

func TestTrainConfigValidation(t *testing.T) {
	bad := []func(*TrainConfig){
		func(c *TrainConfig) { c.Gamma = 0 },
		func(c *TrainConfig) { c.Gamma = 1.5 },
		func(c *TrainConfig) { c.Epochs = 0 },
		func(c *TrainConfig) { c.RolloutsPerEpoch = 0 },
		func(c *TrainConfig) { c.LRActor = 0 },
		func(c *TrainConfig) { c.Net.ConvKernel = 100 },
		func(c *TrainConfig) { c.Gamma = math.NaN() },
		func(c *TrainConfig) { c.LRActor = math.NaN() },
		func(c *TrainConfig) { c.LRCritic = math.NaN() },
	}
	for i, mutate := range bad {
		cfg := toyTrainConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if err := DefaultTrainConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestValueTrainConfigValidation(t *testing.T) {
	for name, mutate := range map[string]func(*ValueTrainConfig){
		"zero episodes": func(c *ValueTrainConfig) { c.Episodes = 0 },
		"zero passes":   func(c *ValueTrainConfig) { c.Passes = 0 },
		"gamma 0":       func(c *ValueTrainConfig) { c.Gamma = 0 },
		"gamma > 1":     func(c *ValueTrainConfig) { c.Gamma = 1.5 },
		"gamma NaN":     func(c *ValueTrainConfig) { c.Gamma = math.NaN() },
		"LR 0":          func(c *ValueTrainConfig) { c.LR = 0 },
		"LR NaN":        func(c *ValueTrainConfig) { c.LR = math.NaN() },
		"bad net":       func(c *ValueTrainConfig) { c.Net.ConvKernel = 100 },
	} {
		cfg := DefaultValueTrainConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	if err := DefaultValueTrainConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	// A zero budget is an error, not an untrained critic.
	cfg := DefaultValueTrainConfig()
	cfg.Net = toyNetConfig()
	cfg.Passes = 0
	if _, err := TrainValueOnDataset([]valueSample{{obs: make([]float64, 8)}}, cfg); err == nil {
		t.Error("zero passes trained a critic")
	}
}

func TestActorCriticShapes(t *testing.T) {
	ac, err := NewActorCritic(toyNetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, 8)
	probs := ac.Probs(obs)
	if len(probs) != 3 {
		t.Fatalf("probs len %d", len(probs))
	}
	var sum float64
	for _, p := range probs {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probs sum %v", sum)
	}
	_ = ac.Value(obs) // must not panic
}

func TestNewActorCriticDifferentSeedsDiffer(t *testing.T) {
	a, _ := NewActorCritic(toyNetConfig(), 1)
	b, _ := NewActorCritic(toyNetConfig(), 2)
	obs := make([]float64, 8)
	obs[0] = 1
	pa, pb := a.Probs(obs), b.Probs(obs)
	same := true
	for i := range pa {
		if pa[i] != pb[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds yielded identical networks")
	}
}

func TestActorCriticJSONRoundTrip(t *testing.T) {
	ac, _ := NewActorCritic(toyNetConfig(), 5)
	aj, err := ac.JSON()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(aj)
	if err != nil {
		t.Fatal(err)
	}
	var decoded AgentJSON
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Agent()
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, 8)
	obs[2] = 1
	pa, pb := ac.Probs(obs), back.Probs(obs)
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("round-tripped actor differs")
		}
	}
	if ac.Value(obs) != back.Value(obs) {
		t.Fatal("round-tripped critic differs")
	}
}

func TestGreedyPolicyOneHot(t *testing.T) {
	p := mdp.PolicyFunc(func([]float64) []float64 { return []float64{0.2, 0.5, 0.3} })
	g := GreedyPolicy{P: p}
	probs := g.Probs(nil)
	if probs[1] != 1 || probs[0] != 0 || probs[2] != 0 {
		t.Errorf("greedy probs = %v", probs)
	}
}

func TestTrainEnsembleMembersDiffer(t *testing.T) {
	cfg := toyTrainConfig()
	cfg.Epochs = 5
	agents, err := TrainEnsemble(toyFactory, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(agents) != 3 {
		t.Fatalf("got %d agents", len(agents))
	}
	obs := make([]float64, 8)
	obs[1] = 1
	p0 := agents[0].Probs(obs)
	differs := false
	for _, a := range agents[1:] {
		p := a.Probs(obs)
		for i := range p {
			if p[i] != p0[i] {
				differs = true
			}
		}
	}
	if !differs {
		t.Error("ensemble members are identical")
	}
}

func TestTrainEnsembleDeterministic(t *testing.T) {
	cfg := toyTrainConfig()
	cfg.Epochs = 3
	run := func() []float64 {
		agents, err := TrainEnsemble(toyFactory, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		var ws []float64
		for _, a := range agents {
			for _, p := range a.Actor.Params() {
				ws = append(ws, p.W...)
			}
		}
		return ws
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("ensemble training not deterministic")
		}
	}
}

func TestTrainEnsembleSizeValidation(t *testing.T) {
	if _, err := TrainEnsemble(toyFactory, toyTrainConfig(), 0); err == nil {
		t.Error("expected error for n=0")
	}
}

func TestValueFunctionLearnsReturns(t *testing.T) {
	// Under the always-cue-matching optimal policy, every state has the
	// same return structure; a trained value fn should predict returns
	// far better than the untrained one.
	optimal := mdp.PolicyFunc(func(obs []float64) []float64 {
		cue := 0
		for i := 1; i < 3; i++ {
			if obs[i] > obs[cue] {
				cue = i
			}
		}
		return mdp.OneHot(3, cue)
	})
	cfg := DefaultValueTrainConfig()
	cfg.Net = toyNetConfig()
	cfg.Gamma = 0.9
	cfg.Episodes = 16
	cfg.Passes = 80
	cfg.LR = 5e-3
	cfg.Seed = 11
	cfg.InitSeed = 11
	ds, err := CollectValueDataset(toyFactory, optimal, cfg)
	if err != nil {
		t.Fatal(err)
	}
	net, err := TrainValueOnDataset(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// True value of any state under the optimal policy with 10-step
	// horizon: between sum γ^k over remaining steps; mid-episode ≈
	// (1-γ^5)/(1-γ) ≈ 4.1. Just check prediction is positive & in range.
	obs := make([]float64, 8)
	obs[0], obs[4] = 1, 1
	v := net.Forward(obs)[0]
	if v < 1 || v > 10.5 {
		t.Errorf("trained value %v outside plausible range [1, 10.5]", v)
	}
}

func TestValueEnsembleSharesDataDiffersInit(t *testing.T) {
	policy := mdp.PolicyFunc(func([]float64) []float64 { return []float64{1, 0, 0} })
	cfg := DefaultValueTrainConfig()
	cfg.Net = toyNetConfig()
	cfg.Episodes = 4
	cfg.Passes = 2
	nets, err := TrainValueEnsemble(toyFactory, policy, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, 8)
	obs[1] = 1
	v0 := nets[0].Forward(obs)[0]
	differ := false
	for _, n := range nets[1:] {
		if n.Forward(obs)[0] != v0 {
			differ = true
		}
	}
	if !differ {
		t.Error("value ensemble members identical")
	}
}

func TestCollectValueDatasetShape(t *testing.T) {
	policy := mdp.PolicyFunc(func([]float64) []float64 { return []float64{1, 0, 0} })
	cfg := DefaultValueTrainConfig()
	cfg.Net = toyNetConfig()
	cfg.Episodes = 3
	ds, err := CollectValueDataset(toyFactory, policy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) != 30 { // 3 episodes × 10 steps
		t.Fatalf("dataset size %d, want 30", len(ds))
	}
	for _, s := range ds {
		if len(s.obs) != 8 {
			t.Fatal("bad obs length in dataset")
		}
	}
}

func TestValueTrainErrors(t *testing.T) {
	if _, err := TrainValueOnDataset(nil, DefaultValueTrainConfig()); err == nil {
		t.Error("empty dataset: expected error")
	}
	policy := mdp.PolicyFunc(func([]float64) []float64 { return []float64{1, 0, 0} })
	cfg := DefaultValueTrainConfig()
	cfg.Episodes = 0
	if _, err := CollectValueDataset(toyFactory, policy, cfg); err == nil {
		t.Error("zero episodes: expected error")
	}
	if _, err := TrainValueEnsemble(toyFactory, policy, DefaultValueTrainConfig(), 0); err == nil {
		t.Error("zero ensemble: expected error")
	}
}

func TestRNDTrainsAndDetectsNovelty(t *testing.T) {
	rng := stats.NewRNG(61)
	cfg := DefaultRNDConfig()
	cfg.Net = toyNetConfig()
	cfg.Passes = 30
	// Training observations: cue-style one-hot pairs.
	var train [][]float64
	for i := 0; i < 300; i++ {
		obs := make([]float64, 8)
		cue := rng.Intn(3)
		obs[cue], obs[4+cue] = 1, 1
		train = append(train, obs)
	}
	rnd, err := TrainRND(train, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// In-distribution error ≈ 1 after scale calibration.
	inErr := 0.0
	for _, obs := range train[:50] {
		inErr += rnd.Error(obs)
	}
	inErr /= 50
	if inErr > 3 {
		t.Errorf("in-distribution RND error %v, want ~1", inErr)
	}
	// Novel observations (dense random vectors) must score much higher.
	novelErr := 0.0
	for i := 0; i < 50; i++ {
		obs := make([]float64, 8)
		for j := range obs {
			obs[j] = 2 * rng.NormFloat64()
		}
		novelErr += rnd.Error(obs)
	}
	novelErr /= 50
	if novelErr < 3*inErr {
		t.Errorf("novel RND error %v not clearly above in-dist %v", novelErr, inErr)
	}
}

func TestRNDErrors(t *testing.T) {
	cfg := DefaultRNDConfig()
	cfg.Net = toyNetConfig()
	if _, err := TrainRND(nil, cfg); err == nil {
		t.Error("empty observations accepted")
	}
	if _, err := TrainRND([][]float64{{1, 2}}, cfg); err == nil {
		t.Error("wrong obs dim accepted")
	}
}

func TestRNDDeterministic(t *testing.T) {
	cfg := DefaultRNDConfig()
	cfg.Net = toyNetConfig()
	cfg.Passes = 3
	obs := make([][]float64, 40)
	rng := stats.NewRNG(9)
	for i := range obs {
		o := make([]float64, 8)
		o[rng.Intn(8)] = 1
		obs[i] = o
	}
	a, err := TrainRND(obs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TrainRND(obs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	probe := make([]float64, 8)
	probe[3] = 1
	if a.Error(probe) != b.Error(probe) {
		t.Error("RND training not deterministic")
	}
}

func TestCollectObservations(t *testing.T) {
	policy := mdp.PolicyFunc(func([]float64) []float64 { return []float64{1, 0, 0} })
	obs := CollectObservations(toyFactory, policy, 3, 1)
	if len(obs) != 30 {
		t.Fatalf("collected %d observations, want 30", len(obs))
	}
	for _, o := range obs {
		if len(o) != 8 {
			t.Fatal("bad observation length")
		}
	}
}

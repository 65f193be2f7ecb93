package rl

import (
	"fmt"
	"runtime"
	"sync"

	"osap/internal/linalg"
	"osap/internal/mdp"
	"osap/internal/nn"
	"osap/internal/stats"
)

// ValueTrainConfig parameterizes external value-function training: per
// §2.4, "even if an agent does not explicitly estimate state values, a
// value function for that agent can still be trained externally by
// observing the history of states, actions, and rewards resulting from
// the agent-environment interaction while training." We regress a fresh
// critic network onto Monte-Carlo discounted returns of the (frozen)
// agent's own rollouts.
type ValueTrainConfig struct {
	Net   NetConfig
	Gamma float64
	// Episodes is the number of rollouts of the frozen policy used as
	// the regression dataset.
	Episodes int
	// MaxStepsPerEpisode truncates rollouts (0 = play out).
	MaxStepsPerEpisode int
	// Passes is the number of SGD passes over the collected dataset.
	Passes int
	// LR is the Adam learning rate.
	LR float64
	// BatchSize groups steps per gradient update.
	BatchSize int
	// Seed drives rollout and shuffling randomness; the value network's
	// initialization uses InitSeed so that ensemble members share data
	// but differ in initialization, exactly the paper's setup.
	Seed     uint64
	InitSeed uint64
	// Workers bounds rollout parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultValueTrainConfig returns the harness defaults.
func DefaultValueTrainConfig() ValueTrainConfig {
	return ValueTrainConfig{
		Net:       DefaultNetConfig(),
		Gamma:     0.99,
		Episodes:  24,
		Passes:    8,
		LR:        1e-3,
		BatchSize: 64,
		Seed:      1,
		InitSeed:  1,
	}
}

// valueSample is one (observation, return) regression pair.
type valueSample struct {
	obs []float64
	ret float64
}

// CollectValueDataset rolls out the frozen policy and returns (obs, G_t)
// pairs. The same dataset can train every member of a value ensemble.
func CollectValueDataset(factory EnvFactory, policy mdp.Policy, cfg ValueTrainConfig) ([]valueSample, error) {
	if cfg.Episodes <= 0 {
		return nil, fmt.Errorf("rl: value dataset needs at least one episode")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	seedRNG := stats.NewRNG(cfg.Seed ^ 0x7A1)
	rngs := make([]*stats.RNG, cfg.Episodes)
	for i := range rngs {
		rngs[i] = seedRNG.Fork()
	}
	trajs := make([]*mdp.Trajectory, cfg.Episodes)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < cfg.Episodes; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			env := factory()
			trajs[i] = mdp.Rollout(env, policy, rngs[i], mdp.RolloutOptions{
				MaxSteps: cfg.MaxStepsPerEpisode,
			})
		}(i)
	}
	wg.Wait()

	var ds []valueSample
	for _, traj := range trajs {
		returns := traj.DiscountedReturns(cfg.Gamma, 0)
		for t, step := range traj.Steps {
			ds = append(ds, valueSample{obs: step.Obs, ret: returns[t]})
		}
	}
	return ds, nil
}

// TrainValueOnDataset fits a fresh critic network (initialized from
// cfg.InitSeed) to a pre-collected dataset.
func TrainValueOnDataset(ds []valueSample, cfg ValueTrainConfig) (*nn.Network, error) {
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if len(ds) == 0 {
		return nil, fmt.Errorf("rl: empty value dataset")
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	obsDim := cfg.Net.ObsDim()
	for i, s := range ds {
		if len(s.obs) != obsDim {
			return nil, fmt.Errorf("rl: value sample %d has dim %d, want %d", i, len(s.obs), obsDim)
		}
	}
	net := BuildCritic(cfg.Net, stats.NewRNG(cfg.InitSeed))
	opt := nn.NewAdam(cfg.LR, 0, 0, 0)
	shuffleRNG := stats.NewRNG(cfg.Seed ^ 0x5ff1e)

	ws := nn.NewTrainWorkspace(net)
	in := linalg.NewMatrix(cfg.BatchSize, obsDim)
	gradOut := linalg.NewMatrix(cfg.BatchSize, 1)

	for pass := 0; pass < cfg.Passes; pass++ {
		order := shuffleRNG.Perm(len(ds))
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > len(order) {
				end = len(order)
			}
			batch := order[start:end]
			in.Rows, gradOut.Rows = len(batch), len(batch)
			for r, idx := range batch {
				copy(in.Row(r), ds[idx].obs)
			}
			v := ws.Forward(in)
			for r, idx := range batch {
				gradOut.Data[r] = 2 * (v.Data[r] - ds[idx].ret)
			}
			ws.Backward(gradOut)
			inv := 1 / float64(end-start)
			for _, p := range net.Params() {
				for j := range p.G {
					p.G[j] *= inv
				}
			}
			opt.Step(net.Params())
		}
	}
	return net, nil
}

// NetValueFn adapts a critic network to mdp.ValueFn.
type NetValueFn struct{ Net *nn.Network }

// Value implements mdp.ValueFn.
func (n NetValueFn) Value(obs []float64) float64 { return n.Net.Forward(obs)[0] }

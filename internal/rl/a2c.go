package rl

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"osap/internal/linalg"
	"osap/internal/mdp"
	"osap/internal/nn"
	"osap/internal/stats"
)

// TrainConfig parameterizes synchronous advantage actor-critic training.
// The original Pensieve trains with A3C (16 asynchronous workers); we use
// the synchronous variant, which is deterministic for a fixed seed
// regardless of scheduling.
type TrainConfig struct {
	Net NetConfig
	// Gamma is the discount factor.
	Gamma float64
	// Epochs is the number of update rounds.
	Epochs int
	// RolloutsPerEpoch is the number of episodes gathered per round
	// (Pensieve uses 16 parallel agents).
	RolloutsPerEpoch int
	// MaxStepsPerEpisode truncates episodes (0 = play to completion).
	MaxStepsPerEpisode int
	// LRActor and LRCritic are Adam learning rates (Pensieve: 1e-4 and
	// 1e-3).
	LRActor  float64
	LRCritic float64
	// EntropyInit and EntropyFinal bound the linearly decayed entropy
	// regularization weight, as in Pensieve's training schedule.
	EntropyInit  float64
	EntropyFinal float64
	// GradClip bounds the global gradient norm (0 disables).
	GradClip float64
	// NormalizeAdv standardizes advantages (zero mean, unit variance)
	// across each update batch, which stabilizes policy gradients when
	// QoE rewards span orders of magnitude across traces.
	NormalizeAdv bool
	// Seed drives initialization and rollout randomness.
	Seed uint64
	// Workers is the number of rollout goroutines (0 = GOMAXPROCS).
	Workers int
}

// DefaultTrainConfig returns the training setup used by the experiment
// harness.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Net:              DefaultNetConfig(),
		Gamma:            0.99,
		Epochs:           120,
		RolloutsPerEpoch: 16,
		LRActor:          1e-4,
		LRCritic:         1e-3,
		EntropyInit:      0.5,
		EntropyFinal:     0.02,
		GradClip:         5,
		NormalizeAdv:     true,
		Seed:             1,
	}
}

// Validate checks the configuration.
func (c TrainConfig) Validate() error {
	if err := c.Net.Validate(); err != nil {
		return err
	}
	if c.Gamma <= 0 || c.Gamma > 1 {
		return fmt.Errorf("rl: gamma %v outside (0,1]", c.Gamma)
	}
	if c.Epochs <= 0 || c.RolloutsPerEpoch <= 0 {
		return fmt.Errorf("rl: epochs %d / rollouts %d must be positive", c.Epochs, c.RolloutsPerEpoch)
	}
	if c.LRActor <= 0 || c.LRCritic <= 0 {
		return fmt.Errorf("rl: learning rates must be positive")
	}
	return nil
}

// TrainStats records per-epoch progress.
type TrainStats struct {
	// MeanReward[e] is the mean episode return gathered in epoch e.
	MeanReward []float64
	// Entropy[e] is the mean policy entropy in epoch e.
	Entropy []float64
}

// EnvFactory builds an independent environment instance. Each rollout
// worker gets its own (environments are single-goroutine state
// machines).
type EnvFactory func() mdp.Env

// Train runs synchronous A2C and returns the trained agent. Training is
// deterministic for a fixed config (including Workers, which only
// affects goroutine count, not results).
func Train(factory EnvFactory, cfg TrainConfig) (*ActorCritic, *TrainStats, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	agent, err := NewActorCritic(cfg.Net, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	envs := make([]mdp.Env, cfg.RolloutsPerEpoch)
	for i := range envs {
		envs[i] = factory()
	}
	if envs[0].ObsDim() != cfg.Net.ObsDim() {
		return nil, nil, fmt.Errorf("rl: env obs dim %d != net obs dim %d", envs[0].ObsDim(), cfg.Net.ObsDim())
	}
	if envs[0].NumActions() != cfg.Net.Actions {
		return nil, nil, fmt.Errorf("rl: env has %d actions, net %d", envs[0].NumActions(), cfg.Net.Actions)
	}

	// Pre-derive one RNG per (epoch, rollout) so results are independent
	// of worker scheduling.
	seedRNG := stats.NewRNG(cfg.Seed ^ 0xA2C)

	actorOpt := nn.NewAdam(cfg.LRActor, 0, 0, 0)
	criticOpt := nn.NewAdam(cfg.LRCritic, 0, 0, 0)
	actorWS, criticWS := nn.NewTrainWorkspace(agent.Actor), nn.NewTrainWorkspace(agent.Critic)
	stats_ := &TrainStats{}

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		// Entropy weight decays linearly across epochs.
		frac := 0.0
		if cfg.Epochs > 1 {
			frac = float64(epoch) / float64(cfg.Epochs-1)
		}
		beta := cfg.EntropyInit + (cfg.EntropyFinal-cfg.EntropyInit)*frac

		// Gather rollouts in parallel with the policy frozen: one packed
		// copy of the actor, a one-row workspace per rollout.
		actor := nn.Pack(agent.Actor)
		trajs := make([]*mdp.Trajectory, cfg.RolloutsPerEpoch)
		rngs := make([]*stats.RNG, cfg.RolloutsPerEpoch)
		for i := range rngs {
			rngs[i] = seedRNG.Fork()
		}
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := 0; i < cfg.RolloutsPerEpoch; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				trajs[i] = mdp.Rollout(envs[i], &PolicyInference{ws: actor.NewBatchWorkspace(1)}, rngs[i], mdp.RolloutOptions{
					MaxSteps: cfg.MaxStepsPerEpisode,
				})
			}(i)
		}
		wg.Wait()

		meanReward, meanEntropy := update(agent, trajs, cfg, beta, actorOpt, criticOpt, actorWS, criticWS)
		stats_.MeanReward = append(stats_.MeanReward, meanReward)
		stats_.Entropy = append(stats_.Entropy, meanEntropy)
	}
	return agent, stats_, nil
}

// update applies one A2C gradient step from the gathered trajectories
// and returns the mean episode reward and mean policy entropy. Each
// network takes one batched forward and one batched backward; the
// critic's forward also values the final observation of every
// truncated episode, for its bootstrap.
func update(agent *ActorCritic, trajs []*mdp.Trajectory, cfg TrainConfig, beta float64,
	actorOpt, criticOpt nn.Optimizer, actorWS, criticWS *nn.TrainWorkspace) (meanReward, meanEntropy float64) {

	truncated := func(traj *mdp.Trajectory) bool {
		return cfg.MaxStepsPerEpisode > 0 && traj.Len() >= cfg.MaxStepsPerEpisode
	}
	totalSteps, boots := 0, 0
	for _, traj := range trajs {
		meanReward += traj.TotalReward()
		totalSteps += traj.Len()
		if truncated(traj) {
			boots++
		}
	}
	if totalSteps == 0 {
		return 0, 0
	}

	// Rows: every step's observation in order, then the final
	// observations to bootstrap from.
	obsDim := cfg.Net.ObsDim()
	obs := linalg.NewMatrix(totalSteps+boots, obsDim)
	actions := make([]int, totalSteps)
	row, boot := 0, totalSteps
	for _, traj := range trajs {
		for _, step := range traj.Steps {
			copy(obs.Row(row), step.Obs)
			actions[row] = step.Action
			row++
		}
		if truncated(traj) {
			copy(obs.Row(boot), traj.FinalObs)
			boot++
		}
	}
	values := criticWS.Forward(obs)

	// Returns and advantages for the whole batch, so advantages can be
	// standardized before the policy update.
	rets, advs := make([]float64, totalSteps), make([]float64, totalSteps)
	row, boot = 0, totalSteps
	for _, traj := range trajs {
		bootstrap := 0.0
		if truncated(traj) {
			bootstrap = values.At(boot, 0)
			boot++
		}
		for _, ret := range traj.DiscountedReturns(cfg.Gamma, bootstrap) {
			rets[row], advs[row] = ret, ret-values.At(row, 0)
			row++
		}
	}
	if cfg.NormalizeAdv {
		mean := stats.Mean(advs)
		std := stats.Std(advs)
		if std < 1e-8 {
			std = 1
		}
		for i := range advs {
			advs[i] = (advs[i] - mean) / std
		}
	}

	// Critic: L = (V - G)².
	criticGrad := linalg.NewMatrix(totalSteps, 1)
	for r, ret := range rets {
		criticGrad.Data[r] = 2 * (values.At(r, 0) - ret)
	}
	criticWS.Backward(criticGrad)

	// Actor: L = -log π(a|s)·A − β·H(π(·|s)). Gradient w.r.t. the
	// softmax output p: −A·1{i=a}/p_a + β(ln p_i + 1).
	probs := actorWS.Forward(&linalg.Matrix{Rows: totalSteps, Cols: obsDim, Data: obs.Data[:totalSteps*obsDim]})
	actorGrad := linalg.NewMatrix(totalSteps, probs.Cols)
	var entropySum float64
	for r, a := range actions {
		g := actorGrad.Row(r)
		for i, p := range probs.Row(r) {
			pc := math.Max(p, 1e-10)
			g[i] = beta * (math.Log(pc) + 1)
			entropySum -= p * math.Log(pc)
		}
		g[a] -= advs[r] / math.Max(probs.At(r, a), 1e-10)
	}
	actorWS.Backward(actorGrad)

	inv := 1 / float64(totalSteps)
	for _, p := range agent.Actor.Params() {
		for j := range p.G {
			p.G[j] *= inv
		}
	}
	for _, p := range agent.Critic.Params() {
		for j := range p.G {
			p.G[j] *= inv
		}
	}
	nn.ClipGradNorm(agent.Actor.Params(), cfg.GradClip)
	nn.ClipGradNorm(agent.Critic.Params(), cfg.GradClip)
	actorOpt.Step(agent.Actor.Params())
	criticOpt.Step(agent.Critic.Params())

	return meanReward / float64(len(trajs)), entropySum / float64(totalSteps)
}

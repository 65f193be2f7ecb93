package rl

import (
	"osap/internal/mdp"
	"osap/internal/stats"
)

// EvaluateAgent is called by no shipping code — the experiments package
// evaluates agents through guards — and only this package's tests use
// it, so it lives in a test file.

// EvaluateAgent runs greedy episodes of the agent and returns total
// rewards, the standard deployment-time measurement.
func EvaluateAgent(factory EnvFactory, agent *ActorCritic, seed uint64, episodes int) []float64 {
	env := factory()
	rng := stats.NewRNG(seed)
	out := make([]float64, episodes)
	for i := range out {
		traj := mdp.Rollout(env, GreedyPolicy{P: agent}, rng, mdp.RolloutOptions{})
		out[i] = traj.TotalReward()
	}
	return out
}

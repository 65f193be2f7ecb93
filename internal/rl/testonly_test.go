package rl

import (
	"osap/internal/mdp"
	"osap/internal/nn"
	"osap/internal/stats"
)

// The helpers below are called by no shipping code — the experiments
// package evaluates agents through guards, and the server scores value
// ensembles through ValueInference handles — and only this package's
// tests use them, so they live in a test file.

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

// NetValueFn adapts a critic network to mdp.ValueFn.
type NetValueFn struct{ Net *nn.Network }

// Value implements mdp.ValueFn.
func (n NetValueFn) Value(obs []float64) float64 { return n.Net.Forward(obs)[0] }

// ValueEnsemble adapts a set of critic networks to []mdp.ValueFn.
func ValueEnsemble(nets []*nn.Network) []mdp.ValueFn {
	vs := make([]mdp.ValueFn, len(nets))
	for i, n := range nets {
		vs[i] = NetValueFn{Net: n}
	}
	return vs
}

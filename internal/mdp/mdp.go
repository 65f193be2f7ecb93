// Package mdp defines the sequential decision-making abstractions from
// §2.1 of the paper: episodic environments with vector observations and
// discrete actions, stochastic policies, value functions, observation
// histories, and rollout machinery. Every other component — the
// actor-critic agents, the baseline heuristics, the uncertainty signals,
// and the safety Guard — speaks these interfaces.
package mdp

import (
	"fmt"

	"osap/internal/stats"
)

// Env is an episodic Markov decision process. Observations are flattened
// float64 vectors; actions are indices in [0, NumActions()).
//
// Implementations are single-episode state machines: Reset starts a new
// episode and Step advances it. They are not safe for concurrent use;
// run one Env per goroutine.
type Env interface {
	// Reset starts a new episode and returns the initial observation.
	// The RNG drives all of the episode's stochasticity, making
	// episodes reproducible.
	Reset(rng *stats.RNG) []float64
	// Step applies an action, returning the next observation, the
	// reward for the transition, and whether the episode ended.
	Step(action int) (obs []float64, reward float64, done bool)
	// NumActions returns the size of the discrete action set.
	NumActions() int
	// ObsDim returns the length of observation vectors.
	ObsDim() int
}

// Policy maps an observation to a probability distribution over actions
// (π(·|s), §2.1). Deterministic policies return a one-hot vector.
// Implementations must be safe for concurrent calls if they are shared
// across rollout workers. The returned slice is only guaranteed valid
// until the next Probs call on the same policy — workspace-backed
// implementations (rl.PolicyInference) reuse their output buffer, so
// callers that retain a distribution must copy it (Rollout does).
type Policy interface {
	Probs(obs []float64) []float64
}

// ValueFn estimates the expected discounted return from an observation
// (V^π, §2.1).
type ValueFn interface {
	Value(obs []float64) float64
}

// PolicyFunc adapts a plain function to the Policy interface.
type PolicyFunc func(obs []float64) []float64

// Probs implements Policy.
func (f PolicyFunc) Probs(obs []float64) []float64 { return f(obs) }

// OneHot returns a one-hot distribution of length n with all mass on
// action a. It panics if a is out of range.
func OneHot(n, a int) []float64 {
	if a < 0 || a >= n {
		panic(fmt.Sprintf("mdp: OneHot action %d out of range [0,%d)", a, n))
	}
	p := make([]float64, n)
	p[a] = 1
	return p
}

// SampleAction draws an action from the distribution probs. Probability
// mass is consumed left to right; any residual mass from floating-point
// rounding goes to the final action.
func SampleAction(rng *stats.RNG, probs []float64) int {
	u := rng.Float64()
	var cum float64
	for a, p := range probs {
		cum += p
		if u < cum {
			return a
		}
	}
	return len(probs) - 1
}

// ArgmaxAction returns the most probable action (ties broken toward the
// lower index).
//
//osap:hotpath
func ArgmaxAction(probs []float64) int {
	best, bestP := 0, probs[0]
	for a, p := range probs[1:] {
		if p > bestP {
			best, bestP = a+1, p
		}
	}
	return best
}

// Transition is one (s, a, r) step of an episode, including the policy's
// full action distribution at that step (needed by the U_π signal and by
// policy-gradient training).
type Transition struct {
	Obs    []float64
	Action int
	Reward float64
	Probs  []float64
}

// Trajectory is the history h_t of one episode.
type Trajectory struct {
	Steps []Transition
	// FinalObs is the observation after the last step (s_T).
	FinalObs []float64
}

// TotalReward returns the undiscounted sum of rewards.
func (tr *Trajectory) TotalReward() float64 {
	var sum float64
	for _, s := range tr.Steps {
		sum += s.Reward
	}
	return sum
}

// Len returns the number of steps.
func (tr *Trajectory) Len() int { return len(tr.Steps) }

// DiscountedReturns computes the per-step discounted return
// G_t = Σ_{k≥t} γ^{k-t} r_k of an episode that ended at its last step.
func (tr *Trajectory) DiscountedReturns(gamma float64) []float64 {
	n := len(tr.Steps)
	returns := make([]float64, n)
	var g float64
	for t := n - 1; t >= 0; t-- {
		g = tr.Steps[t].Reward + gamma*g
		returns[t] = g
	}
	return returns
}

// RolloutOptions configures Rollout.
type RolloutOptions struct {
	// MaxSteps truncates the episode after this many steps (0 means no
	// limit).
	MaxSteps int
	// Greedy selects the argmax action instead of sampling.
	Greedy bool
	// OnStep, if non-nil, is invoked after every step with the step
	// index and the transition, before the next observation is acted
	// on. It is how evaluation hooks (e.g. uncertainty monitors)
	// observe an episode without owning the loop.
	OnStep func(t int, tr Transition)
}

// Rollout runs policy in env for one episode and returns the trajectory.
func Rollout(env Env, policy Policy, rng *stats.RNG, opts RolloutOptions) *Trajectory {
	obs := env.Reset(rng)
	traj := &Trajectory{}
	for t := 0; opts.MaxSteps == 0 || t < opts.MaxSteps; t++ {
		probs := policy.Probs(obs)
		var action int
		if opts.Greedy {
			action = ArgmaxAction(probs)
		} else {
			action = SampleAction(rng, probs)
		}
		next, reward, done := env.Step(action)
		// The trajectory outlives this step, but probs may alias a
		// buffer the policy reuses on its next call — snapshot it.
		tr := Transition{Obs: obs, Action: action, Reward: reward, Probs: append([]float64(nil), probs...)}
		traj.Steps = append(traj.Steps, tr)
		if opts.OnStep != nil {
			opts.OnStep(t, tr)
		}
		obs = next
		if done {
			break
		}
	}
	traj.FinalObs = obs
	return traj
}

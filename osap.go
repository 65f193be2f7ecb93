// Package osap is the public API of this repository: a Go implementation
// of Online Safety Assurance for Learning-Augmented Systems (Rotman,
// Schapira, Tamar — HotNets '20).
//
// A learning-augmented system (a deep-RL policy, a learned predictor, …)
// performs well while its operational environment resembles its training
// environment and can fail badly outside it. OSAP builds a safety net
// into the system: an uncertainty Signal watches each decision step, a
// Trigger turns the noisy per-step scores into a robust defaulting
// decision, and a Guard swaps the learned policy for a battle-tested
// default when the trigger fires.
//
// The three signals proposed by the paper:
//
//   - StateSignal (U_S): novelty detection on observed environment
//     states, via a one-class SVM over windowed state features.
//   - PolicySignal (U_π): KL-divergence disagreement within an ensemble
//     of agents that differ only in network initialization.
//   - ValueSignal (U_V): disagreement within an ensemble of value
//     functions trained on the deployed agent's own experience.
//
// Minimal usage:
//
//	sig, _ := osap.NewValueSignal(valueEnsemble, osap.DefaultEnsembleConfig())
//	trig := osap.NewTrigger(osap.VarianceTriggerConfig(alpha, 3))
//	guard, _ := osap.NewGuard(learnedPolicy, safePolicy, sig, trig)
//	// use guard as the system's policy; call guard.Reset() per episode
//
// The substrates behind the paper's ABR case study (the Pensieve-style
// actor-critic and its trainer, the chunk-level streaming simulator, the
// packet-level network emulator, the trace generators, and the full
// figure-regeneration harness) live under internal/; the binaries in
// cmd/ drive them, and the package's runnable examples (go test -run
// Example -v .) walk through the API.
package osap

import (
	"osap/internal/core"
	"osap/internal/mdp"
	"osap/internal/ocsvm"
	"osap/internal/stats"
)

// Core decision-making abstractions (see internal/mdp).
type (
	// Env is an episodic decision process with vector observations and
	// discrete actions.
	Env = mdp.Env
	// Policy maps an observation to a distribution over actions.
	Policy = mdp.Policy
	// PolicyFunc adapts a function to Policy.
	PolicyFunc = mdp.PolicyFunc
	// ValueFn estimates expected return from an observation.
	ValueFn = mdp.ValueFn
	// Trajectory is one episode's history.
	Trajectory = mdp.Trajectory
)

// OSAP machinery (see internal/core).
type (
	// Signal quantifies per-step decision uncertainty.
	Signal = core.Signal
	// StateSignal is U_S: state novelty detection, scoring the OC-SVM
	// margin (positive = out-of-distribution).
	StateSignal = core.StateSignal
	// StateSignalConfig windows the state features.
	StateSignalConfig = core.StateSignalConfig
	// PolicySignal is U_π: agent-ensemble disagreement.
	PolicySignal = core.PolicySignal
	// ValueSignal is U_V: value-ensemble disagreement.
	ValueSignal = core.ValueSignal
	// EnsembleConfig sets the trimming rule for ensemble signals.
	EnsembleConfig = core.EnsembleConfig
	// FuncSignal adapts a scoring function (e.g. an RND error) to
	// Signal.
	FuncSignal = core.FuncSignal
	// Trigger converts scores into the defaulting decision: a statistic
	// over α for L consecutive steps, then a latch (optionally with
	// probation). A non-finite score defaults its step and stays out
	// of the statistic.
	Trigger = core.Trigger
	// TriggerConfig parameterizes a Trigger's statistic
	// (Trigger.Statistic): K = 0 thresholds the raw score, K ≥ 2 the
	// variance of the last K, and Running an EWMA or a CUSUM, the
	// alternative thresholding strategies (future-work extensions).
	TriggerConfig = core.TriggerConfig
	// Running parameterizes the EWMA or CUSUM of TriggerConfig.Running.
	Running = core.Running
	// Guard is the safety-wrapped policy.
	Guard = core.Guard
	// Decision is the per-step outcome reported by Guard.Decide: the
	// acting policy's distribution plus the uncertainty score, the
	// learned/default flag and the trigger state.
	Decision = core.Decision
	// EpisodeResult summarizes one guarded episode.
	EpisodeResult = core.EpisodeResult
	// CalibrationResult reports a calibrated threshold.
	CalibrationResult = core.CalibrationResult
	// OCSVM is a trained one-class SVM novelty detector.
	OCSVM = ocsvm.Model
	// OCSVMConfig parameterizes OC-SVM training.
	OCSVMConfig = ocsvm.Config
	// RNG is the deterministic random source used throughout.
	RNG = stats.RNG
)

// NewRNG returns a seeded deterministic generator.
func NewRNG(seed uint64) *RNG { return stats.NewRNG(seed) }

// NewGuard assembles a safety-enhanced policy from a learned policy, a
// safe default, an uncertainty signal and a trigger over any of its
// statistics.
func NewGuard(learned, def Policy, sig Signal, trig *Trigger) (*Guard, error) {
	return core.NewGuard(learned, def, sig, trig)
}

// NewTrigger builds a trigger from its configuration.
func NewTrigger(cfg TriggerConfig) *Trigger { return core.NewTrigger(cfg) }

// StateTriggerConfig is the paper's U_S trigger: default after three
// consecutive out-of-distribution classifications (positive margins).
func StateTriggerConfig() TriggerConfig { return core.StateTriggerConfig() }

// VarianceTriggerConfig is the paper's U_π/U_V trigger shape: the
// variance of the score over the last five steps must exceed alpha for l
// consecutive steps.
func VarianceTriggerConfig(alpha float64, l int) TriggerConfig {
	return core.VarianceTriggerConfig(alpha, l)
}

// DefaultEnsembleConfig keeps 3 of 5 ensemble members, as in the paper.
func DefaultEnsembleConfig() EnsembleConfig { return core.DefaultEnsembleConfig() }

// DefaultStateSignalConfig is the paper's empirical-dataset U_S
// windowing (10-sample summaries, 5 pairs per OC-SVM sample).
func DefaultStateSignalConfig() StateSignalConfig { return core.DefaultStateSignalConfig() }

// NewStateSignal builds U_S from a trained OC-SVM and an extractor that
// pulls the monitored scalar (e.g. measured throughput) out of an
// observation.
func NewStateSignal(model *OCSVM, extract func([]float64) float64, cfg StateSignalConfig) (*StateSignal, error) {
	return core.NewStateSignal(model, extract, cfg)
}

// NewPolicySignal builds U_π from an agent ensemble.
func NewPolicySignal(members []Policy, cfg EnsembleConfig) (*PolicySignal, error) {
	return core.NewPolicySignal(members, cfg)
}

// NewValueSignal builds U_V from a value-function ensemble.
func NewValueSignal(members []ValueFn, cfg EnsembleConfig) (*ValueSignal, error) {
	return core.NewValueSignal(members, cfg)
}

// BuildStateFeatures converts a scalar observation series into U_S
// training features, using the same windowing as the online signal.
func BuildStateFeatures(series []float64, cfg StateSignalConfig) [][]float64 {
	return core.BuildStateFeatures(series, cfg)
}

// TrainOCSVM fits the one-class SVM used by U_S.
func TrainOCSVM(features [][]float64, cfg OCSVMConfig) (*OCSVM, error) {
	return ocsvm.Train(features, cfg)
}

// DefaultOCSVMConfig returns ν = 0.05, matching the classic 95%
// true-positive novelty-detection calibration.
func DefaultOCSVMConfig() OCSVMConfig { return ocsvm.DefaultConfig() }

// Calibrate chooses a variance-trigger threshold so the guarded system
// matches targetQoE in-distribution (the paper's fair-comparison rule).
func Calibrate(eval func(alpha float64) float64, targetQoE, lo, hi float64, iters int) (CalibrationResult, error) {
	return core.Calibrate(eval, targetQoE, lo, hi, iters)
}

// EvaluateGuard runs guarded episodes, resetting the guard between
// episodes.
func EvaluateGuard(env Env, g *Guard, rng *RNG, episodes int) []EpisodeResult {
	return core.EvaluateGuard(env, g, rng, episodes)
}

// MeanQoE averages episode QoE.
func MeanQoE(results []EpisodeResult) float64 { return core.MeanQoE(results) }

// Rollout runs one episode of a policy in an environment.
func Rollout(env Env, policy Policy, rng *RNG, maxSteps int) *Trajectory {
	return mdp.Rollout(env, policy, rng, mdp.RolloutOptions{MaxSteps: maxSteps})
}

// CalibrateCUSUM derives a CUSUM trigger configuration from
// in-distribution scores.
func CalibrateCUSUM(inDistScores []float64, hSigmas float64, latched bool) TriggerConfig {
	return core.CalibrateCUSUM(inDistScores, hSigmas, latched)
}

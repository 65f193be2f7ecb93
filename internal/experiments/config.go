// Package experiments is the reproduction harness for the paper's
// evaluation (§3): it generates the six datasets, trains a Pensieve
// agent ensemble, value-function ensemble and OC-SVM per training
// distribution, calibrates the U_π/U_V defaulting thresholds to match
// the ND scheme in-distribution (§2.5), evaluates every scheme on every
// (train, test) dataset pair, normalizes scores against Random (0) and
// BB (1), and renders each of the paper's figures as a text table.
//
// Every artifact is a deterministic function of its seeds; cmd/osap-vet's
// nondeterminism analyzer enforces that.
//
//osap:deterministic
package experiments

import (
	"fmt"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/ocsvm"
	"osap/internal/rl"
	"osap/internal/trace"
)

// Config sizes a full reproduction run.
type Config struct {
	// Registry sizes the generated datasets.
	Registry trace.RegistryConfig
	// Train is the per-agent A2C budget. Its seed, and those of Value
	// and OCSVM, must be 0: the lab derives them from Seed and the
	// dataset.
	Train rl.TrainConfig
	// Value is the per-member value-function training budget; its Net
	// and Gamma must be Train's.
	Value rl.ValueTrainConfig
	// OCSVM configures the U_S novelty detector.
	OCSVM ocsvm.Config
	// EnsembleSize is the number of agents / value functions per
	// ensemble (paper: 5).
	EnsembleSize int
	// Trim is the ensemble trimming rule (paper: discard 2 of 5).
	Trim core.EnsembleConfig
	// StateKEmpirical / StateKSynthetic are the U_S window sizes: the
	// paper uses k=5 for the empirical datasets and k=30 for the
	// synthetic ones.
	StateKEmpirical int
	StateKSynthetic int
	// ThroughputWindow is the per-pair summary window (paper: 10).
	ThroughputWindow int
	// TriggerL is the consecutive-steps requirement (paper: 3).
	TriggerL int
	// CalibIters bounds threshold-calibration bisection steps.
	CalibIters int
	// CalibEpisodes is the number of validation episodes per
	// calibration evaluation.
	CalibEpisodes int
	// EvalEpisodes is the number of test episodes per (train, test,
	// scheme) measurement.
	EvalEpisodes int
	// OCSVMEpisodes is the number of training-trace rollouts used to
	// collect U_S training features.
	OCSVMEpisodes int
	// SelectBestAgent deploys the ensemble member with the best
	// validation QoE instead of member 0. The paper deploys a single
	// trained Pensieve; selecting the best of the ensemble on validation
	// data approximates the authors' (tuned) instance without extra
	// training.
	SelectBestAgent bool
	// TrainVideo is streamed during agent training (the 48-chunk base
	// video); EvalVideo during evaluation (the paper's ×5 concatenation,
	// 240 chunks).
	TrainVideo *abr.Video
	EvalVideo  *abr.Video
	// Seed is the master seed.
	Seed uint64
}

// PaperConfig returns the full-scale reproduction configuration used by
// cmd/osap-repro.
func PaperConfig() Config {
	train := rl.DefaultTrainConfig()
	train.Epochs = 500
	train.LRActor = 2e-4
	train.Seed = 0
	value := rl.DefaultValueTrainConfig()
	value.Episodes = 32
	value.Passes = 30
	value.Seed, value.InitSeed = 0, 0
	base := abr.SyntheticVideo(0xE14100, 48, 4)
	return Config{
		Registry:         trace.DefaultRegistryConfig(),
		Train:            train,
		Value:            value,
		OCSVM:            ocsvm.Config{Nu: 0.05, MaxSamples: 800},
		EnsembleSize:     5,
		Trim:             core.DefaultEnsembleConfig(),
		StateKEmpirical:  5,
		StateKSynthetic:  30,
		ThroughputWindow: 10,
		TriggerL:         3,
		CalibIters:       8,
		CalibEpisodes:    12,
		EvalEpisodes:     12,
		OCSVMEpisodes:    24,
		SelectBestAgent:  true,
		TrainVideo:       base,
		EvalVideo:        base.Repeat(5),
		Seed:             20201104,
	}
}

// QuickConfig returns a drastically scaled-down configuration for tests
// and benchmarks: tiny training budgets, small ensembles of episodes,
// short videos. The qualitative pipeline is identical.
func QuickConfig() Config {
	cfg := PaperConfig()
	cfg.Registry = trace.RegistryConfig{Seed: 20201104, TracesPer: 12, DurationSec: 200}
	cfg.Train.Epochs = 12
	cfg.Train.RolloutsPerEpoch = 6
	cfg.Value.Episodes = 6
	cfg.Value.Passes = 4
	cfg.OCSVM.MaxSamples = 300
	cfg.EnsembleSize = 3
	cfg.Trim = core.EnsembleConfig{Discard: 1}
	cfg.StateKSynthetic = 10
	cfg.CalibIters = 4
	cfg.CalibEpisodes = 3
	cfg.EvalEpisodes = 3
	cfg.OCSVMEpisodes = 6
	cfg.TrainVideo = abr.SyntheticVideo(0xE14100, 24, 4)
	cfg.EvalVideo = abr.SyntheticVideo(0xE14100, 24, 4).Repeat(2)
	return cfg
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.EnsembleSize < 2 {
		return fmt.Errorf("experiments: ensemble size %d < 2", c.EnsembleSize)
	}
	if c.Trim.Discard >= c.EnsembleSize {
		return fmt.Errorf("experiments: discard %d ≥ ensemble %d", c.Trim.Discard, c.EnsembleSize)
	}
	if c.TrainVideo == nil || c.EvalVideo == nil {
		return fmt.Errorf("experiments: TrainVideo and EvalVideo are required")
	}
	if c.EvalEpisodes < 1 || c.CalibEpisodes < 1 || c.OCSVMEpisodes < 1 {
		return fmt.Errorf("experiments: episode counts must be positive")
	}
	if c.TriggerL < 1 {
		return fmt.Errorf("experiments: TriggerL %d < 1", c.TriggerL)
	}
	if err := c.Train.Validate(); err != nil {
		return err
	}
	if err := c.Value.Validate(); err != nil {
		return err
	}
	if c.Value.Net != c.Train.Net || c.Value.Gamma != c.Train.Gamma {
		return fmt.Errorf("experiments: Value.Net %+v and Value.Gamma %v must be Train's, %+v and %v",
			c.Value.Net, c.Value.Gamma, c.Train.Net, c.Train.Gamma)
	}
	for i, v := range [...]uint64{c.Train.Seed, c.Value.Seed, c.Value.InitSeed, c.OCSVM.Seed} {
		if v != 0 {
			name := [...]string{"Train.Seed", "Value.Seed", "Value.InitSeed", "OCSVM.Seed"}[i]
			return fmt.Errorf("experiments: %s is %d, want 0: the lab derives it from Config.Seed and the dataset", name, v)
		}
	}
	return nil
}

// guardRecord is the record the lab calibrates a dataset's thresholds
// under. It is the one dataset→window rule: k is StateKEmpirical for
// the empirical datasets and StateKSynthetic for the synthetic ones.
func (c Config) guardRecord(dataset string) Record {
	k := c.StateKSynthetic
	if trace.IsEmpirical(dataset) {
		k = c.StateKEmpirical
	}
	return Record{ThroughputWindow: c.ThroughputWindow, K: k, TriggerL: c.TriggerL, Discard: c.Trim.Discard}
}

// Scheme names, as presented in the paper's figures.
const (
	SchemePensieve = "Pensieve"
	SchemeND       = "ND"
	SchemeAEns     = "A-ensemble"
	SchemeVEns     = "V-ensemble"
	SchemeBB       = "BB"
	SchemeRandom   = "Random"
)

// Schemes returns all evaluated schemes in presentation order.
func Schemes() []string {
	return []string{SchemePensieve, SchemeND, SchemeAEns, SchemeVEns, SchemeBB, SchemeRandom}
}

// hashString derives a deterministic 64-bit seed component from a string
// (FNV-1a).
func hashString(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// Package core implements the paper's contribution: the online safety
// assurance problem (OSAP). It provides the three uncertainty signals —
// U_S (state novelty via a one-class SVM), U_π (agent-ensemble
// disagreement in KL divergence) and U_V (value-ensemble disagreement) —
// the windowed thresholding and l-consecutive trigger logic of §2.5/§3.1,
// threshold calibration against a reference scheme, and the Guard: a
// policy wrapper that streams with the learned policy while decisions
// look reliable and defaults to a safe policy when uncertainty is
// detected.
package core

import (
	"fmt"

	"osap/internal/ocsvm"
	"osap/internal/stats"
)

// Signal quantifies the uncertainty of the agent's upcoming decision
// from the observation history (§2.3). Observe is called once per time
// step, in order; Reset starts a new episode. Signals are single-episode
// state machines and not safe for concurrent use.
type Signal interface {
	// Observe ingests the step's observation and returns the raw
	// uncertainty score: for U_S the OC-SVM margin (positive =
	// out-of-distribution), for U_π and U_V a continuous non-negative
	// disagreement.
	Observe(obs []float64) float64
	// Reset clears per-episode state.
	Reset()
	// Name identifies the signal ("ND", "A-ensemble", "V-ensemble").
	Name() string
}

// StateSignalConfig parameterizes the U_S novelty-detection signal
// (§3.1): at each step the mean and standard deviation of the
// ThroughputWindow most recent throughput samples are computed, and the
// K latest [mean, deviation] pairs form the sample classified by the
// OC-SVM.
type StateSignalConfig struct {
	// ThroughputWindow is the number of recent throughput samples
	// summarized per pair (the paper uses 10).
	ThroughputWindow int
	// K is the number of [mean, std] pairs per OC-SVM sample: 5 for
	// the empirical datasets, 30 for the synthetic ones.
	K int
}

// DefaultStateSignalConfig returns the paper's empirical-dataset
// configuration.
func DefaultStateSignalConfig() StateSignalConfig {
	return StateSignalConfig{ThroughputWindow: 10, K: 5}
}

// FeatureDim returns the OC-SVM input dimension (2K).
func (c StateSignalConfig) FeatureDim() int { return 2 * c.K }

// Validate checks the configuration.
func (c StateSignalConfig) Validate() error {
	if c.ThroughputWindow < 2 {
		return fmt.Errorf("core: ThroughputWindow %d < 2", c.ThroughputWindow)
	}
	if c.K < 1 {
		return fmt.Errorf("core: K %d < 1", c.K)
	}
	return nil
}

// StateFeaturizer turns a stream of scalar throughput samples into the
// paper's windowed [mean, std] features. It is the one feature
// extraction behind U_S: StateSignal streams through one, and
// BuildStateFeatures runs one offline, so train and test features are
// computed identically. Single-goroutine, like every per-session
// component.
type StateFeaturizer struct {
	thrWin *stats.RollingWindow
	means  *stats.RollingWindow
	stds   *stats.RollingWindow
	// Reused per-Observe buffers; the slice Observe returns aliases
	// feat and is only valid until the next Observe.
	msBuf []float64
	ssBuf []float64
	feat  []float64
}

// NewStateFeaturizer validates the windowing config and returns an
// empty featurizer.
func NewStateFeaturizer(cfg StateSignalConfig) (*StateFeaturizer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &StateFeaturizer{
		thrWin: stats.NewRollingWindow(cfg.ThroughputWindow),
		means:  stats.NewRollingWindow(cfg.K),
		stds:   stats.NewRollingWindow(cfg.K),
		msBuf:  make([]float64, 0, cfg.K),
		ssBuf:  make([]float64, 0, cfg.K),
		feat:   make([]float64, 0, 2*cfg.K),
	}, nil
}

// Observe ingests one throughput sample and returns the current
// feature vector [mean_1, std_1, …, mean_K, std_K] (oldest pair
// first), or nil while the windows are still filling. The returned
// slice is a buffer owned by the featurizer, valid until the next
// Observe; callers that retain it must copy (BuildStateFeatures does).
//
//osap:hotpath
func (f *StateFeaturizer) Observe(sample float64) []float64 {
	f.thrWin.Add(sample)
	if f.thrWin.Len() < 2 {
		return nil
	}
	f.means.Add(f.thrWin.Mean())
	f.stds.Add(f.thrWin.Std())
	if !f.means.Full() {
		return nil
	}
	ms := f.means.ValuesInto(f.msBuf[:0])
	ss := f.stds.ValuesInto(f.ssBuf[:0])
	feat := f.feat[:0]
	for i := range ms {
		feat = append(feat, ms[i], ss[i])
	}
	return feat
}

// Reset clears the windows (new episode).
func (f *StateFeaturizer) Reset() {
	f.thrWin.Reset()
	f.means.Reset()
	f.stds.Reset()
}

// BuildStateFeatures converts a throughput time series (e.g. the
// measured per-chunk throughputs of training rollouts) into OC-SVM
// training samples, using exactly the same windowing as the online
// signal. An invalid config yields no samples.
func BuildStateFeatures(throughputs []float64, cfg StateSignalConfig) [][]float64 {
	f, err := NewStateFeaturizer(cfg)
	if err != nil {
		return nil
	}
	var out [][]float64
	for _, thr := range throughputs {
		if feat := f.Observe(thr); feat != nil {
			out = append(out, append([]float64(nil), feat...))
		}
	}
	return out
}

// StateSignal is U_S: novelty detection on the observed environment
// states (§2.4). Extract pulls the throughput measurement out of the
// observation vector (for the ABR case study,
// abr.LastThroughputMbps).
type StateSignal struct {
	Model   *ocsvm.Model
	Extract func(obs []float64) float64
	feats   *StateFeaturizer
	last    []float64 // the feature vector the last Observe scored; nil while filling
}

// NewStateSignal builds the U_S signal from a trained OC-SVM model.
func NewStateSignal(model *ocsvm.Model, extract func([]float64) float64, cfg StateSignalConfig) (*StateSignal, error) {
	if model == nil {
		return nil, fmt.Errorf("core: StateSignal requires a trained OC-SVM model")
	}
	if extract == nil {
		return nil, fmt.Errorf("core: StateSignal requires an extractor")
	}
	feats, err := NewStateFeaturizer(cfg)
	if err != nil {
		return nil, err
	}
	if model.Dim != cfg.FeatureDim() {
		return nil, fmt.Errorf("core: OC-SVM dim %d != feature dim %d", model.Dim, cfg.FeatureDim())
	}
	return &StateSignal{Model: model, Extract: extract, feats: feats}, nil
}

// Observe implements Signal: the OC-SVM margin −Decision of the
// windowed state features, positive exactly when they are classified
// out-of-distribution (Decision < 0), which the threshold 0 of
// StateTriggerConfig tests. Non-finite features score non-finite. While the windows are filling it reports
// 0 (no evidence of novelty yet).
//
//osap:hotpath
func (s *StateSignal) Observe(obs []float64) float64 {
	s.last = s.feats.Observe(s.Extract(obs)) //osap:hotpath-stop Extract is a pure accessor (abr.LastThroughputMbps): one index read
	if s.last == nil {
		return 0
	}
	return -s.Model.Decision(s.last)
}

// Features returns the feature vector the last Observe scored, or nil
// while the windows are filling. It aliases the featurizer's buffer:
// valid until the next Observe; callers that retain it must copy.
func (s *StateSignal) Features() []float64 { return s.last }

// Reset implements Signal.
func (s *StateSignal) Reset() {
	s.feats.Reset()
	s.last = nil
}

// Name implements Signal.
func (s *StateSignal) Name() string { return "ND" }

// FuncSignal adapts a stateless scoring function to the Signal
// interface. It is how alternative novelty estimators (e.g. random
// network distillation, internal/rl.RND) plug into the Guard without a
// bespoke type.
type FuncSignal struct {
	// F scores one observation (higher = more uncertain).
	F func(obs []float64) float64
	// SignalName labels the signal in reports.
	SignalName string
}

// Observe implements Signal.
func (f FuncSignal) Observe(obs []float64) float64 { return f.F(obs) }

// Reset implements Signal (stateless).
func (f FuncSignal) Reset() {}

// Name implements Signal.
func (f FuncSignal) Name() string {
	if f.SignalName == "" {
		return "func"
	}
	return f.SignalName
}

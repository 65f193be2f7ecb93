package rl

import (
	"fmt"

	"osap/internal/linalg"
	"osap/internal/mdp"
	"osap/internal/nn"
	"osap/internal/stats"
)

// RNDConfig parameterizes Random Network Distillation (Burda et al.,
// cited as [10] in the paper's related work): a fixed randomly
// initialized *target* network maps observations to embeddings, and a
// *predictor* network is trained to match it on training-distribution
// observations. At test time the prediction error is small on states
// like those seen in training and large on novel states — an
// alternative state-uncertainty signal to the OC-SVM behind U_S,
// explored here as a future-work extension.
type RNDConfig struct {
	// Net shapes both networks' trunk (the output head is replaced by
	// EmbedDim).
	Net NetConfig
	// EmbedDim is the embedding size (default 16).
	EmbedDim int
	// LR, Passes and BatchSize drive predictor training.
	LR        float64
	Passes    int
	BatchSize int
	// Seed drives the target initialization, predictor initialization
	// and shuffling.
	Seed uint64
}

// DefaultRNDConfig returns the harness defaults.
func DefaultRNDConfig() RNDConfig {
	return RNDConfig{
		Net:       DefaultNetConfig(),
		EmbedDim:  16,
		LR:        1e-3,
		Passes:    10,
		BatchSize: 64,
		Seed:      1,
	}
}

// RND is a trained distillation pair. It is immutable after training and
// safe for concurrent Error calls.
type RND struct {
	Target    *nn.Network
	Predictor *nn.Network
	// Scale normalizes errors by the mean training error, so ~1 means
	// "as familiar as training data".
	Scale float64
}

// buildEmbedNet constructs an embedding network with the trunk of cfg.Net
// and an EmbedDim output head.
func buildEmbedNet(cfg RNDConfig, rng *stats.RNG) *nn.Network {
	n := cfg.Net
	convOut := n.ConvFilters * (n.HistoryLen - n.ConvKernel + 1)
	net := nn.NewNetwork(
		nn.Conv1D(n.ObsChannels, n.HistoryLen, n.ConvFilters, n.ConvKernel),
		nn.ReLU(convOut),
		nn.Dense(convOut, n.Hidden),
		nn.ReLU(n.Hidden),
		nn.Dense(n.Hidden, cfg.EmbedDim),
	)
	nn.HeInit(net, rng)
	return net
}

// TrainRND fits a predictor to the random target on the given
// observations (e.g. the states visited by the deployed agent during
// training).
func TrainRND(observations [][]float64, cfg RNDConfig) (*RND, error) {
	if err := cfg.Net.Validate(); err != nil {
		return nil, err
	}
	if len(observations) == 0 {
		return nil, fmt.Errorf("rl: TrainRND needs observations")
	}
	if cfg.EmbedDim <= 0 {
		cfg.EmbedDim = 16
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	if cfg.Passes <= 0 {
		cfg.Passes = 10
	}
	for i, o := range observations {
		if len(o) != cfg.Net.ObsDim() {
			return nil, fmt.Errorf("rl: TrainRND observation %d has dim %d, want %d",
				i, len(o), cfg.Net.ObsDim())
		}
	}

	target := buildEmbedNet(cfg, stats.NewRNG(cfg.Seed^0x7a96e7))
	pred := buildEmbedNet(cfg, stats.NewRNG(cfg.Seed^0x9ed1c7))

	// The observations as one matrix; a batch is a run of its rows.
	obsDim := cfg.Net.ObsDim()
	all := linalg.NewMatrix(len(observations), obsDim)
	for i, o := range observations {
		copy(all.Row(i), o)
	}
	rows := func(start, end int) *linalg.Matrix {
		return &linalg.Matrix{Rows: end - start, Cols: obsDim, Data: all.Data[start*obsDim : end*obsDim]}
	}

	// Precompute target embeddings (the target is frozen).
	embeds := linalg.NewMatrix(len(observations), cfg.EmbedDim)
	frozen := nn.Pack(target).NewBatchWorkspace(cfg.BatchSize)
	for start := 0; start < len(observations); start += cfg.BatchSize {
		end := min(start+cfg.BatchSize, len(observations))
		copy(embeds.Data[start*cfg.EmbedDim:], frozen.Forward(rows(start, end)).Data)
	}

	opt := nn.NewAdam(cfg.LR, 0, 0, 0)
	shuffle := stats.NewRNG(cfg.Seed ^ 0x5f1e)
	ws := nn.NewTrainWorkspace(pred)
	in := linalg.NewMatrix(cfg.BatchSize, obsDim)
	grad := linalg.NewMatrix(cfg.BatchSize, cfg.EmbedDim)
	for pass := 0; pass < cfg.Passes; pass++ {
		order := shuffle.Perm(len(observations))
		for start := 0; start < len(order); start += cfg.BatchSize {
			end := min(start+cfg.BatchSize, len(order))
			batch := order[start:end]
			in.Rows, grad.Rows = len(batch), len(batch)
			for r, idx := range batch {
				copy(in.Row(r), all.Row(idx))
			}
			out := ws.Forward(in)
			for r, idx := range batch {
				for j, e := range embeds.Row(idx) {
					grad.Row(r)[j] = 2 * (out.At(r, j) - e)
				}
			}
			ws.Backward(grad)
			inv := 1 / float64(end-start)
			for _, p := range pred.Params() {
				for j := range p.G {
					p.G[j] *= inv
				}
			}
			opt.Step(pred.Params())
		}
	}

	rnd := &RND{Target: target, Predictor: pred, Scale: 1}
	// Calibrate Scale to the mean post-training error.
	var sum float64
	trained := nn.Pack(pred).NewBatchWorkspace(cfg.BatchSize)
	for start := 0; start < len(observations); start += cfg.BatchSize {
		end := min(start+cfg.BatchSize, len(observations))
		out := trained.Forward(rows(start, end))
		for r := 0; r < out.Rows; r++ {
			sum += sqDist(out.Row(r), embeds.Row(start+r))
		}
	}
	mean := sum / float64(len(observations))
	if mean > 1e-12 {
		rnd.Scale = mean
	}
	return rnd, nil
}

// sqDist is ‖a − b‖².
func sqDist(a, b []float64) float64 {
	var s float64
	for j := range a {
		d := a[j] - b[j]
		s += d * d
	}
	return s
}

// Error returns the normalized distillation error for an observation:
// ≈1 on training-like states, larger on novel ones.
func (r *RND) Error(obs []float64) float64 {
	return sqDist(r.Predictor.Forward(obs), r.Target.Forward(obs)) / r.Scale
}

// CollectObservations gathers the observations visited by a policy over
// the given number of episodes — the RND training set.
func CollectObservations(factory EnvFactory, policy mdp.Policy, episodes int, maxSteps int, seed uint64) [][]float64 {
	rng := stats.NewRNG(seed ^ 0x0b5)
	var out [][]float64
	for ep := 0; ep < episodes; ep++ {
		env := factory()
		traj := mdp.Rollout(env, policy, rng.Fork(), mdp.RolloutOptions{MaxSteps: maxSteps})
		for _, s := range traj.Steps {
			out = append(out, s.Obs)
		}
	}
	return out
}

package experiments

import (
	"fmt"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/nn"
	"osap/internal/ocsvm"
	"osap/internal/rl"
)

// Artifacts holds everything trained for one training distribution: the
// agent ensemble (member 0 is the deployed Pensieve), the external
// value-function ensemble, the OC-SVM novelty detector, and the
// calibrated U_π/U_V thresholds.
type Artifacts struct {
	Dataset   string
	Agents    []*rl.ActorCritic
	ValueNets []*nn.Network
	OCSVM     *ocsvm.Model
	// NDValQoE is the ND-guarded system's mean QoE on the validation
	// traces — the calibration target for the other two schemes (§2.5).
	NDValQoE float64
	// AlphaPi and AlphaV are the calibrated variance thresholds.
	AlphaPi float64
	AlphaV  float64
}

// withAlpha returns a shallow copy of a whose variance threshold for
// scheme (A-ensemble: AlphaPi, otherwise AlphaV) is alpha: how α
// calibration hands NewGuard a candidate.
func (a *Artifacts) withAlpha(scheme string, alpha float64) *Artifacts {
	c := *a
	if scheme == SchemeAEns {
		c.AlphaPi = alpha
	} else {
		c.AlphaV = alpha
	}
	return &c
}

// GuardConfig carries the knobs of a guard beyond the trained
// artifacts themselves. A lab's are Config.GuardConfig; a server's are
// what it was given, with Resolve filling the zero ones.
type GuardConfig struct {
	// StateSignal windows the U_S features. A zero K is read off the
	// OC-SVM (its dimension is 2K), a zero ThroughputWindow is the
	// paper's 10.
	StateSignal core.StateSignalConfig
	// TriggerL is the consecutive-steps requirement (0 → paper's 3).
	TriggerL int
	// Trim is the ensemble trimming rule; the zero value is replaced by
	// core.DefaultEnsembleConfig() on Resolve.
	Trim core.EnsembleConfig
	// ReadmitL and ReadmitCap configure probation (DESIGN.md §13): the
	// trigger re-admits the learned policy once the signal has been
	// confident for ReadmitL consecutive steps, at most ReadmitCap times
	// per episode, and a served session demoted by a non-finite score
	// recovers by the same rule. The zero values keep the paper's
	// permanent latch.
	ReadmitL   int
	ReadmitCap int
}

// Resolve fills c's zero knobs for the artifacts a (see the fields) and
// checks the U_S window against a's OC-SVM.
func (c GuardConfig) Resolve(a *Artifacts) (GuardConfig, error) {
	def := core.DefaultStateSignalConfig()
	if c.StateSignal.ThroughputWindow == 0 {
		c.StateSignal.ThroughputWindow = def.ThroughputWindow
	}
	if c.StateSignal.K == 0 {
		c.StateSignal.K = def.K
		if a.OCSVM != nil {
			c.StateSignal.K = a.OCSVM.Dim / 2
		}
	}
	if c.TriggerL == 0 {
		c.TriggerL = 3
	}
	if c.Trim == (core.EnsembleConfig{}) {
		c.Trim = core.DefaultEnsembleConfig()
	}
	if err := c.StateSignal.Validate(); err != nil {
		return c, err
	}
	if a.OCSVM != nil && a.OCSVM.Dim != c.StateSignal.FeatureDim() {
		return c, fmt.Errorf("experiments: OC-SVM dim %d != U_S feature dim %d", a.OCSVM.Dim, c.StateSignal.FeatureDim())
	}
	return c, nil
}

// NewGuard builds a scheme's guard over the artifacts a, with every
// forward on the scratch sc of a's packed networks: the deployed agent
// served greedily, the buffer-based policy as the safe default, and the
// scheme's signal and trigger with the thresholds a carries. It is the
// one place a scheme picks its signal and trigger; the figures, α
// calibration (a copy of a with a candidate AlphaPi or AlphaV), the
// extensions (which may then swap Guard.Signal, Trigger or Default) and
// every served session call it. cfg is used as given.
//
// Guards built on one scratch share its buffers and must not decide
// concurrently; a guard built on a scratch of its own is
// single-goroutine like any other.
func NewGuard(a *Artifacts, scheme string, sc *rl.Scratch, cfg GuardConfig) (*core.Guard, error) {
	var sig core.Signal
	var tc core.TriggerConfig
	var err error
	switch scheme {
	case SchemeND:
		sig, err = core.NewStateSignal(a.OCSVM, abr.LastThroughputMbps, cfg.StateSignal)
		tc = core.StateTriggerConfig()
		tc.L = cfg.TriggerL
	case SchemeAEns:
		sig, err = core.NewPolicySignal(sc.Policies(), cfg.Trim)
		tc = core.VarianceTriggerConfig(a.AlphaPi, cfg.TriggerL)
	case SchemeVEns:
		sig, err = core.NewValueSignal(sc.Values(), cfg.Trim)
		tc = core.VarianceTriggerConfig(a.AlphaV, cfg.TriggerL)
	default:
		return nil, fmt.Errorf("experiments: %q is not a guard scheme", scheme)
	}
	if err != nil {
		return nil, err
	}
	tc.ReadmitL, tc.ReadmitCap = cfg.ReadmitL, cfg.ReadmitCap
	levels := a.Agents[0].Actor.OutDim()
	def := &bbDefault{bb: abr.NewBBPolicy(levels), onehot: make([]float64, levels)}
	return core.NewGuard(sc.Greedy(), def, sig, core.NewTrigger(tc))
}

// bbDefault is every guard's safe default, the buffer-based policy:
// abr.BBPolicy emits a fresh one-hot per call, but a served session's
// defaulted steps are hot-path too, so the one-hot is written into a
// buffer the guard owns. Single-goroutine, like the rest of the guard.
type bbDefault struct {
	bb     *abr.BBPolicy
	onehot []float64
}

// Probs implements mdp.Policy without heap allocation; the result is
// valid until the next call.
//
//osap:hotpath
func (p *bbDefault) Probs(obs []float64) []float64 {
	for i := range p.onehot {
		p.onehot[i] = 0
	}
	p.onehot[p.bb.Level(abr.BufferSecFromObs(obs))] = 1
	return p.onehot
}

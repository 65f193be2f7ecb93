// Package serve hosts OSAP guards behind an HTTP front door: the online
// safety decision of the paper (§2.5, §3.1) as a long-running,
// multi-tenant service rather than an offline experiment loop.
//
// One process loads a training run's artifacts (agent ensemble, value
// ensemble, OC-SVM) once and shares them read-only across thousands of
// concurrent sessions. Each session owns a private core.Guard wired to
// workspace-backed inference sessions (internal/rl), so the per-step
// hot path stays allocation-free and single-goroutine per session while
// the server as a whole scales across cores.
//
// Scaling machinery: a sharded session table (power-of-two shards,
// per-shard RWMutex, FNV-1a hashed IDs) avoids a global lock; a
// background sweeper evicts idle sessions after a TTL; admission
// control caps live sessions (429 + Retry-After past the cap); and
// graceful drain stops admissions, waits for in-flight steps, and
// flushes a final metrics snapshot. Everything is stdlib-only.
package serve

import (
	"fmt"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/rl"
)

// Scheme names accepted at session creation, matching the paper's
// figures (and internal/experiments).
const (
	SchemeND   = experiments.SchemeND   // U_S: OC-SVM state novelty
	SchemeAEns = experiments.SchemeAEns // U_π: agent-ensemble disagreement
	SchemeVEns = experiments.SchemeVEns // U_V: value-ensemble disagreement
)

// GuardConfig carries the per-deployment knobs a GuardFactory needs
// beyond the trained artifacts themselves.
type GuardConfig struct {
	// StateSignal windows the U_S features; zero value is replaced by
	// core.DefaultStateSignalConfig().
	StateSignal core.StateSignalConfig
	// TriggerL is the consecutive-steps requirement (0 → paper's 3).
	TriggerL int
	// Trim is the ensemble trimming rule; zero value is replaced by
	// core.DefaultEnsembleConfig().
	Trim core.EnsembleConfig
	// ReadmitL and ReadmitCap configure trigger probation (DESIGN.md
	// §13): after firing, the guard re-admits the learned policy once
	// the signal has been confident for ReadmitL consecutive steps, at
	// most ReadmitCap times per episode. The zero values keep the
	// paper's permanent latch.
	ReadmitL   int
	ReadmitCap int
}

func (c GuardConfig) withDefaults() GuardConfig {
	if c.StateSignal == (core.StateSignalConfig{}) {
		c.StateSignal = core.DefaultStateSignalConfig()
	}
	if c.TriggerL == 0 {
		c.TriggerL = 3
	}
	if c.Trim == (core.EnsembleConfig{}) {
		c.Trim = core.DefaultEnsembleConfig()
	}
	return c
}

// GuardFactory builds per-session guards from one shared, read-only set
// of trained artifacts. The artifacts (networks, OC-SVM support
// vectors, calibrated thresholds) are never mutated after construction;
// the networks are packed for inference once, here, and every session
// and shard of the factory's generation reads that one copy.
// Every NewGuard call creates private activation buffers and signal
// state, so each returned guard is single-goroutine as usual but any
// number of guards can run concurrently.
type GuardFactory struct {
	arts   *experiments.Artifacts
	frozen *rl.Frozen
	cfg    GuardConfig
}

// NewGuardFactory validates the artifacts against the config. The
// OC-SVM dimension must match the U_S windowing, exactly as in
// training.
func NewGuardFactory(arts *experiments.Artifacts, cfg GuardConfig) (*GuardFactory, error) {
	if arts == nil || len(arts.Agents) == 0 {
		return nil, fmt.Errorf("serve: artifacts with at least one agent are required")
	}
	cfg = cfg.withDefaults()
	if err := cfg.StateSignal.Validate(); err != nil {
		return nil, err
	}
	if arts.OCSVM != nil && arts.OCSVM.Dim != cfg.StateSignal.FeatureDim() {
		return nil, fmt.Errorf("serve: OC-SVM dim %d != U_S feature dim %d",
			arts.OCSVM.Dim, cfg.StateSignal.FeatureDim())
	}
	frozen, err := rl.Freeze(arts.Agents, arts.ValueNets)
	if err != nil {
		return nil, err
	}
	return &GuardFactory{arts: arts, frozen: frozen, cfg: cfg}, nil
}

// ObsDim returns the observation length the deployed agent expects.
func (f *GuardFactory) ObsDim() int { return f.frozen.ObsDim() }

// NumActions returns the action-space size of the deployed agent.
func (f *GuardFactory) NumActions() int { return f.frozen.NumActions() }

// Dataset names the training distribution behind the artifacts.
func (f *GuardFactory) Dataset() string { return f.arts.Dataset }

// Artifacts exposes the factory's (read-only) artifact set — the
// frozen baseline an online learner judges against.
func (f *GuardFactory) Artifacts() *experiments.Artifacts { return f.arts }

// Schemes lists the guard schemes this factory can build, given which
// artifacts are present.
func (f *GuardFactory) Schemes() []string {
	var out []string
	if f.arts.OCSVM != nil {
		out = append(out, SchemeND)
	}
	if len(f.arts.Agents) >= 2 {
		out = append(out, SchemeAEns)
	}
	if len(f.arts.ValueNets) >= 2 {
		out = append(out, SchemeVEns)
	}
	return out
}

// defaultPolicy adapts the safe BB policy for serving: abr.BBPolicy
// emits a fresh one-hot per call (fine in experiment loops), but a
// served session's defaulted steps are hot-path too, so the one-hot is
// written into a session-owned buffer instead. Single-goroutine, like
// every per-session component.
type defaultPolicy struct {
	bb     *abr.BBPolicy
	onehot []float64
}

// Probs implements mdp.Policy without heap allocation; the result is
// valid until the next call.
//
//osap:hotpath
func (p *defaultPolicy) Probs(obs []float64) []float64 {
	for i := range p.onehot {
		p.onehot[i] = 0
	}
	p.onehot[p.bb.Level(abr.BufferSecFromObs(obs))] = 1
	return p.onehot
}

// NewGuard assembles a fresh guard for one session: the deployed agent
// served greedily through a private one-row workspace over the
// factory's packed networks, the buffer-based policy as the safe
// default, and the scheme's signal + trigger using the calibrated
// thresholds stored in the artifacts. The returned guard is
// single-goroutine; never share it across sessions.
func (f *GuardFactory) NewGuard(scheme string) (*core.Guard, error) {
	learned := f.frozen.Greedy()
	def := &defaultPolicy{bb: abr.NewBBPolicy(f.NumActions()), onehot: make([]float64, f.NumActions())}

	var sig core.Signal
	var trig *core.Trigger
	switch scheme {
	case SchemeND:
		if f.arts.OCSVM == nil {
			return nil, fmt.Errorf("serve: artifacts carry no OC-SVM model for %s", SchemeND)
		}
		s, err := core.NewStateSignal(f.arts.OCSVM, abr.LastThroughputMbps, f.cfg.StateSignal)
		if err != nil {
			return nil, err
		}
		sig = s
		tc := core.StateTriggerConfig()
		tc.L = f.cfg.TriggerL
		tc.ReadmitL = f.cfg.ReadmitL
		tc.ReadmitCap = f.cfg.ReadmitCap
		trig = core.NewTrigger(tc)
	case SchemeAEns:
		if len(f.arts.Agents) < 2 {
			return nil, fmt.Errorf("serve: %s needs an agent ensemble (have %d)", SchemeAEns, len(f.arts.Agents))
		}
		s, err := core.NewPolicySignal(f.frozen.Policies(), f.cfg.Trim)
		if err != nil {
			return nil, err
		}
		sig = s
		tc := core.VarianceTriggerConfig(f.arts.AlphaPi, f.cfg.TriggerL)
		tc.ReadmitL = f.cfg.ReadmitL
		tc.ReadmitCap = f.cfg.ReadmitCap
		trig = core.NewTrigger(tc)
	case SchemeVEns:
		if len(f.arts.ValueNets) < 2 {
			return nil, fmt.Errorf("serve: %s needs a value ensemble (have %d)", SchemeVEns, len(f.arts.ValueNets))
		}
		s, err := core.NewValueSignal(f.frozen.Values(), f.cfg.Trim)
		if err != nil {
			return nil, err
		}
		sig = s
		tc := core.VarianceTriggerConfig(f.arts.AlphaV, f.cfg.TriggerL)
		tc.ReadmitL = f.cfg.ReadmitL
		tc.ReadmitCap = f.cfg.ReadmitCap
		trig = core.NewTrigger(tc)
	default:
		return nil, fmt.Errorf("serve: unknown scheme %q (want one of %v)", scheme, f.Schemes())
	}
	return core.NewGuard(learned, def, sig, trig)
}

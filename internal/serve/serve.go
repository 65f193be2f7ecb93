// Package serve hosts OSAP guards behind an HTTP front door: the online
// safety decision of the paper (§2.5, §3.1) as a long-running,
// multi-tenant service rather than an offline experiment loop.
//
// One process loads a training run's artifacts (agent ensemble, value
// ensemble, OC-SVM) once and shares them read-only across thousands of
// concurrent sessions. Each session owns a private core.Guard whose
// inference handles (internal/rl) run on the forward scratch of one of
// a few shards, so the per-step hot path stays allocation-free, a step
// is one Guard.Decide under its shard's lock, and the server as a whole
// scales across cores.
//
// Scaling machinery: a sharded session table (power-of-two shards,
// per-shard RWMutex, FNV-1a hashed IDs) avoids a global lock; a
// background sweeper evicts idle sessions after a TTL; admission
// control caps live sessions (429 + Retry-After past the cap); and
// graceful drain shuts the one door (Server.enter) every operation of
// both codecs goes through, waits for those in flight, and flushes a
// final metrics snapshot. Everything is stdlib-only.
package serve

import (
	"fmt"

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

// GuardConfig is a deployment's serving policy for its guards, the
// probation pair; every other knob is the artifacts' record, which each
// generation builds from. StateSignal, TriggerL and Trim are checks:
// zero takes the record's value, any other must equal it
// (experiments.Record.Expect).
type GuardConfig struct {
	experiments.Probation
	StateSignal core.StateSignalConfig
	TriggerL    int
	Trim        core.EnsembleConfig
}

// GuardFactory builds per-session guards from one shared, read-only
// artifact set. It keeps the set's calibration (OC-SVM support vectors,
// calibrated thresholds, record) and the networks packed for inference
// once, here — not the float64 networks: once the caller drops the
// artifacts, the packed copy is the only copy of a trained weight the
// factory's generation holds, and every guard and shard of it reads
// that one copy. Every guard has private signal and trigger state; its
// activation buffers are the scratch it is built on.
type GuardFactory struct {
	cal       experiments.Calibration
	frozen    *rl.Frozen
	schemes   []string
	probation experiments.Probation
}

// NewGuardFactory checks the config against the artifacts' record and
// packs the artifacts' networks; the factory keeps no reference to arts.
func NewGuardFactory(arts *experiments.Artifacts, cfg GuardConfig) (*GuardFactory, error) {
	if arts == nil || len(arts.Agents) == 0 {
		return nil, fmt.Errorf("serve: artifacts with at least one agent are required")
	}
	if err := arts.Record.Expect(cfg.StateSignal, cfg.TriggerL, cfg.Trim); err != nil {
		return nil, err
	}
	frozen, err := rl.Freeze(arts.Agents, arts.ValueNets)
	if err != nil {
		return nil, err
	}
	var schemes []string
	if arts.OCSVM != nil {
		schemes = append(schemes, SchemeND)
	}
	if len(arts.Agents) >= 2 {
		schemes = append(schemes, SchemeAEns)
	}
	if len(arts.ValueNets) >= 2 {
		schemes = append(schemes, SchemeVEns)
	}
	return &GuardFactory{cal: arts.Calibration, frozen: frozen, schemes: schemes, probation: cfg.Probation}, nil
}

// ObsDim returns the observation length the deployed agent expects.
func (f *GuardFactory) ObsDim() int { return f.frozen.ObsDim() }

// NumActions returns the action-space size of the deployed agent.
func (f *GuardFactory) NumActions() int { return f.frozen.NumActions() }

// Dataset names the training distribution behind the artifacts.
func (f *GuardFactory) Dataset() string { return f.cal.Dataset }

// Schemes lists the guard schemes this factory can build, given which
// artifacts were present.
func (f *GuardFactory) Schemes() []string { return append([]string(nil), f.schemes...) }

// NewGuard assembles a fresh, standalone guard — experiments.NewGuard
// over the factory's calibration and probation policy — on forward
// scratch of its own. The returned guard is single-goroutine; never
// share it across sessions.
func (f *GuardFactory) NewGuard(scheme string) (*core.Guard, error) {
	return experiments.NewGuard(&f.cal, scheme, f.frozen.NewScratch(), f.probation)
}

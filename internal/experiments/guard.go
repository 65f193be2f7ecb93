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
// value-function ensemble, and the Calibration every guard over them is
// built from.
type Artifacts struct {
	Agents    []*rl.ActorCritic
	ValueNets []*nn.Network
	Calibration
}

// Calibration is the part of an artifact set that is not a network: the
// OC-SVM novelty detector, the calibrated U_π/U_V thresholds and the
// record of what they were calibrated under. A guard is built from it
// and the networks' packed forms (rl.Frozen), so a server generation
// keeps these two and drops the float64 networks once it has packed
// them.
type Calibration struct {
	Dataset string
	OCSVM   *ocsvm.Model
	// NDValQoE is the ND-guarded system's mean QoE on the validation
	// traces — the calibration target for the other two schemes (§2.5).
	NDValQoE float64
	// AlphaPi and AlphaV are the calibrated variance thresholds.
	AlphaPi float64
	AlphaV  float64
	// Record is the guard the thresholds hold for; every guard over the
	// set is built from it.
	Record Record
}

// withAlpha returns a copy of c whose variance threshold for scheme
// (A-ensemble: AlphaPi, otherwise AlphaV) is alpha: how α calibration
// hands NewGuard a candidate.
func (c *Calibration) withAlpha(scheme string, alpha float64) *Calibration {
	d := *c
	if scheme == SchemeAEns {
		d.AlphaPi = alpha
	} else {
		d.AlphaV = alpha
	}
	return &d
}

// Record is what an artifact set's thresholds were calibrated under —
// α_π and α_V match ND's QoE (§2.5) only for the U_S window, trigger l
// and ensemble trim they were searched with — and where each came from.
// The lab writes it, the file carries it, and every guard, trust gate
// and served session over the set is built from it.
type Record struct {
	ThroughputWindow int        `json:"throughput_window"`
	K                int        `json:"k"` // the OC-SVM's dimension is 2K
	TriggerL         int        `json:"trigger_l"`
	Discard          int        `json:"discard"`           // members trimmed before U_π/U_V
	Assumed          bool       `json:"assumed,omitempty"` // written by AssumedRecord, not by a calibration
	AlphaPi          Provenance `json:"alpha_pi"`
	AlphaV           Provenance `json:"alpha_v"`
}

// Threshold rules a Provenance names.
const (
	RuleQoEMatched = "qoe-matched" // core.Calibrate to ND's validation QoE (§2.5)
	RuleQuantile   = "quantile"    // a quantile of gate-admitted scores (a learn refit)
)

// Provenance is where one threshold came from (zero: unknown). Target
// is what its rule aimed at — a QoE, or a score quantile — and Evals
// the evaluations or scores it took; Bound is the end of core.Calibrate's
// range ("lo", "hi") a target out of reach pinned it to.
type Provenance struct {
	Rule   string  `json:"rule,omitempty"`
	Target float64 `json:"target,omitempty"`
	Evals  int     `json:"evals,omitempty"`
	Bound  string  `json:"bound,omitempty"`
}

// StateSignal is the record's U_S windowing.
func (r Record) StateSignal() core.StateSignalConfig {
	return core.StateSignalConfig{ThroughputWindow: r.ThroughputWindow, K: r.K}
}

// Trim is the record's ensemble trim.
func (r Record) Trim() core.EnsembleConfig { return core.EnsembleConfig{Discard: r.Discard} }

// AssumedRecord is the one rule for a set that carries no record (a v2
// file, serve.SyntheticArtifacts): the paper's l and throughput window,
// K read off the OC-SVM, and (n−1)/2 of n members discarded — the trim
// of every config in the tree (3→1, 5→2, 2→0).
func AssumedRecord(a *Artifacts) Record {
	r := Record{ThroughputWindow: 10, TriggerL: 3, Discard: (len(a.Agents) - 1) / 2, Assumed: true}
	if a.OCSVM != nil {
		r.K = a.OCSVM.Dim / 2
	}
	return r
}

// check reports a record a's guards cannot be built under; decoding
// runs it, so such a file does not load.
func (r Record) check(a *Artifacts) error {
	if err := r.StateSignal().Validate(); err != nil {
		return err
	}
	if a.OCSVM.Dim != 2*r.K || r.Discard < 0 || r.Discard >= len(a.Agents) || r.TriggerL < 1 {
		return fmt.Errorf("%+v does not fit a %d-dim OC-SVM and %d members", r, a.OCSVM.Dim, len(a.Agents))
	}
	return nil
}

// Expect checks the calibration knobs a caller pinned — what is left of
// serve.GuardConfig's and learn.Config's — against the record: zero
// takes the record's value, any other must equal it.
func (r Record) Expect(ss core.StateSignalConfig, l int, trim core.EnsembleConfig) error {
	want := [...]int{r.ThroughputWindow, r.K, r.TriggerL, r.Discard}
	for i, got := range [...]int{ss.ThroughputWindow, ss.K, l, trim.Discard} {
		if got != 0 && got != want[i] {
			return fmt.Errorf("experiments: %s %d asked for, but the artifacts were calibrated under %d",
				[...]string{"ThroughputWindow", "K", "TriggerL", "Trim.Discard"}[i], got, want[i])
		}
	}
	return nil
}

// Probation is a guard's serving policy beyond its record (DESIGN.md
// §13): re-admit the learned policy after ReadmitL confident steps, at
// most ReadmitCap times per episode. Zero is the paper's permanent
// latch.
type Probation struct{ ReadmitL, ReadmitCap int }

// Signal returns scheme's signal over the forward scratch sc of a set's
// packed networks, and the trigger its threshold belongs to, both as
// c's record says. It is the one place a scheme picks its signal:
// NewGuard wraps it, and the learn trust gate and the learn selftest's
// calibration read U_π and U_V from it bare.
func Signal(c *Calibration, scheme string, sc *rl.Scratch) (core.Signal, core.TriggerConfig, error) {
	r := c.Record
	switch scheme {
	case SchemeND:
		tc := core.StateTriggerConfig()
		tc.L = r.TriggerL
		sig, err := core.NewStateSignal(c.OCSVM, abr.LastThroughputMbps, r.StateSignal())
		return sig, tc, err
	case SchemeAEns:
		sig, err := core.NewPolicySignal(sc.Policies(), r.Trim())
		return sig, core.VarianceTriggerConfig(c.AlphaPi, r.TriggerL), err
	case SchemeVEns:
		sig, err := core.NewValueSignal(sc.Values(), r.Trim())
		return sig, core.VarianceTriggerConfig(c.AlphaV, r.TriggerL), err
	}
	return nil, core.TriggerConfig{}, fmt.Errorf("experiments: %q is not a guard scheme", scheme)
}

// NewGuard builds a scheme's guard from the calibration c, with every
// forward on the scratch sc of the set's packed networks: the deployed
// agent served greedily, the buffer-based policy as the safe default,
// and Signal's signal and trigger under the probation policy p. The
// action count and the ensembles come from sc, so no float64 network
// is needed. The figures, α calibration (a copy of c with a candidate
// AlphaPi or AlphaV), the extensions (which may then swap Guard.Signal,
// Trigger or Default) and every served session call it.
//
// Guards built on one scratch share its buffers and must not decide
// concurrently; a guard built on a scratch of its own is
// single-goroutine like any other.
func NewGuard(c *Calibration, scheme string, sc *rl.Scratch, p Probation) (*core.Guard, error) {
	sig, tc, err := Signal(c, scheme, sc)
	if err != nil {
		return nil, err
	}
	tc.ReadmitL, tc.ReadmitCap = p.ReadmitL, p.ReadmitCap
	levels := sc.NumActions()
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

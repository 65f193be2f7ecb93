// Package learn implements gated selective online learning for the
// guard artifacts (DESIGN.md §14): a per-session trust gate admits a
// serving step into the experience window only when all three
// uncertainty signals — judged against the FROZEN boot-time baseline —
// agree it is in-distribution, the session is not demoted or on
// probation, and the step survives a per-session rate limit. Admitted
// feature vectors are persisted to an append-only, CRC-checksummed,
// segment-rotated experience log and folded into a bounded training
// window; on demand (or every RefitEvery admissions) the OC-SVM is
// refit and the U_π/U_V thresholds recalibrated off the hot path, and
// the result is published to the artifact registry as a PROPOSED
// version. Proposals are never swapped in automatically: the canary
// rollout machinery (DESIGN.md §11) is the only promotion path, so
// serving artifacts stay bit-identical until an operator stages the
// proposal.
//
//osap:deterministic
package learn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/ocsvm"
	"osap/internal/registry"
	"osap/internal/rl"
	"osap/internal/sketch"
)

// Counters are the learner's monotonic event counters, exported on
// /metrics, /healthz and /dashboard. All fields are atomics: the gate
// bumps them on the serving hot path.
type Counters struct {
	// Checked counts gate evaluations (clean serving steps of gated
	// sessions).
	Checked atomic.Uint64
	// Admitted counts steps that passed the full gate.
	Admitted atomic.Uint64
	// rejected tallies rejections by verdict (the VerdictAdmit slot is
	// unused).
	rejected [numVerdicts]atomic.Uint64
	// RejectedDemoted counts steps that never reached the gate because
	// the session was demoted, on probation, or recovering — tallied
	// by the server, not the gate, so the conservation law
	// decisions == Checked + RejectedDemoted holds exactly.
	RejectedDemoted atomic.Uint64
	// RingDropped counts admitted samples dropped because the handoff
	// ring was full (the step still served normally).
	RingDropped atomic.Uint64
	// LogRecords counts records appended to the experience log this
	// run; LogSegments counts segments sealed; BootstrapRecords counts
	// records recovered from the log at startup.
	LogRecords       atomic.Uint64
	LogSegments      atomic.Uint64
	BootstrapRecords atomic.Uint64
	// Refits / RefitFailures / Proposed count refit attempts, their
	// failures, and proposals published to the registry.
	Refits        atomic.Uint64
	RefitFailures atomic.Uint64
	Proposed      atomic.Uint64
}

//osap:hotpath
func (c *Counters) reject(v Verdict) { c.rejected[v].Add(1) }

// Rejected returns the rejection tally for one verdict.
func (c *Counters) Rejected(v Verdict) uint64 { return c.rejected[v].Load() }

// Config parameterizes a Learner.
type Config struct {
	// Artifacts is the frozen baseline the gate judges against: its
	// OCSVM, ensembles and thresholds, under its record. Required; the
	// ensembles must have ≥ 2 members each (all three signals are
	// mandatory — there is no reduced-signal gate).
	Artifacts *experiments.Artifacts
	// SignalConfig and Trim are checks against the record, not
	// settings (experiments.Record.Expect).
	SignalConfig core.StateSignalConfig
	Trim         core.EnsembleConfig
	// Extract pulls the throughput sample out of an observation
	// (abr.LastThroughputMbps for the ABR case study). Required.
	Extract func(obs []float64) float64

	// RateEvery/RateBurst parameterize the per-session admission rate
	// limit: at most one admission per RateEvery checked steps at
	// steady state, with an initial burst of RateBurst. Defaults 4, 8.
	RateEvery int
	RateBurst int

	// WindowSize bounds the refit training window (default 4096).
	// MinRefitSamples is the smallest window a refit will train on
	// (default 128). RefitEvery, when > 0, triggers an automatic refit
	// every RefitEvery admitted samples; 0 means manual refits only
	// (POST /admin/learn).
	WindowSize      int
	MinRefitSamples int
	RefitEvery      int

	// RingSize is the gate→learner handoff capacity (default 8192,
	// rounded up to a power of two). FlushInterval is the learner
	// goroutine's drain period (default 25ms).
	RingSize      int
	FlushInterval time.Duration

	// LogDir, when non-empty, enables the durable experience log; ""
	// keeps the window in memory only. Log tunes the segment format.
	LogDir string
	Log    LogConfig

	// OCSVM is the refit training config. Gamma ≤ 0 pins the
	// baseline's kernel width (decision-scale stability); Nu ≤ 0
	// defaults to 0.05. Seed makes refits deterministic: refit k uses
	// Seed mixed with k.
	OCSVM ocsvm.Config
	// AlphaQuantile is the admitted-traffic score quantile the U_π/U_V
	// thresholds are recalibrated to (default 0.95). Recalibration
	// only happens once MinCalibSamples (default 64) admitted scores
	// have been sketched; below that the baseline thresholds carry
	// over.
	AlphaQuantile   float64
	MinCalibSamples int

	// RegistryRoot, when non-empty, publishes each successful refit as
	// a proposed version. ParentVersion is recorded as the proposal's
	// lineage parent; ProposalPrefix names proposals
	// "<prefix>-refit-NNN" (default: ParentVersion, or "online").
	RegistryRoot   string
	ParentVersion  string
	ProposalPrefix string
	// Now is the clock seam used ONLY for manifest timestamps (the
	// nondeterminism analyzer bans time.Now in this package — refit
	// math never sees a clock). Required when RegistryRoot is set.
	Now func() time.Time

	// Logf, when non-nil, receives one line per refit/publish event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.RateEvery <= 0 {
		c.RateEvery = 4
	}
	if c.RateBurst <= 0 {
		c.RateBurst = 8
	}
	if c.WindowSize <= 0 {
		c.WindowSize = 4096
	}
	if c.MinRefitSamples <= 0 {
		c.MinRefitSamples = 128
	}
	if c.RingSize <= 0 {
		c.RingSize = 8192
	}
	if c.FlushInterval <= 0 {
		c.FlushInterval = 25 * time.Millisecond
	}
	if c.AlphaQuantile <= 0 || c.AlphaQuantile >= 1 {
		c.AlphaQuantile = 0.95
	}
	if c.MinCalibSamples <= 0 {
		c.MinCalibSamples = 64
	}
	if c.ProposalPrefix == "" {
		if c.ParentVersion != "" {
			c.ProposalPrefix = c.ParentVersion
		} else {
			c.ProposalPrefix = "online"
		}
	}
	return c
}

// Proposal describes one successful refit.
type Proposal struct {
	// Version is the registry version the proposal was published as
	// ("" when publishing is disabled).
	Version string `json:"version,omitempty"`
	// Parent is the serving version the refit descends from.
	Parent string `json:"parent,omitempty"`
	// Samples is the window size the OC-SVM was refit on.
	Samples int `json:"samples"`
	// NumSVs and Rho summarize the refit boundary.
	NumSVs int     `json:"num_svs"`
	Rho    float64 `json:"rho"`
	// AlphaPi/AlphaV are the recalibrated thresholds; Record says where
	// they came from.
	AlphaPi float64            `json:"alpha_pi"`
	AlphaV  float64            `json:"alpha_v"`
	Record  experiments.Record `json:"record"`
	// Published reports whether the proposal reached the registry.
	Published bool `json:"published"`
}

// Learner owns the experience window and the refit lifecycle. The hot
// side (Gate.Check) touches only atomics and the handoff ring; the
// cold side — log appends, window maintenance, threshold sketches,
// refits, registry publishes — runs on a single background goroutine
// plus explicit Refit calls, all serialized by mu.
type Learner struct {
	cfg      Config
	counters Counters
	ring     *ring
	base     *ocsvm.Model
	// frozen is the boot baseline's networks packed for inference,
	// once; every session's gate reads this copy.
	frozen *rl.Frozen

	mu sync.Mutex
	//osap:guardedby mu
	log *Log
	//osap:guardedby mu
	window *window
	//osap:guardedby mu
	polSketch *sketch.Sketch
	//osap:guardedby mu
	valSketch *sketch.Sketch
	//osap:guardedby mu
	sinceRefit int
	//osap:guardedby mu
	refitSeq uint64
	//osap:guardedby mu
	lastProposal *Proposal
	//osap:guardedby mu
	scratch []sample

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// New validates the config, replays the experience log (when
// configured) into the training window, and starts the learner
// goroutine. Callers must Stop the learner on shutdown.
func New(cfg Config) (*Learner, error) {
	if cfg.Artifacts == nil || cfg.Artifacts.OCSVM == nil {
		return nil, fmt.Errorf("learn: baseline artifacts with a trained OC-SVM are required")
	}
	if len(cfg.Artifacts.Agents) < 2 || len(cfg.Artifacts.ValueNets) < 2 {
		return nil, fmt.Errorf("learn: the trust gate needs all three signals: ≥2 agents and ≥2 value nets (have %d, %d)",
			len(cfg.Artifacts.Agents), len(cfg.Artifacts.ValueNets))
	}
	if cfg.Extract == nil {
		return nil, fmt.Errorf("learn: Extract is required")
	}
	if err := cfg.Artifacts.Record.Expect(cfg.SignalConfig, 0, cfg.Trim); err != nil {
		return nil, err
	}
	if !(cfg.Artifacts.AlphaPi > 0) || !(cfg.Artifacts.AlphaV > 0) {
		return nil, fmt.Errorf("learn: baseline thresholds must be positive (AlphaPi=%v AlphaV=%v)",
			cfg.Artifacts.AlphaPi, cfg.Artifacts.AlphaV)
	}
	if cfg.RegistryRoot != "" && cfg.Now == nil {
		return nil, fmt.Errorf("learn: Now clock seam is required when publishing proposals")
	}
	cfg = cfg.withDefaults()
	frozen, err := rl.Freeze(cfg.Artifacts.Agents, cfg.Artifacts.ValueNets)
	if err != nil {
		return nil, err
	}

	dim := cfg.Artifacts.OCSVM.Dim
	l := &Learner{
		cfg:       cfg,
		ring:      newRing(dim, cfg.RingSize),
		base:      cfg.Artifacts.OCSVM,
		frozen:    frozen,
		window:    newWindow(dim, cfg.WindowSize),
		polSketch: sketch.New(100),
		valSketch: sketch.New(100),
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if cfg.LogDir != "" {
		log, recs, err := OpenLog(cfg.LogDir, cfg.Log)
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		l.log = log
		for _, rec := range recs {
			if len(rec.Feat) != dim {
				continue // foreign-dimension record (config change); skip
			}
			l.window.add(rec.Feat)
			l.counters.BootstrapRecords.Add(1)
		}
		l.mu.Unlock()
	}
	go l.loop()
	return l, nil
}

// NewGate builds the trust gate for one session. Each gate gets
// forward scratch of its own over the learner's one packed copy of the
// baseline networks — a serving shard's scratch runs its generation's
// networks, not the baseline — and private feature windows, all built
// from the baseline's record.
func (l *Learner) NewGate(sessionIdx uint64) (*Gate, error) {
	base := &l.cfg.Artifacts.Calibration
	feats, err := core.NewStateFeaturizer(base.Record.StateSignal())
	if err != nil {
		return nil, err
	}
	sc := l.frozen.NewScratch()
	pol, _, err := experiments.Signal(base, experiments.SchemeAEns, sc)
	if err != nil {
		return nil, err
	}
	val, _, err := experiments.Signal(base, experiments.SchemeVEns, sc)
	if err != nil {
		return nil, err
	}
	return &Gate{
		learner:   l,
		sessIdx:   sessionIdx,
		feats:     feats,
		model:     l.base,
		pol:       pol.(*core.PolicySignal), // the concrete signals keep Check statically checked
		val:       val.(*core.ValueSignal),
		extract:   l.cfg.Extract,
		alphaPi:   base.AlphaPi,
		alphaV:    base.AlphaV,
		rateEvery: uint64(l.cfg.RateEvery),
		rateBurst: uint64(l.cfg.RateBurst),
	}, nil
}

// Counters exposes the learner's counters (read via atomic loads).
func (l *Learner) Counters() *Counters { return &l.counters }

func (l *Learner) loop() {
	defer close(l.done)
	ticker := time.NewTicker(l.cfg.FlushInterval)
	defer ticker.Stop()
	for {
		select {
		case <-l.stop:
			l.mu.Lock()
			l.drainLocked()
			l.mu.Unlock()
			return
		case <-ticker.C:
			l.mu.Lock()
			l.drainLocked()
			auto := l.cfg.RefitEvery > 0 && l.sinceRefit >= l.cfg.RefitEvery
			if auto {
				l.refitLocked()
			}
			l.mu.Unlock()
		}
	}
}

// drainLocked folds every ring sample into the log, window and
// threshold sketches. Callers hold l.mu.
func (l *Learner) drainLocked() {
	l.scratch = l.ring.drainInto(l.scratch[:0])
	for _, s := range l.scratch {
		if l.log != nil {
			sealedBefore := l.log.Sealed()
			if err := l.log.Append(Record{Session: s.Session, Step: s.Step, Feat: s.Feat}); err == nil {
				l.counters.LogRecords.Add(1)
				l.counters.LogSegments.Add(l.log.Sealed() - sealedBefore)
			}
		}
		l.window.add(s.Feat)
		l.polSketch.Add(s.Pol)
		l.valSketch.Add(s.Val)
		l.sinceRefit++
	}
}

// Refit drains any buffered samples and synchronously refits the
// OC-SVM on the current window, recalibrates thresholds, and — when a
// registry root is configured — publishes the result as a proposed
// version. It never touches serving artifacts.
func (l *Learner) Refit() (*Proposal, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.drainLocked()
	return l.refitLocked()
}

func (l *Learner) refitLocked() (*Proposal, error) {
	snap := l.window.snapshot()
	if len(snap) < l.cfg.MinRefitSamples {
		l.counters.RefitFailures.Add(1)
		return nil, fmt.Errorf("learn: window has %d samples, need ≥ %d", len(snap), l.cfg.MinRefitSamples)
	}
	ocfg := l.cfg.OCSVM
	if ocfg.Nu <= 0 {
		ocfg.Nu = 0.05
	}
	// Mix the refit sequence number into the subsampling seed so
	// successive refits are distinct but each is reproducible from
	// (Config.OCSVM.Seed, seq).
	ocfg.Seed = l.cfg.OCSVM.Seed ^ (l.refitSeq+1)*0x9E3779B97F4A7C15
	model, err := l.base.Refit(snap, ocfg)
	if err != nil {
		l.counters.RefitFailures.Add(1)
		return nil, err
	}
	rec := l.cfg.Artifacts.Record // a recalibrated threshold records its own rule
	alphaPi, alphaV := l.cfg.Artifacts.AlphaPi, l.cfg.Artifacts.AlphaV
	requantile := func(sk *sketch.Sketch, alpha *float64, prov *experiments.Provenance) {
		if n := int(sk.Count()); n >= l.cfg.MinCalibSamples {
			if a := sk.Quantile(l.cfg.AlphaQuantile); a > 0 {
				*alpha = a
				*prov = experiments.Provenance{Rule: experiments.RuleQuantile, Target: l.cfg.AlphaQuantile, Evals: n}
			}
		}
	}
	requantile(l.polSketch, &alphaPi, &rec.AlphaPi)
	requantile(l.valSketch, &alphaV, &rec.AlphaV)
	l.refitSeq++
	l.sinceRefit = 0
	l.counters.Refits.Add(1)
	prop := &Proposal{
		Parent:  l.cfg.ParentVersion,
		Samples: len(snap),
		NumSVs:  model.NumSVs(),
		Rho:     model.Rho,
		AlphaPi: alphaPi,
		AlphaV:  alphaV,
		Record:  rec,
	}
	if l.cfg.RegistryRoot != "" {
		if err := l.publishLocked(model, prop); err != nil {
			l.counters.RefitFailures.Add(1)
			return nil, err
		}
	}
	l.lastProposal = prop
	if l.cfg.Logf != nil {
		l.cfg.Logf("learn: refit #%d on %d samples: %d SVs rho=%.6g alphaPi=%.6g alphaV=%.6g version=%q",
			l.refitSeq, prop.Samples, prop.NumSVs, prop.Rho, prop.AlphaPi, prop.AlphaV, prop.Version)
	}
	return prop, nil
}

// publishLocked writes the refit artifacts to the registry as a
// proposed version. The baseline artifact struct is copied shallowly —
// the networks are shared read-only, exactly as in serving — with only
// the OC-SVM, thresholds and their provenance replaced.
func (l *Learner) publishLocked(model *ocsvm.Model, prop *Proposal) error {
	if l.log != nil {
		// Durability point: the samples behind the proposal are on
		// disk before the proposal exists.
		if err := l.log.Sync(); err != nil {
			return fmt.Errorf("learn: sync before publish: %w", err)
		}
	}
	arts := *l.cfg.Artifacts
	arts.OCSVM = model
	arts.AlphaPi = prop.AlphaPi
	arts.AlphaV = prop.AlphaV
	arts.Record = prop.Record
	version := fmt.Sprintf("%s-refit-%03d", l.cfg.ProposalPrefix, l.refitSeq)
	meta := registry.Meta{
		Version:   version,
		Parent:    l.cfg.ParentVersion,
		CreatedAt: l.cfg.Now().UTC().Format(time.RFC3339),
		Notes:     fmt.Sprintf("online refit #%d from %d gate-admitted samples", l.refitSeq, prop.Samples),
		Proposed:  true,
	}
	if _, err := registry.WriteVersion(l.cfg.RegistryRoot, meta, &arts); err != nil {
		return err
	}
	prop.Version = version
	prop.Published = true
	l.counters.Proposed.Add(1)
	return nil
}

// Snapshot is a point-in-time JSON-friendly view for /healthz and
// /dashboard.
type Snapshot struct {
	GateChecked     uint64            `json:"gate_checked_total"`
	GateAdmitted    uint64            `json:"gate_admitted_total"`
	GateRejected    map[string]uint64 `json:"gate_rejected_total"`
	RejectedDemoted uint64            `json:"rejected_demoted_total"`
	RingDropped     uint64            `json:"ring_dropped_total"`
	LogRecords      uint64            `json:"log_records_total"`
	LogSegments     uint64            `json:"log_segments_sealed_total"`
	Bootstrap       uint64            `json:"bootstrap_records_total"`
	WindowFill      int               `json:"window_fill"`
	WindowSize      int               `json:"window_size"`
	WindowTotal     uint64            `json:"window_total"`
	Refits          uint64            `json:"refits_total"`
	RefitFailures   uint64            `json:"refit_failures_total"`
	Proposed        uint64            `json:"proposed_total"`
	LastProposal    *Proposal         `json:"last_proposal,omitempty"`
}

// Snapshot returns the current learner state. Cold path.
func (l *Learner) Snapshot() Snapshot {
	c := &l.counters
	rej := make(map[string]uint64, int(numVerdicts))
	for v := Verdict(0); v < numVerdicts; v++ {
		if v != VerdictAdmit {
			rej[v.String()] = c.rejected[v].Load()
		}
	}
	l.mu.Lock()
	fill := l.window.n
	size := l.window.size
	total := l.window.total
	last := l.lastProposal
	l.mu.Unlock()
	return Snapshot{
		GateChecked:     c.Checked.Load(),
		GateAdmitted:    c.Admitted.Load(),
		GateRejected:    rej,
		RejectedDemoted: c.RejectedDemoted.Load(),
		RingDropped:     c.RingDropped.Load(),
		LogRecords:      c.LogRecords.Load(),
		LogSegments:     c.LogSegments.Load(),
		Bootstrap:       c.BootstrapRecords.Load(),
		WindowFill:      fill,
		WindowSize:      size,
		WindowTotal:     total,
		Refits:          c.Refits.Load(),
		RefitFailures:   c.RefitFailures.Load(),
		Proposed:        c.Proposed.Load(),
		LastProposal:    last,
	}
}

// Stop drains outstanding samples, seals the experience log, and
// stops the learner goroutine. Idempotent: later calls are no-ops.
func (l *Learner) Stop() error {
	l.stopOnce.Do(func() { close(l.stop) })
	<-l.done
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.log != nil {
		err := l.log.Close()
		l.log = nil
		return err
	}
	return nil
}

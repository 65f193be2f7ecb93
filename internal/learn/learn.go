// Package learn implements gated selective online learning for the
// guard artifacts (DESIGN.md §14): a per-session trust gate admits a
// serving step into the experience window only when all three
// uncertainty signals — judged against the FROZEN boot-time baseline —
// agree it is in-distribution, the session is not demoted or on
// probation, and the step survives a per-session rate limit. Admitted
// feature vectors are persisted to an append-only, CRC-checksummed,
// segment-rotated experience log (internal/wal) and folded into a
// bounded training window; on demand (or every RefitEvery admissions)
// the OC-SVM is refit and the U_π/U_V thresholds recalibrated off the
// hot path, and the result is published to the artifact registry as a
// PROPOSED version. Proposals are never swapped in automatically: the
// canary rollout machinery (DESIGN.md §11) is the only promotion path,
// so serving artifacts stay bit-identical until an operator stages the
// proposal.
//
//osap:deterministic
package learn

import (
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"strings"
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
	// RingDropped counts admitted samples dropped because the handoff's
	// filling batch was full (the step still served normally).
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
func (c *Counters) reject(v Verdict) Verdict {
	c.rejected[v].Add(1)
	return v
}

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
	// Extract is not read: the gate's U_S reads the throughput sample
	// as every served guard does, through experiments.Signal. It stays
	// so that callers which still set it keep compiling.
	Extract func(obs []float64) float64

	// RefitEvery, when > 0, triggers an automatic refit every
	// RefitEvery admitted samples; 0 means manual refits only (POST
	// /admin/learn).
	RefitEvery int

	// FlushInterval is the learner goroutine's drain period of the
	// gate→learner handoff (default 25ms).
	FlushInterval time.Duration

	// LogDir, when non-empty, enables the durable experience log; ""
	// keeps the window in memory only.
	LogDir string

	// RegistryRoot, when non-empty, publishes each successful refit as
	// a proposed version. ParentVersion is recorded as the proposal's
	// lineage parent and names proposals "<ParentVersion>-refit-NNN"
	// ("online-refit-NNN" without one), numbered on from the highest
	// NNN the registry already holds.
	RegistryRoot  string
	ParentVersion string
	// Now is the clock seam used ONLY for manifest timestamps (the
	// nondeterminism analyzer bans time.Now in this package — refit
	// math never sees a clock). Required when RegistryRoot is set.
	Now func() time.Time

	// Logf, when non-nil, receives one line per refit/publish event.
	Logf func(format string, args ...any)
}

// The learner's fixed settings.
const (
	// windowSize is the refit training window; batchSize the capacity
	// of each of the gate→learner handoff's two batches.
	windowSize = 4096
	batchSize  = 4096
	// A gate admits at most one step per rateEvery checked steps at
	// steady state, after an initial burst of rateBurst.
	rateEvery = 4
	rateBurst = 8
	// minRefitSamples is the smallest window a refit trains on.
	minRefitSamples = 128
	// refitNu is the refit OC-SVM's ν, the baseline's.
	refitNu = 0.05
	// A refit recalibrates α_π and α_V to the alphaQuantile of admitted
	// steps' U_π/U_V statistic (the K-window variance the guard
	// thresholds) once minCalibSamples of them have been sketched;
	// below that the baseline thresholds carry over.
	alphaQuantile   = 0.95
	minCalibSamples = 64
)

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
// side (Gate.Check) touches only atomics and the handoff; the
// cold side — log appends, window maintenance, threshold sketches,
// refits, registry publishes — runs on a single background goroutine
// plus explicit Refit calls, all serialized by mu.
type Learner struct {
	cfg      Config
	counters Counters
	handoff  handoff
	// frozen is the boot baseline's networks packed for inference,
	// once; every session's gate reads this copy.
	frozen *rl.Frozen

	mu sync.Mutex
	//osap:guardedby mu
	log *experienceLog
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
	if cfg.FlushInterval <= 0 {
		cfg.FlushInterval = 25 * time.Millisecond
	}
	frozen, err := rl.Freeze(cfg.Artifacts.Agents, cfg.Artifacts.ValueNets)
	if err != nil {
		return nil, err
	}

	var lastSeq uint64
	if cfg.RegistryRoot != "" {
		if lastSeq, err = lastRefit(cfg.RegistryRoot, proposalPrefix(cfg.ParentVersion)); err != nil {
			return nil, err
		}
	}

	dim := cfg.Artifacts.OCSVM.Dim
	l := &Learner{
		cfg:       cfg,
		handoff:   handoff{fill: newBatch(dim, batchSize), spare: newBatch(dim, batchSize)},
		frozen:    frozen,
		window:    newWindow(dim, windowSize),
		polSketch: sketch.New(100),
		valSketch: sketch.New(100),
		refitSeq:  lastSeq,
		stop:      make(chan struct{}),
		done:      make(chan struct{}),
	}
	if cfg.LogDir != "" {
		// The window keeps the newest records; one of another
		// dimension (a config change) is skipped.
		l.mu.Lock()
		l.log, err = openLog(cfg.LogDir, func(rec Record) {
			if len(rec.Feat) == dim {
				l.window.add(rec.Feat)
				l.counters.BootstrapRecords.Add(1)
			}
		})
		l.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	// The ticker is made here, not by the goroutine: a goroutine the
	// scheduler starts late would allocate it in whatever its first
	// time slice lands on (a caller's allocation-free window).
	go l.loop(time.NewTicker(l.cfg.FlushInterval))
	return l, nil
}

// NewGate builds the trust gate for one session. Each gate gets
// forward scratch of its own over the learner's one packed copy of the
// baseline networks — a serving shard's scratch runs its generation's
// networks, not the baseline — and the baseline's signals and
// triggers, each trigger with L = 1 and no latch.
func (l *Learner) NewGate(sessionIdx uint64) (*Gate, error) {
	sc := l.frozen.NewScratch()
	var sigs [3]core.Signal
	var trigs [3]*core.Trigger
	for i, scheme := range [...]string{experiments.SchemeND, experiments.SchemeAEns, experiments.SchemeVEns} {
		sig, tc, err := experiments.Signal(&l.cfg.Artifacts.Calibration, scheme, sc)
		if err != nil {
			return nil, err
		}
		tc.L, tc.Latched = 1, false
		sigs[i], trigs[i] = sig, core.NewTrigger(tc)
	}
	return &Gate{
		learner:   l,
		sessIdx:   sessionIdx,
		state:     sigs[0].(*core.StateSignal), // concrete types keep Check statically checked
		pol:       sigs[1].(*core.PolicySignal),
		val:       sigs[2].(*core.ValueSignal),
		stateTrig: trigs[0],
		polTrig:   trigs[1],
		valTrig:   trigs[2],
		rateEvery: rateEvery,
		rateBurst: rateBurst,
	}, nil
}

// Counters exposes the learner's counters (read via atomic loads).
func (l *Learner) Counters() *Counters { return &l.counters }

func (l *Learner) loop(ticker *time.Ticker) {
	defer close(l.done)
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
			if l.cfg.RefitEvery > 0 && l.sinceRefit >= l.cfg.RefitEvery {
				l.refitLocked()
			}
			l.mu.Unlock()
		}
	}
}

// drainLocked takes the handoff's filled batch and folds each sample,
// in place, into the log, window and threshold sketches. Callers hold
// l.mu.
func (l *Learner) drainLocked() {
	b := l.handoff.take()
	for i := range b.n {
		feat := b.feat[i*b.dim : (i+1)*b.dim]
		if l.log != nil {
			sealedBefore := l.log.Sealed()
			if err := l.log.append(Record{Session: b.sess[i], Step: b.step[i], Feat: feat}); err == nil {
				l.counters.LogRecords.Add(1)
				l.counters.LogSegments.Add(l.log.Sealed() - sealedBefore)
			}
		}
		l.window.add(feat)
		l.polSketch.Add(b.pol[i])
		l.valSketch.Add(b.val[i])
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
	if len(snap) < minRefitSamples {
		l.counters.RefitFailures.Add(1)
		return nil, fmt.Errorf("learn: window has %d samples, need ≥ %d", len(snap), minRefitSamples)
	}
	// The refit keeps the baseline's kernel width (Model.Refit), and
	// the refit sequence number seeds its subsampling, so successive
	// refits are distinct but each is reproducible.
	model, err := l.cfg.Artifacts.OCSVM.Refit(snap, ocsvm.Config{Nu: refitNu, Seed: (l.refitSeq + 1) * 0x9E3779B97F4A7C15})
	if err != nil {
		l.counters.RefitFailures.Add(1)
		return nil, err
	}
	rec := l.cfg.Artifacts.Record // a recalibrated threshold records its own rule
	alphaPi, alphaV := l.cfg.Artifacts.AlphaPi, l.cfg.Artifacts.AlphaV
	requantile := func(sk *sketch.Sketch, alpha *float64, prov *experiments.Provenance) {
		if n := int(sk.Count()); n >= minCalibSamples {
			if a := sk.Quantile(alphaQuantile); a > 0 {
				*alpha = a
				*prov = experiments.Provenance{Rule: experiments.RuleQuantile, Target: alphaQuantile, Evals: n}
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
	version := fmt.Sprintf("%s-refit-%03d", proposalPrefix(l.cfg.ParentVersion), l.refitSeq)
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

// proposalPrefix names a parent's proposals "<prefix>-refit-NNN".
func proposalPrefix(parent string) string {
	if parent == "" {
		return "online"
	}
	return parent
}

// lastRefit returns the highest NNN among the registry's published
// "<prefix>-refit-NNN" versions, 0 when there is none or no registry
// yet, so that a learner over a registry that already holds its
// parent's refits numbers its own after them.
func lastRefit(root, prefix string) (uint64, error) {
	reg, err := registry.Open(root)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	versions, err := reg.Versions()
	if err != nil {
		return 0, err
	}
	var last uint64
	for _, v := range versions {
		if n, ok := strings.CutPrefix(v, prefix+"-refit-"); ok {
			if k, err := strconv.ParseUint(n, 10, 64); err == nil && k > last {
				last = k
			}
		}
	}
	return last, nil
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
	fill, size, total, last := l.window.n, l.window.size, l.window.total, l.lastProposal
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

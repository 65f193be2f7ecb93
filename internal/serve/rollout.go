package serve

// Canary rollout control plane (DESIGN.md §11). The server holds a set
// of Generations — one per loaded artifact version, each with its own
// GuardFactory, inference shards (which carry its drift sketches) and
// per-version counters — and a Rollout router that picks which
// generation a NEW session binds at admission. Live sessions keep
// their pinned generation until they end, so staging, promoting or
// rolling back a version never perturbs an existing session's decision
// stream: the Neural-Simplex move of switching toward a candidate
// controller only on fresh traffic, with the incumbent always intact
// to fall back to.
//
// State machine (one candidate at a time):
//
//	steady ──stage──▶ canary ──promote (manual or auto)──▶ steady′
//	                    │
//	                    └──rollback (manual or auto)──▶ steady
//
// Auto-rollback fires when the candidate's permanently-latched
// demotion rate (per session; transient excursions that probation
// recovers don't count — DESIGN.md §13) or fallback rate (per
// decision) exceeds the incumbent's by RollbackMargin after MinSamples
// decisions across MinSessions sessions; auto-promote fires when the
// candidate stays healthy for PromoteAfter decisions. Both are evaluated on the step path (every
// 64th candidate decision) and on every /dashboard read, so a
// quiescent fleet still converges.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"osap/internal/stats"
)

// VersionStats are one generation's serving counters, updated lock-free
// on the step path and read by the rollout controller and Server.view,
// through each counter's one row in the counters table. Every step
// outcome is counted here once, on the generation of the session that
// stepped; the generations are never dropped.
type VersionStats struct {
	Sessions       atomic.Uint64 // sessions admitted on this version
	Decisions      atomic.Uint64 // steps served
	Fallbacks      atomic.Uint64 // steps acted by the default policy
	TriggerFirings atomic.Uint64 // sessions whose trigger first fired
	Demotions      atomic.Uint64 // demotion events while on this version
	FirstDemotions atomic.Uint64 // sessions demoted for the first time
	Panics         atomic.Uint64 // recovered inference panics
	NonFinite      atomic.Uint64 // demotions caused by a NaN/Inf result
	Degraded       atomic.Uint64 // steps served in degraded mode
	Recovered      atomic.Uint64 // probation re-admissions (DESIGN.md §13)
	Redemoted      atomic.Uint64 // repeat demotions after a first one
	Latched        atomic.Uint64 // demotions that latched permanently
	Latency        *Histogram    // server-side step latency; the fleet's is the sum over generations
}

// Generation is one loaded artifact version inside the server: the
// immutable artifacts behind a factory, the version's own shards (a
// shard's scratch runs ONE artifact set's networks — a guard on another
// version's shard would decide through that version's weights, and
// the shards' drift sketches are the version's), and its counters.
type Generation struct {
	version  string
	checksum string
	factory  *GuardFactory
	shards   []*shard // none only for generations built without a factory (rollout tests)
	assign   atomic.Uint64
	stats    *VersionStats
}

func newGeneration(version, checksum string, f *GuardFactory) *Generation {
	g := &Generation{
		version:  version,
		checksum: checksum,
		factory:  f,
		stats:    &VersionStats{Latency: NewHistogram()},
	}
	if f != nil {
		g.shards = newShards(f)
	}
	return g
}

// assignShard round-robins a new session onto one of g's shards.
func (g *Generation) assignShard() *shard {
	return g.shards[g.assign.Add(1)%uint64(len(g.shards))]
}

// Version returns the generation's artifact version label.
func (g *Generation) Version() string { return g.version }

// Checksum returns the artifact envelope SHA-256 ("" when booted from
// a bare artifact file with no registry).
func (g *Generation) Checksum() string { return g.checksum }

// RolloutConfig tunes the canary controller. The zero value selects
// the defaults noted per field.
type RolloutConfig struct {
	// CanaryFraction is the default fraction of new sessions routed to
	// a staged candidate when the stage request names none (0 → 0.10).
	CanaryFraction float64
	// RollbackMargin is how much worse (absolute rate) the candidate
	// may run before auto-rollback (0 → 0.05).
	RollbackMargin float64
	// MinSamples is the candidate decision count before the controller
	// judges it at all (0 → 500).
	MinSamples int
	// MinSessions is the candidate session count before the controller
	// judges it (0 → 20).
	MinSessions int
	// PromoteAfter is the healthy-decision soak after which the
	// candidate auto-promotes (0 → 2500).
	PromoteAfter int
}

// checkFraction refuses a canary fraction outside [0, 1] or NaN.
func checkFraction(what string, f float64) error {
	if f >= 0 && f <= 1 {
		return nil
	}
	return fmt.Errorf("serve: %s %v outside [0, 1]", what, f)
}

func (c RolloutConfig) withDefaults() RolloutConfig {
	// NewServer refused any other value outside the fields' ranges.
	if c.CanaryFraction == 0 {
		c.CanaryFraction = 0.10
	}
	if c.RollbackMargin == 0 {
		c.RollbackMargin = 0.05
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 500
	}
	if c.MinSessions <= 0 {
		c.MinSessions = 20
	}
	if c.PromoteAfter <= 0 {
		c.PromoteAfter = 2500
	}
	return c
}

// RolloutEvent is one control-plane transition, kept in a bounded ring
// for the dashboard.
type RolloutEvent struct {
	Seq     uint64 `json:"seq"`
	UnixMs  int64  `json:"unix_ms"`
	Action  string `json:"action"` // staged | promoted | rolled_back
	Version string `json:"version"`
	Reason  string `json:"reason,omitempty"`
	Auto    bool   `json:"auto"`
}

// maxRolloutEvents bounds the dashboard's event history.
const maxRolloutEvents = 64

// Rollout routes new sessions across generations and runs the
// promote/rollback controller. The admission path reads only the two
// atomic pointers and the fraction; mu serializes state transitions.
type Rollout struct {
	cfg       RolloutConfig
	active    atomic.Pointer[Generation]
	candidate atomic.Pointer[Generation]
	fracBP    atomic.Uint64 // canary fraction in basis points (0..10000)

	promotions atomic.Uint64
	rollbacks  atomic.Uint64

	mu sync.Mutex
	// all holds every generation ever staged, in stage order.
	//
	//osap:guardedby mu
	all []*Generation
	//osap:guardedby mu
	byVersion map[string]*Generation
	//osap:guardedby mu
	events []RolloutEvent
	//osap:guardedby mu
	eventSeq uint64
}

func newRollout(base *Generation, cfg RolloutConfig) *Rollout {
	r := &Rollout{
		cfg:       cfg.withDefaults(),
		byVersion: map[string]*Generation{base.version: base},
		all:       []*Generation{base},
	}
	r.active.Store(base)
	return r
}

// pick routes one new session by its 0-based admission index: the
// candidate gets its configured fraction of NEW sessions, everyone
// else binds the active generation. The index is hashed (stats.Mix64),
// so canary assignment is deterministic in arrival order but
// uncorrelated with it.
//
//osap:hotpath
func (r *Rollout) pick(idx uint64) *Generation {
	if cand := r.candidate.Load(); cand != nil {
		if stats.Mix64(idx)%10000 < r.fracBP.Load() {
			return cand
		}
	}
	return r.active.Load()
}

// Active returns the incumbent generation.
func (r *Rollout) Active() *Generation { return r.active.Load() }

// Candidate returns the staged candidate, or nil outside a canary.
func (r *Rollout) Candidate() *Generation { return r.candidate.Load() }

// lookup returns a previously staged generation by version, or nil.
func (r *Rollout) lookup(version string) *Generation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.byVersion[version]
}

// generations snapshots every generation in stage order.
func (r *Rollout) generations() []*Generation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Generation(nil), r.all...)
}

func (r *Rollout) eventLocked(action, version, reason string, auto bool, now time.Time) {
	r.eventSeq++
	r.events = append(r.events, RolloutEvent{
		Seq:     r.eventSeq,
		UnixMs:  now.UnixMilli(),
		Action:  action,
		Version: version,
		Reason:  reason,
		Auto:    auto,
	})
	if len(r.events) > maxRolloutEvents {
		r.events = r.events[len(r.events)-maxRolloutEvents:]
	}
}

// Events snapshots the transition history, oldest first.
func (r *Rollout) Events() []RolloutEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]RolloutEvent(nil), r.events...)
}

// Stage installs gen as the canary candidate, routing fraction (0 →
// cfg.CanaryFraction; outside [0, 1] is an error) of new sessions to
// it. Re-staging a version seen before reuses its Generation — stats,
// shards and any sessions still pinned to it continue — and the
// returned *Generation is the one actually staged, so a caller that
// built gen fresh can release its copy when a cached one won.
func (r *Rollout) Stage(gen *Generation, fraction float64, now time.Time) (*Generation, error) {
	if err := checkFraction("canary fraction", fraction); err != nil {
		return nil, err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if act := r.active.Load(); act != nil && act.version == gen.version {
		return nil, fmt.Errorf("serve: version %s is already active", gen.version)
	}
	if cand := r.candidate.Load(); cand != nil {
		if cand.version == gen.version {
			return nil, fmt.Errorf("serve: version %s is already the candidate", gen.version)
		}
		return nil, fmt.Errorf("serve: candidate %s already staged; promote or roll back first", cand.version)
	}
	if existing := r.byVersion[gen.version]; existing != nil {
		gen = existing
	} else {
		r.all = append(r.all, gen)
		r.byVersion[gen.version] = gen
	}
	if fraction == 0 {
		fraction = r.cfg.CanaryFraction
	}
	bp := uint64(fraction*10000 + 0.5)
	r.fracBP.Store(bp)
	r.candidate.Store(gen)
	r.eventLocked("staged", gen.version, fmt.Sprintf("canary fraction %.4f", float64(bp)/10000), false, now)
	return gen, nil
}

// Promote makes the candidate the active generation. The old incumbent
// stays loaded (sessions pinned to it keep serving) but receives no
// new sessions.
func (r *Rollout) Promote(reason string, auto bool, now time.Time) (*Generation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoteLocked(r.candidate.Load(), reason, auto, now)
}

func (r *Rollout) promoteLocked(cand *Generation, reason string, auto bool, now time.Time) (*Generation, error) {
	if cand == nil || r.candidate.Load() != cand {
		return nil, fmt.Errorf("serve: no candidate staged")
	}
	r.candidate.Store(nil)
	r.active.Store(cand)
	r.promotions.Add(1)
	r.eventLocked("promoted", cand.version, reason, auto, now)
	return cand, nil
}

// Rollback withdraws the candidate: new sessions all bind the
// incumbent again. Sessions already pinned to the candidate keep their
// generation (demoted ones stay demoted) until they end.
func (r *Rollout) Rollback(reason string, auto bool, now time.Time) (*Generation, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rollbackLocked(r.candidate.Load(), reason, auto, now)
}

func (r *Rollout) rollbackLocked(cand *Generation, reason string, auto bool, now time.Time) (*Generation, error) {
	if cand == nil || r.candidate.Load() != cand {
		return nil, fmt.Errorf("serve: no candidate staged")
	}
	r.candidate.Store(nil)
	r.rollbacks.Add(1)
	r.eventLocked("rolled_back", cand.version, reason, auto, now)
	return cand, nil
}

// evaluate runs one controller pass: judge the candidate against the
// incumbent and auto-rollback or auto-promote. Cheap when no candidate
// is staged or the sample is still too small; safe to call from many
// goroutines (transitions re-check the candidate under mu).
func (r *Rollout) evaluate(now time.Time) {
	cand := r.candidate.Load()
	if cand == nil {
		return
	}
	act := r.active.Load()
	cd := cand.stats.Decisions.Load()
	cs := cand.stats.Sessions.Load()
	if cd < uint64(r.cfg.MinSamples) || cs < uint64(r.cfg.MinSessions) {
		return
	}
	// Judge on permanent latches, not raw demotions: a transient
	// excursion that probation recovers is not evidence of a bad
	// artifact. Without probation every demotion latches, so this is
	// the pre-probation demotion rate exactly.
	candDem := float64(cand.stats.Latched.Load()) / float64(cs)
	candFb := float64(cand.stats.Fallbacks.Load()) / float64(cd)
	var actDem, actFb float64
	if as := act.stats.Sessions.Load(); as > 0 {
		actDem = float64(act.stats.Latched.Load()) / float64(as)
	}
	if ad := act.stats.Decisions.Load(); ad > 0 {
		actFb = float64(act.stats.Fallbacks.Load()) / float64(ad)
	}
	// A lost race below (another goroutine already transitioned) just
	// returns an error, which is discarded: the transition happened.
	margin := r.cfg.RollbackMargin
	transition, reason := r.rollbackLocked, ""
	switch {
	case candDem > actDem+margin:
		reason = fmt.Sprintf("demotion rate %.4f/session exceeds incumbent %.4f by more than %.4f (%d sessions, %d decisions)",
			candDem, actDem, margin, cs, cd)
	case candFb > actFb+margin:
		reason = fmt.Sprintf("fallback rate %.4f/decision exceeds incumbent %.4f by more than %.4f (%d sessions, %d decisions)",
			candFb, actFb, margin, cs, cd)
	case cd >= uint64(r.cfg.PromoteAfter):
		transition, reason = r.promoteLocked, fmt.Sprintf(
			"healthy after %d decisions across %d sessions (demotion %.4f vs %.4f, fallback %.4f vs %.4f)",
			cd, cs, candDem, actDem, candFb, actFb)
	default:
		return
	}
	r.mu.Lock()
	_, _ = transition(cand, reason, true, now)
	r.mu.Unlock()
}

// CanaryFraction returns the live canary fraction (0 when no candidate
// is staged).
func (r *Rollout) CanaryFraction() float64 {
	if r.candidate.Load() == nil {
		return 0
	}
	return float64(r.fracBP.Load()) / 10000
}

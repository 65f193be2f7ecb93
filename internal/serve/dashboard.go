package serve

// Fleet observability and rollout control endpoints:
//
//	GET  /dashboard      JSON: versions, canary state, drift quantiles
//	POST /admin/rollout  {"action":"stage|promote|rollback", ...}
//
// plus the whole /metrics document (Server.writeProm): the registry's
// own families, fleet totals summed over generations, osap_build_info,
// per-version counters, rollout gauges and drift-score quantiles.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"osap/internal/buildinfo"
	"osap/internal/experiments"
	"osap/internal/sketch"
)

// driftQuantiles is one merged sketch's summary for the dashboard.
// Quantile fields are zero (not NaN, which JSON cannot carry) when the
// sketch is empty.
type driftQuantiles struct {
	Count   uint64  `json:"count"`
	Dropped uint64  `json:"dropped,omitempty"`
	Min     float64 `json:"min"`
	Max     float64 `json:"max"`
	P50     float64 `json:"p50"`
	P90     float64 `json:"p90"`
	P99     float64 `json:"p99"`
}

func summarizeSketch(sk *sketch.Sketch) driftQuantiles {
	q := driftQuantiles{Count: sk.Count(), Dropped: sk.Dropped()}
	if q.Count == 0 {
		return q
	}
	q.Min, q.Max = sk.Min(), sk.Max()
	q.P50 = sk.Quantile(0.50)
	q.P90 = sk.Quantile(0.90)
	q.P99 = sk.Quantile(0.99)
	return q
}

// dashboardVersion is one generation's row in the dashboard document.
type dashboardVersion struct {
	Version      string  `json:"version"`
	Checksum     string  `json:"checksum,omitempty"`
	Role         string  `json:"role"` // active | candidate | retired
	Sessions     uint64  `json:"sessions_total"`
	SessionsLive int64   `json:"sessions_live"`
	Decisions    uint64  `json:"decisions_total"`
	Fallbacks    uint64  `json:"fallbacks_total"`
	Demotions    uint64  `json:"demotions_total"`
	Degraded     uint64  `json:"degraded_steps_total"`
	Recovered    uint64  `json:"recovered_total"`
	Redemoted    uint64  `json:"redemoted_total"`
	Latched      uint64  `json:"latched_total"`
	FallbackRate float64 `json:"fallback_rate"`
	// DemotionRate is permanent latches per session — the rate the
	// rollout controller judges; probation-recovered excursions are
	// excluded (DESIGN.md §13).
	DemotionRate float64                   `json:"demotion_rate"`
	LatencyP50Us float64                   `json:"latency_p50_us"`
	LatencyP99Us float64                   `json:"latency_p99_us"`
	Drift        map[string]driftQuantiles `json:"drift"`
	Record       experiments.Record        `json:"record"` // what the version's guards are built from
}

func (s *Server) versionRow(g *Generation, role string, live int) dashboardVersion {
	st := g.stats
	row := dashboardVersion{
		Version:      g.version,
		Checksum:     g.checksum,
		Role:         role,
		Sessions:     st.Sessions.Load(),
		SessionsLive: int64(live),
		Decisions:    st.Decisions.Load(),
		Fallbacks:    st.Fallbacks.Load(),
		Demotions:    st.Demotions.Load(),
		Degraded:     st.Degraded.Load(),
		Recovered:    st.Recovered.Load(),
		Redemoted:    st.Redemoted.Load(),
		Latched:      st.Latched.Load(),
		LatencyP50Us: st.Latency.Quantile(0.50) * 1e6,
		LatencyP99Us: st.Latency.Quantile(0.99) * 1e6,
		Drift:        make(map[string]driftQuantiles, driftSignals),
		Record:       g.factory.arts.Record,
	}
	if row.Decisions > 0 {
		row.FallbackRate = float64(row.Fallbacks) / float64(row.Decisions)
	}
	if row.Sessions > 0 {
		row.DemotionRate = float64(row.Latched) / float64(row.Sessions)
	}
	for sig := 0; sig < driftSignals; sig++ {
		row.Drift[driftSignalNames[sig]] = summarizeSketch(g.drift.Merged(sig))
	}
	return row
}

// roleOf labels a generation relative to the current rollout state.
func (s *Server) roleOf(g *Generation) string {
	switch g {
	case s.rollout.Active():
		return "active"
	case s.rollout.Candidate():
		return "candidate"
	default:
		return "retired"
	}
}

func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	// A controller pass first: a quiescent fleet (no steps arriving)
	// still promotes or rolls back when someone looks.
	s.rollout.evaluate(s.cfg.Now())

	gens := s.rollout.generations()
	live := s.countLive()
	rows := make([]dashboardVersion, 0, len(gens))
	for _, g := range gens {
		rows = append(rows, s.versionRow(g, s.roleOf(g), live.byGen[g]))
	}
	doc := map[string]any{
		"build_version": buildinfo.Version,
		"dataset":       s.factory.Dataset(),
		"draining":      s.draining.Load(),
		"live_sessions": s.table.Len(),
		"versions":      rows,
		"rollout": map[string]any{
			"active":          s.rollout.Active().Version(),
			"candidate":       candidateVersion(s.rollout),
			"canary_fraction": s.rollout.CanaryFraction(),
			"promotions":      s.rollout.promotions.Load(),
			"rollbacks":       s.rollout.rollbacks.Load(),
			"events":          s.rollout.Events(),
		},
	}
	if s.cfg.ListVersions != nil {
		doc["registry_versions"] = s.cfg.ListVersions()
	}
	if s.cfg.ListProposed != nil {
		// Pending online-learning refits, surfaced apart from the
		// promotable set so operators see them without tailing logs.
		doc["registry_proposed"] = s.cfg.ListProposed()
	}
	if l := s.cfg.Learner; l != nil {
		doc["learn"] = l.Snapshot()
	}
	writeJSON(w, http.StatusOK, doc)
}

func candidateVersion(r *Rollout) string {
	if cand := r.Candidate(); cand != nil {
		return cand.Version()
	}
	return ""
}

// rolloutRequest is the POST /admin/rollout body.
type rolloutRequest struct {
	Action   string  `json:"action"` // stage | promote | rollback
	Version  string  `json:"version,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// handleRollout follows handleCreate's pattern: a stage loads and
// builds its generation before it takes opGate — a slow LoadVersion
// holds nothing Drain waits for — and every rollout transition runs
// under the gate after a second draining check, so none lands after
// Drain's final snapshot.
func (s *Server) handleRollout(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	var req rolloutRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	var staged *Generation
	if req.Action == "stage" {
		if req.Version == "" {
			s.writeError(w, http.StatusBadRequest, "stage requires a version")
			return
		}
		var err error
		if staged, err = s.loadGeneration(req.Version); err != nil {
			code := http.StatusConflict
			if s.cfg.LoadVersion == nil {
				code = http.StatusNotImplemented
			}
			s.writeError(w, code, "%v", err)
			return
		}
	}
	s.opGate.RLock()
	defer s.opGate.RUnlock()
	if s.refuseDraining(w) {
		return
	}
	now := s.cfg.Now()
	switch req.Action {
	case "stage":
		gen, err := s.rollout.Stage(staged, req.Fraction, now)
		if err != nil {
			s.writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"staged":          gen.Version(),
			"checksum":        gen.Checksum(),
			"active":          s.rollout.Active().Version(),
			"canary_fraction": s.rollout.CanaryFraction(),
		})
	case "promote":
		gen, err := s.rollout.Promote(orDefault(req.Reason, "manual promote"), false, now)
		if err != nil {
			s.writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"promoted": gen.Version(), "active": gen.Version()})
	case "rollback":
		gen, err := s.rollout.Rollback(orDefault(req.Reason, "manual rollback"), false, now)
		if err != nil {
			s.writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"rolled_back": gen.Version(),
			"active":      s.rollout.Active().Version(),
		})
	default:
		s.writeError(w, http.StatusBadRequest, "unknown action %q (want stage, promote or rollback)", req.Action)
	}
}

func orDefault(s, def string) string {
	if s != "" {
		return s
	}
	return def
}

// loadGeneration loads and validates a named artifact version as a
// generation Rollout.Stage can install. Requires Config.LoadVersion
// (the registry binding); without it the server is a fixed-artifact
// deployment and staging is unsupported.
func (s *Server) loadGeneration(version string) (*Generation, error) {
	if s.cfg.LoadVersion == nil {
		return nil, fmt.Errorf("serve: no artifact registry configured; staging unavailable")
	}
	// A version staged before (then promoted away from or rolled back)
	// is reused with its stats and shards intact.
	if existing := s.rollout.lookup(version); existing != nil {
		return existing, nil
	}
	arts, checksum, err := s.cfg.LoadVersion(version)
	if err != nil {
		return nil, err
	}
	// Its guards are built from its own record: only probation carries over.
	f, err := NewGuardFactory(arts, GuardConfig{Probation: s.factory.probation})
	if err != nil {
		return nil, err
	}
	// Sessions bind a version at admission but clients negotiate
	// obs/action dims once, so every generation must agree on the
	// interface contract.
	if f.ObsDim() != s.factory.ObsDim() || f.NumActions() != s.factory.NumActions() {
		return nil, fmt.Errorf("serve: version %s has obs_dim=%d num_actions=%d, incompatible with serving contract obs_dim=%d num_actions=%d",
			version, f.ObsDim(), f.NumActions(), s.factory.ObsDim(), s.factory.NumActions())
	}
	if f.Dataset() != s.factory.Dataset() {
		return nil, fmt.Errorf("serve: version %s serves dataset %q, server is bound to %q",
			version, f.Dataset(), s.factory.Dataset())
	}
	return newGeneration(version, checksum, f), nil
}

// writeProm renders the /metrics document, which is also the drain
// snapshot: the registry's families with the gauges read from one table
// walk, the fleet counters summed over generations, then the build,
// rollout, per-version and drift families.
func (s *Server) writeProm(w io.Writer) error {
	gens := s.rollout.generations()
	live := s.countLive()
	err := s.metrics.WriteProm(w, s.table.Len(), live.demoted, live.probation)

	tot := fleetTotals(gens)
	for _, c := range [...]struct {
		name, help string
		v          uint64
	}{
		{"osap_sessions_created_total", "Sessions admitted.", tot.Sessions.Load()},
		{"osap_decisions_fallback_total", "Decisions acted by the default policy.", tot.Fallbacks.Load()},
		{"osap_trigger_firings_total", "Sessions whose safety trigger fired.", tot.TriggerFirings.Load()},
		{"osap_sessions_demoted_total", "Sessions demoted to the safe default policy.", tot.FirstDemotions.Load()},
		{"osap_step_panics_recovered_total", "Inference panics recovered during steps.", tot.Panics.Load()},
		{"osap_step_nonfinite_total", "Steps whose guard produced a non-finite result.", tot.NonFinite.Load()},
		{"osap_decisions_degraded_total", "Decisions served by demoted sessions.", tot.Degraded.Load()},
		{"osap_sessions_recovered_total", "Probation re-admissions of demoted sessions.", tot.Recovered.Load()},
		{"osap_sessions_redemoted_total", "Repeat demotions of previously demoted sessions.", tot.Redemoted.Load()},
		{"osap_sessions_latched_total", "Demotions latched permanently (fault or cap spent).", tot.Latched.Load()},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v)
	}

	act := s.rollout.Active()
	fmt.Fprintf(w, "# HELP osap_build_info Build and active artifact identity (value is always 1).\n")
	fmt.Fprintf(w, "# TYPE osap_build_info gauge\n")
	fmt.Fprintf(w, "osap_build_info{version=%q,artifact_version=%q,artifact_sha256=%q} 1\n",
		buildinfo.Version, act.Version(), act.Checksum())

	fmt.Fprintf(w, "# HELP osap_rollout_canary_fraction Fraction of new sessions routed to the candidate.\n")
	fmt.Fprintf(w, "# TYPE osap_rollout_canary_fraction gauge\nosap_rollout_canary_fraction %s\n",
		promFloat(s.rollout.CanaryFraction()))
	fmt.Fprintf(w, "# HELP osap_rollout_promotions_total Candidate promotions (manual and automatic).\n")
	fmt.Fprintf(w, "# TYPE osap_rollout_promotions_total counter\nosap_rollout_promotions_total %d\n",
		s.rollout.promotions.Load())
	fmt.Fprintf(w, "# HELP osap_rollout_rollbacks_total Candidate rollbacks (manual and automatic).\n")
	fmt.Fprintf(w, "# TYPE osap_rollout_rollbacks_total counter\nosap_rollout_rollbacks_total %d\n",
		s.rollout.rollbacks.Load())

	fmt.Fprintf(w, "# HELP osap_version_info Loaded artifact versions and their rollout role.\n")
	fmt.Fprintf(w, "# TYPE osap_version_info gauge\n")
	for _, g := range gens {
		fmt.Fprintf(w, "osap_version_info{version=%q,sha256=%q,role=%q} 1\n",
			g.Version(), g.Checksum(), s.roleOf(g))
	}
	family := func(name, help, typ string, val func(*Generation) uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, g := range gens {
			fmt.Fprintf(w, "%s{version=%q} %d\n", name, g.Version(), val(g))
		}
	}
	family("osap_version_sessions_total", "Sessions admitted per artifact version.", "counter",
		func(g *Generation) uint64 { return g.stats.Sessions.Load() })
	family("osap_version_sessions_live", "Live sessions pinned per artifact version.", "gauge",
		func(g *Generation) uint64 { return uint64(live.byGen[g]) })
	family("osap_version_decisions_total", "Decisions served per artifact version.", "counter",
		func(g *Generation) uint64 { return g.stats.Decisions.Load() })
	family("osap_version_fallbacks_total", "Default-policy decisions per artifact version.", "counter",
		func(g *Generation) uint64 { return g.stats.Fallbacks.Load() })
	family("osap_version_demotions_total", "Demotion events per artifact version.", "counter",
		func(g *Generation) uint64 { return g.stats.Demotions.Load() })
	family("osap_version_degraded_steps_total", "Degraded-mode steps per artifact version.", "counter",
		func(g *Generation) uint64 { return g.stats.Degraded.Load() })
	family("osap_version_recovered_total", "Probation re-admissions per artifact version.", "counter",
		func(g *Generation) uint64 { return g.stats.Recovered.Load() })
	family("osap_version_redemoted_total", "Repeat demotions per artifact version.", "counter",
		func(g *Generation) uint64 { return g.stats.Redemoted.Load() })
	family("osap_version_latched_total", "Permanently latched demotions per artifact version.", "counter",
		func(g *Generation) uint64 { return g.stats.Latched.Load() })

	fmt.Fprintf(w, "# HELP osap_drift_score Guard-score quantiles per version and signal (merged t-digest).\n")
	fmt.Fprintf(w, "# TYPE osap_drift_score gauge\n")
	fmt.Fprintf(w, "# HELP osap_drift_observations_total Guard scores folded into the drift sketches.\n")
	fmt.Fprintf(w, "# TYPE osap_drift_observations_total counter\n")
	for _, g := range gens {
		for sig := 0; sig < driftSignals; sig++ {
			sk := g.drift.Merged(sig)
			fmt.Fprintf(w, "osap_drift_observations_total{version=%q,signal=%q} %d\n",
				g.Version(), driftSignalNames[sig], sk.Count())
			if sk.Count() == 0 {
				continue
			}
			for _, q := range [...]float64{0.5, 0.9, 0.99} {
				fmt.Fprintf(w, "osap_drift_score{version=%q,signal=%q,quantile=%q} %s\n",
					g.Version(), driftSignalNames[sig], promFloat(q), promFloat(sk.Quantile(q)))
			}
		}
	}

	if s.cfg.Learner != nil {
		s.writeLearnProm(w)
	}
	return err
}

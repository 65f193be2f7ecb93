package serve

// Fleet observability and rollout control endpoints:
//
//	GET  /dashboard      JSON: versions, canary state, drift quantiles
//	POST /admin/rollout  {"action":"stage|promote|rollback", ...}
//
// plus the counters table, the one read of the fleet that /dashboard,
// /healthz and /metrics render (Server.view), and the whole /metrics
// document (Server.writeProm).

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"

	"osap/internal/buildinfo"
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

// Indices of the counters rows the dashboard's rates divide.
const (
	cSessions = iota
	cDecisions
	cFallbacks
	cLatched
)

// counters declares every VersionStats counter once: fleet is its sum
// over the generations on /metrics, key names that sum on /healthz and
// the generation's own count on each /dashboard row, and the per-
// version family on /metrics is osap_version_<key>. A step-outcome
// counter reaches every surface by its row here.
var counters = [...]struct {
	fleet, key, help string
	of               func(*VersionStats) *atomic.Uint64
}{
	cSessions: {"osap_sessions_created_total", "sessions_total", "Sessions admitted",
		func(st *VersionStats) *atomic.Uint64 { return &st.Sessions }},
	cDecisions: {"osap_decisions_total", "decisions_total", "Guarded decisions served",
		func(st *VersionStats) *atomic.Uint64 { return &st.Decisions }},
	cFallbacks: {"osap_decisions_fallback_total", "fallbacks_total", "Decisions acted by the default policy",
		func(st *VersionStats) *atomic.Uint64 { return &st.Fallbacks }},
	cLatched: {"osap_sessions_latched_total", "latched_total", "Demotions latched permanently (fault or cap spent)",
		func(st *VersionStats) *atomic.Uint64 { return &st.Latched }},
	{"osap_trigger_firings_total", "trigger_firings_total", "Sessions whose safety trigger fired",
		func(st *VersionStats) *atomic.Uint64 { return &st.TriggerFirings }},
	{"osap_demotions_total", "demotions_total", "Demotion events, first and repeat",
		func(st *VersionStats) *atomic.Uint64 { return &st.Demotions }},
	{"osap_sessions_demoted_total", "sessions_demoted_total", "Sessions demoted to the safe default policy",
		func(st *VersionStats) *atomic.Uint64 { return &st.FirstDemotions }},
	{"osap_step_panics_recovered_total", "panics_recovered_total", "Inference panics recovered during steps",
		func(st *VersionStats) *atomic.Uint64 { return &st.Panics }},
	{"osap_step_nonfinite_total", "nonfinite_total", "Steps whose guard produced a non-finite result",
		func(st *VersionStats) *atomic.Uint64 { return &st.NonFinite }},
	{"osap_decisions_degraded_total", "degraded_steps_total", "Decisions served by demoted sessions",
		func(st *VersionStats) *atomic.Uint64 { return &st.Degraded }},
	{"osap_sessions_recovered_total", "recovered_total", "Probation re-admissions of demoted sessions",
		func(st *VersionStats) *atomic.Uint64 { return &st.Recovered }},
	{"osap_sessions_redemoted_total", "redemoted_total", "Repeat demotions of previously demoted sessions",
		func(st *VersionStats) *atomic.Uint64 { return &st.Redemoted }},
}

// fleetView is one read of the fleet, the only one /metrics (and the
// drain snapshot), /dashboard and /healthz make: one walk of the
// session table for the gauges, then one pass over the generations for
// their counters, fleet sums, roles, latency and drift quantiles.
type fleetView struct {
	live, demoted, probation int
	total                    [len(counters)]uint64
	step                     *Histogram // the step endpoint's latency: the generations' summed
	active                   *Generation
	candidate                string // "" when none is staged
	versions                 []versionView
}

// versionView is one generation's part of a fleetView.
type versionView struct {
	*Generation
	role     string // active | candidate | retired
	live     int
	count    [len(counters)]uint64
	p50, p99 float64                   // step latency, µs
	drift    map[string]driftQuantiles // by signal name, its shards merged once
}

// view reads every live session's (generation, mode) under its lock,
// after releasing the table's, as Sweep and Clear do; then the
// generations. osap_sessions_live is the sum of the per-version live
// counts, so the two cannot disagree.
func (s *Server) view() *fleetView {
	v := &fleetView{active: s.rollout.Active(), step: NewHistogram()}
	cand := s.rollout.Candidate()
	byGen := make(map[*Generation]int)
	s.table.each(func(sess *Session) {
		if mode, open := sess.liveMode(); open {
			byGen[sess.gen]++
			if mode != modeLive {
				v.demoted++
			}
			if mode == modeProbation {
				v.probation++
			}
		}
	})
	for _, g := range s.rollout.generations() {
		gv := versionView{Generation: g, role: "retired", live: byGen[g],
			p50: g.stats.Latency.Quantile(0.50) * 1e6, p99: g.stats.Latency.Quantile(0.99) * 1e6,
			drift: make(map[string]driftQuantiles, driftSignals)}
		switch g {
		case v.active:
			gv.role = "active"
		case cand:
			gv.role, v.candidate = "candidate", g.version
		}
		v.live += gv.live
		v.step.merge(g.stats.Latency)
		for i, c := range counters {
			gv.count[i] = c.of(g.stats).Load()
			v.total[i] += gv.count[i]
		}
		for sig, name := range driftSignalNames {
			gv.drift[name] = summarizeSketch(g.drift(sig))
		}
		v.versions = append(v.versions, gv)
	}
	return v
}

// row is one generation's entry in the dashboard's versions list.
// demotion_rate is permanent latches per session — the rate the
// rollout controller judges; probation-recovered excursions are
// excluded (DESIGN.md §13). A rate's numerator is 0 whenever its
// denominator is, so max(·, 1) makes an empty version's rates 0.
func (gv *versionView) row() map[string]any {
	c := &gv.count
	row := map[string]any{
		"version":        gv.version,
		"role":           gv.role,
		"sessions_live":  gv.live,
		"fallback_rate":  float64(c[cFallbacks]) / float64(max(c[cDecisions], 1)),
		"demotion_rate":  float64(c[cLatched]) / float64(max(c[cSessions], 1)),
		"latency_p50_us": gv.p50,
		"latency_p99_us": gv.p99,
		"record":         gv.factory.cal.Record, // what the version's guards are built from
		"drift":          gv.drift,
	}
	if gv.checksum != "" {
		row["checksum"] = gv.checksum
	}
	for i, c := range counters {
		row[c.key] = gv.count[i]
	}
	return row
}

func (s *Server) handleDashboard(w http.ResponseWriter, _ *http.Request) {
	// A controller pass first: a quiescent fleet (no steps arriving)
	// still promotes or rolls back when someone looks.
	s.rollout.evaluate(s.cfg.Now())

	v := s.view()
	rows := make([]map[string]any, len(v.versions))
	for i := range v.versions {
		rows[i] = v.versions[i].row()
	}
	doc := map[string]any{
		"build_version": buildinfo.Version,
		"dataset":       s.factory.Dataset(),
		"draining":      s.draining.Load(),
		"live_sessions": v.live,
		"versions":      rows,
		"rollout": map[string]any{
			"active":          v.active.version,
			"candidate":       v.candidate,
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

// rolloutRequest is the POST /admin/rollout body.
type rolloutRequest struct {
	Action   string  `json:"action"` // stage | promote | rollback
	Version  string  `json:"version,omitempty"`
	Fraction float64 `json:"fraction,omitempty"`
	Reason   string  `json:"reason,omitempty"`
}

// handleRollout follows handleCreate's pattern: a stage loads and
// builds its generation outside the door — a slow LoadVersion holds
// nothing Drain waits for — and every rollout transition runs inside
// it (Server.enter), so none lands after Drain's final snapshot.
func (s *Server) handleRollout(w http.ResponseWriter, r *http.Request) {
	if s.refused() {
		s.refuse(w, statusDraining, "")
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
		if err := checkFraction("fraction", req.Fraction); err != nil {
			s.writeError(w, http.StatusBadRequest, "%v", err)
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
	if !s.enter() {
		s.refuse(w, statusDraining, "")
		return
	}
	defer s.opGate.RUnlock()
	now := s.cfg.Now()
	var gen *Generation
	var err error
	switch req.Action {
	case "stage":
		gen, err = s.rollout.Stage(staged, req.Fraction, now)
	case "promote":
		gen, err = s.rollout.Promote(cmp.Or(req.Reason, "manual promote"), false, now)
	case "rollback":
		gen, err = s.rollout.Rollback(cmp.Or(req.Reason, "manual rollback"), false, now)
	default:
		s.writeError(w, http.StatusBadRequest, "unknown action %q (want stage, promote or rollback)", req.Action)
		return
	}
	if err != nil {
		s.writeError(w, http.StatusConflict, "%v", err)
		return
	}
	reply := map[string]any{rolloutDone[req.Action]: gen.Version(), "active": s.rollout.Active().Version()}
	if req.Action == "stage" {
		reply["checksum"], reply["canary_fraction"] = gen.Checksum(), s.rollout.CanaryFraction()
	}
	writeJSON(w, http.StatusOK, reply)
}

// rolloutDone names each rollout action's reply key.
var rolloutDone = map[string]string{"stage": "staged", "promote": "promoted", "rollback": "rolled_back"}

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
// snapshot, from one view: the registry's families with the gauges and
// the step endpoint's latency, then for each counters row its fleet
// sum, the build and rollout families, each row's per-version family,
// and the drift families.
func (s *Server) writeProm(w io.Writer) error {
	v := s.view()
	err := s.metrics.WriteProm(w, v.live, v.demoted, v.probation)
	// The registry's output ends with osap_request_duration_seconds,
	// whose endpoints all sort before "step": the series below is the
	// family's last, as if the registry held it.
	writeHist(w, "osap_request_duration_seconds", `endpoint="step"`, v.step)
	for i, c := range counters {
		writeScalar(w, c.fleet, c.help+".", "counter", v.total[i])
	}

	promFamily(w, "osap_build_info", "Build and active artifact identity (value is always 1).", "gauge")
	fmt.Fprintf(w, "osap_build_info{version=%q,artifact_version=%q,artifact_sha256=%q} 1\n",
		buildinfo.Version, v.active.version, v.active.checksum)

	promFamily(w, "osap_rollout_canary_fraction", "Fraction of new sessions routed to the candidate.", "gauge")
	fmt.Fprintf(w, "osap_rollout_canary_fraction %s\n", promFloat(s.rollout.CanaryFraction()))
	writeScalar(w, "osap_rollout_promotions_total", "Candidate promotions (manual and automatic).", "counter",
		s.rollout.promotions.Load())
	writeScalar(w, "osap_rollout_rollbacks_total", "Candidate rollbacks (manual and automatic).", "counter",
		s.rollout.rollbacks.Load())

	promFamily(w, "osap_version_info", "Loaded artifact versions and their rollout role.", "gauge")
	for _, gv := range v.versions {
		fmt.Fprintf(w, "osap_version_info{version=%q,sha256=%q,role=%q} 1\n", gv.version, gv.checksum, gv.role)
	}
	promFamily(w, "osap_version_sessions_live", "Live sessions pinned per artifact version.", "gauge")
	for _, gv := range v.versions {
		fmt.Fprintf(w, "osap_version_sessions_live{version=%q} %d\n", gv.version, gv.live)
	}
	for i, c := range counters {
		promFamily(w, "osap_version_"+c.key, c.help+" per artifact version.", "counter")
		for _, gv := range v.versions {
			fmt.Fprintf(w, "osap_version_%s{version=%q} %d\n", c.key, gv.version, gv.count[i])
		}
	}

	promFamily(w, "osap_drift_score", "Guard-score quantiles per version and signal (merged t-digest).", "gauge")
	promFamily(w, "osap_drift_observations_total", "Guard scores folded into the drift sketches.", "counter")
	for _, gv := range v.versions {
		for _, name := range driftSignalNames {
			q := gv.drift[name]
			sel := fmt.Sprintf("version=%q,signal=%q", gv.version, name)
			fmt.Fprintf(w, "osap_drift_observations_total{%s} %d\n", sel, q.Count)
			if q.Count > 0 {
				fmt.Fprintf(w, "osap_drift_score{%[1]s,quantile=\"0.5\"} %[2]s\n"+
					"osap_drift_score{%[1]s,quantile=\"0.9\"} %[3]s\n"+
					"osap_drift_score{%[1]s,quantile=\"0.99\"} %[4]s\n", sel, promFloat(q.P50), promFloat(q.P90), promFloat(q.P99))
			}
		}
	}

	if s.cfg.Learner != nil {
		s.writeLearnProm(w)
	}
	return err
}

package serve

// Online-learning surface (DESIGN.md §14):
//
//	POST /admin/learn  {"action":"refit"}  → synchronous gated refit
//
// plus the osap_learn_* Prometheus families appended by writeProm
// when a Learner is configured. The server never
// promotes a refit: proposals land in the registry as Proposed
// versions and only the rollout machinery (POST /admin/rollout) can
// ever serve one.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"osap/internal/learn"
)

// learnRequest is the POST /admin/learn body.
type learnRequest struct {
	Action string `json:"action"` // refit
}

// handleLearn follows handleCreate's pattern: the body is read outside
// the door, and the refit runs inside it (Server.enter), so Drain's
// barrier waits for it and no refit is counted or published after the
// final snapshot.
func (s *Server) handleLearn(w http.ResponseWriter, r *http.Request) {
	l := s.cfg.Learner
	if l == nil {
		s.writeError(w, http.StatusNotImplemented, "online learning is not enabled")
		return
	}
	if s.refused() {
		s.refuse(w, statusDraining, "")
		return
	}
	var req learnRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil && err != io.EOF {
		s.writeError(w, http.StatusBadRequest, "decode request: %v", err)
		return
	}
	if req.Action != "refit" {
		s.writeError(w, http.StatusBadRequest, "unknown action %q (want refit)", req.Action)
		return
	}
	if !s.enter() {
		s.refuse(w, statusDraining, "")
		return
	}
	defer s.opGate.RUnlock()
	prop, err := l.Refit()
	if err != nil {
		s.writeError(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, prop)
}

// writeLearnProm appends the online-learning counter families.
func (s *Server) writeLearnProm(w io.Writer) {
	c := s.cfg.Learner.Counters()
	counter := func(name, help string, val uint64) { writeScalar(w, name, help, "counter", val) }
	counter("osap_learn_gate_checked_total", "Serving steps judged by the trust gate.", c.Checked.Load())
	counter("osap_learn_gate_admitted_total", "Steps admitted to the experience window.", c.Admitted.Load())
	promFamily(w, "osap_learn_gate_rejected_total", "Steps rejected by the trust gate, by reason.", "counter")
	for v := learn.Verdict(1); ; v++ {
		name := v.String()
		if name == "unknown" {
			break
		}
		fmt.Fprintf(w, "osap_learn_gate_rejected_total{reason=%q} %d\n", name, c.Rejected(v))
	}
	fmt.Fprintf(w, "osap_learn_gate_rejected_total{reason=\"demoted\"} %d\n", c.RejectedDemoted.Load())
	counter("osap_learn_ring_dropped_total", "Admitted samples dropped because the handoff's filling batch was full.", c.RingDropped.Load())
	counter("osap_learn_log_records_total", "Records appended to the experience log this run.", c.LogRecords.Load())
	counter("osap_learn_log_segments_sealed_total", "Experience-log segments sealed (fsynced and rotated).", c.LogSegments.Load())
	counter("osap_learn_bootstrap_records_total", "Records replayed from the experience log at startup.", c.BootstrapRecords.Load())
	counter("osap_learn_refits_total", "Successful OC-SVM refits.", c.Refits.Load())
	counter("osap_learn_refit_failures_total", "Refit attempts that failed (insufficient window, training or publish error).", c.RefitFailures.Load())
	counter("osap_learn_proposed_total", "Refits published to the registry as proposed versions.", c.Proposed.Load())
	snap := s.cfg.Learner.Snapshot()
	writeScalar(w, "osap_learn_window_fill", "Feature vectors currently in the refit window.", "gauge", uint64(snap.WindowFill))
}

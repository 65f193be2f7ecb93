package serve

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"osap/internal/experiments"
)

// testRolloutServer boots a server as v1 over the served set, with a
// LoadVersion hook that serves candidateArtifacts, a healthy build of
// its own seed, for any requested version (poisoned-candidate behavior
// is exercised by the cmd/osap-serve rollout selftest, which owns chaos
// tooling).
func testRolloutServer(t *testing.T, gcfg GuardConfig, cfg Config) (*Server, *experiments.Artifacts) {
	t.Helper()
	arts := sharedArtifacts(t)
	f, err := NewGuardFactory(arts, gcfg)
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	cfg.Version = "v1"
	if cfg.LoadVersion == nil {
		cfg.LoadVersion = func(version string) (*experiments.Artifacts, string, error) {
			a, err := loadCandidate()
			return a, "feedc0de", err
		}
	}
	srv, err := NewServer(f, cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() {
		srv.Drain(context.Background(), io.Discard) //nolint:errcheck // a test that drained already gets "already draining"
	})
	return srv, arts
}

func TestRolloutPickFraction(t *testing.T) {
	base := newGeneration("v1", "", nil)
	cand := newGeneration("v2", "", nil)
	r := newRollout(base, RolloutConfig{})
	if _, err := r.Stage(cand, 0.10, time.Unix(0, 0)); err != nil {
		t.Fatalf("Stage: %v", err)
	}
	const n = 200_000
	hits := 0
	for i := uint64(0); i < n; i++ {
		if r.pick(i) == cand {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.08 || frac > 0.12 {
		t.Fatalf("canary fraction %.4f, want ≈0.10", frac)
	}
	// Deterministic: the same index always routes the same way.
	for i := uint64(0); i < 1000; i++ {
		if r.pick(i) != r.pick(i) {
			t.Fatal("pick not deterministic")
		}
	}
	// After rollback everything routes to the incumbent.
	if _, err := r.Rollback("test", false, time.Unix(0, 0)); err != nil {
		t.Fatalf("Rollback: %v", err)
	}
	for i := uint64(0); i < 10_000; i++ {
		if r.pick(i) != base {
			t.Fatal("post-rollback pick routed to withdrawn candidate")
		}
	}
}

func TestRolloutStageConflicts(t *testing.T) {
	base := newGeneration("v1", "", nil)
	r := newRollout(base, RolloutConfig{})
	now := time.Unix(0, 0)
	if _, err := r.Stage(newGeneration("v1", "", nil), 0.1, now); err == nil {
		t.Fatal("staged the active version")
	}
	if _, err := r.Stage(newGeneration("v2", "", nil), 0.1, now); err != nil {
		t.Fatalf("Stage v2: %v", err)
	}
	if _, err := r.Stage(newGeneration("v3", "", nil), 0.1, now); err == nil {
		t.Fatal("staged a second candidate")
	}
	if _, err := r.Promote("ok", false, now); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if r.Active().Version() != "v2" || r.Candidate() != nil {
		t.Fatalf("post-promote state: active=%s candidate=%v", r.Active().Version(), r.Candidate())
	}
	// Re-staging the retired v1 reuses its generation.
	v1b := newGeneration("v1", "", nil)
	staged, err := r.Stage(v1b, 0.2, now)
	if err != nil {
		t.Fatalf("re-stage v1: %v", err)
	}
	if staged == v1b || staged != base {
		t.Fatal("re-stage did not reuse the original generation")
	}
	if len(r.Events()) != 3 {
		t.Fatalf("event log has %d entries, want 3", len(r.Events()))
	}
}

func TestRolloutAutoRollbackOnDemotions(t *testing.T) {
	base := newGeneration("v1", "", nil)
	cand := newGeneration("v2", "", nil)
	r := newRollout(base, RolloutConfig{MinSamples: 10, MinSessions: 2, RollbackMargin: 0.05})
	now := time.Unix(0, 0)
	if _, err := r.Stage(cand, 0.5, now); err != nil {
		t.Fatalf("Stage: %v", err)
	}
	// Incumbent healthy baseline.
	base.stats.Sessions.Store(100)
	base.stats.Decisions.Store(1000)
	// Candidate below thresholds: nothing happens.
	cand.stats.Sessions.Store(1)
	cand.stats.Decisions.Store(5)
	cand.stats.Demotions.Store(1)
	cand.stats.Latched.Store(1)
	r.evaluate(now)
	if r.Candidate() != cand {
		t.Fatal("controller acted below min samples")
	}
	// Past thresholds with every session latching permanently: rollback.
	// (The controller judges Latched, not raw Demotions — transient
	// excursions that probation recovers must not trip it.)
	cand.stats.Sessions.Store(10)
	cand.stats.Decisions.Store(100)
	cand.stats.Demotions.Store(10)
	cand.stats.Latched.Store(10)
	r.evaluate(now)
	if r.Candidate() != nil {
		t.Fatal("auto-rollback did not fire")
	}
	if r.rollbacks.Load() != 1 {
		t.Fatalf("rollbacks = %d, want 1", r.rollbacks.Load())
	}
	ev := r.Events()
	last := ev[len(ev)-1]
	if last.Action != "rolled_back" || !last.Auto {
		t.Fatalf("last event %+v, want auto rolled_back", last)
	}
}

// TestRolloutIgnoresRecoveredDemotions pins the probation interaction
// (DESIGN.md §13): demotion events that probation recovered (high
// Demotions, low Latched) must not trip auto-rollback — only the
// permanently latched rate is judged.
func TestRolloutIgnoresRecoveredDemotions(t *testing.T) {
	base := newGeneration("v1", "", nil)
	cand := newGeneration("v2", "", nil)
	r := newRollout(base, RolloutConfig{MinSamples: 10, MinSessions: 2, RollbackMargin: 0.05, PromoteAfter: 1 << 30})
	now := time.Unix(0, 0)
	if _, err := r.Stage(cand, 0.5, now); err != nil {
		t.Fatalf("Stage: %v", err)
	}
	base.stats.Sessions.Store(100)
	base.stats.Decisions.Store(1000)
	// Every candidate session demoted transiently and recovered; none
	// latched. The raw demotion rate (1.0/session) would have rolled
	// back under the old rule.
	cand.stats.Sessions.Store(10)
	cand.stats.Decisions.Store(100)
	cand.stats.Demotions.Store(10)
	cand.stats.Recovered.Store(10)
	r.evaluate(now)
	if r.Candidate() != cand {
		t.Fatal("controller rolled back on recovered demotions")
	}
	// One permanent latch across 10 sessions: 0.10 > margin → rollback.
	cand.stats.Latched.Store(1)
	r.evaluate(now)
	if r.Candidate() != nil {
		t.Fatal("controller ignored the latched rate")
	}
}

func TestRolloutAutoPromote(t *testing.T) {
	base := newGeneration("v1", "", nil)
	cand := newGeneration("v2", "", nil)
	r := newRollout(base, RolloutConfig{MinSamples: 10, MinSessions: 2, PromoteAfter: 50})
	now := time.Unix(0, 0)
	if _, err := r.Stage(cand, 0.5, now); err != nil {
		t.Fatalf("Stage: %v", err)
	}
	base.stats.Sessions.Store(100)
	base.stats.Decisions.Store(1000)
	cand.stats.Sessions.Store(5)
	cand.stats.Decisions.Store(60)
	r.evaluate(now)
	if r.Active() != cand || r.Candidate() != nil {
		t.Fatal("auto-promote did not fire")
	}
	if r.promotions.Load() != 1 {
		t.Fatalf("promotions = %d, want 1", r.promotions.Load())
	}
}

// TestShardDriftMergeDeterministic: a generation's drift sketches live
// on its shards, and two merges over one history are bit-identical.
func TestShardDriftMergeDeterministic(t *testing.T) {
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g := newGeneration("v", "", f)
	add := func(i int, sig int, score float64) {
		sh := g.shards[i%len(g.shards)]
		sh.mu.Lock()
		sh.drift[sig].Add(score)
		sh.mu.Unlock()
	}
	for i := 0; i < 10_000; i++ {
		add(i, i%driftSignals, float64(i%97)/97)
	}
	a, b := g.drift(0), g.drift(0)
	if a.Count() != b.Count() {
		t.Fatalf("merge counts differ: %d vs %d", a.Count(), b.Count())
	}
	for _, q := range []float64{0.01, 0.5, 0.99} {
		if math.Float64bits(a.Quantile(q)) != math.Float64bits(b.Quantile(q)) {
			t.Fatalf("Quantile(%g) differs between identical merges", q)
		}
	}
	// Non-finite scores are dropped, never folded.
	add(1, 0, math.NaN())
	add(2, 0, math.Inf(1))
	m := g.drift(0)
	if m.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", m.Dropped())
	}
}

// TestServerStageFraction: a stage fraction outside [0, 1] is a 400
// that names the value and stages nothing; 0, or no fraction, stages
// at the configured default.
func TestServerStageFraction(t *testing.T) {
	srv, _ := testRolloutServer(t, GuardConfig{}, Config{})
	for _, tc := range []struct {
		body     string
		code     int
		fraction float64 // the canary fraction after the request
	}{
		{`{"action":"stage","version":"v2","fraction":1.5}`, http.StatusBadRequest, 0},
		{`{"action":"stage","version":"v2","fraction":-0.5}`, http.StatusBadRequest, 0},
		{`{"action":"stage","version":"v2","fraction":0}`, http.StatusOK, 0.10},
		{`{"action":"stage","version":"v2"}`, http.StatusOK, 0.10},
	} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/admin/rollout", strings.NewReader(tc.body)))
		if rec.Code != tc.code {
			t.Fatalf("%s: status %d (%s), want %d", tc.body, rec.Code, rec.Body, tc.code)
		}
		if got := srv.rollout.CanaryFraction(); got != tc.fraction {
			t.Fatalf("%s: canary fraction %v, want %v", tc.body, got, tc.fraction)
		}
		if tc.code == http.StatusBadRequest {
			var e errorResponse
			if err := json.NewDecoder(rec.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			if v := tc.body[strings.LastIndex(tc.body, ":")+1 : len(tc.body)-1]; !strings.Contains(e.Error, v) {
				t.Fatalf("%s: error %q does not name %s", tc.body, e.Error, v)
			}
			continue
		}
		if _, err := srv.rollout.Rollback("test", false, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerStagePromoteHTTP(t *testing.T) {
	srv, _ := testRolloutServer(t, GuardConfig{}, Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Sessions created pre-stage bind v1.
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"scheme":"ND"}`))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	var cr createResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if cr.Version != "v1" {
		t.Fatalf("pre-stage session version %q, want v1", cr.Version)
	}

	// Stage v2 at 100% so the next session must bind it.
	resp, err = http.Post(ts.URL+"/admin/rollout", "application/json",
		strings.NewReader(`{"action":"stage","version":"v2","fraction":1.0}`))
	if err != nil {
		t.Fatalf("stage: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stage status %d", resp.StatusCode)
	}
	resp.Body.Close()

	resp, err = http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(`{"scheme":"ND"}`))
	if err != nil {
		t.Fatalf("create 2: %v", err)
	}
	var cr2 createResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr2); err != nil {
		t.Fatalf("decode 2: %v", err)
	}
	resp.Body.Close()
	if cr2.Version != "v2" {
		t.Fatalf("canary session version %q, want v2", cr2.Version)
	}

	// Dashboard sees both versions and the canary state.
	resp, err = http.Get(ts.URL + "/dashboard")
	if err != nil {
		t.Fatalf("dashboard: %v", err)
	}
	var dash struct {
		Versions []struct {
			Version string              `json:"version"`
			Role    string              `json:"role"`
			Record  *experiments.Record `json:"record"`
		} `json:"versions"`
		Rollout struct {
			Active    string `json:"active"`
			Candidate string `json:"candidate"`
		} `json:"rollout"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&dash); err != nil {
		t.Fatalf("decode dashboard: %v", err)
	}
	resp.Body.Close()
	if dash.Rollout.Active != "v1" || dash.Rollout.Candidate != "v2" || len(dash.Versions) != 2 {
		t.Fatalf("dashboard state: %+v", dash)
	}
	// Each version shows the record its guards are built from: v1 the
	// served set's, v2 the candidate's, each as its calibration wrote it.
	records := map[string]experiments.Record{"v1": sharedArtifacts(t).Record, "v2": candidateArtifacts(t).Record}
	for _, v := range dash.Versions {
		if r := v.Record; r == nil || *r != records[v.Version] || r.AlphaPi.Rule != experiments.RuleQoEMatched {
			t.Errorf("dashboard %s record %+v, want the calibrated %+v", v.Version, r, records[v.Version])
		}
	}

	// Manual promote flips the active pointer.
	resp, err = http.Post(ts.URL+"/admin/rollout", "application/json",
		strings.NewReader(`{"action":"promote"}`))
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status %d", resp.StatusCode)
	}
	resp.Body.Close()
	if got := srv.rollout.Active().Version(); got != "v2" {
		t.Fatalf("active after promote %q, want v2", got)
	}

	// Metrics expose build info and per-version families.
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("metrics: %v", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	body := string(raw)
	for _, want := range []string{
		`osap_build_info{version=`,
		`artifact_version="v2"`,
		`osap_version_sessions_total{version="v1"} 1`,
		`osap_version_sessions_total{version="v2"} 1`,
		`osap_rollout_promotions_total 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestStageRacingDrain: a stage whose LoadVersion is still running when
// Drain begins loads outside opGate, then finds the server draining
// under it — refused with 503 + Retry-After and counted as a drain
// rejection — instead of staging a candidate after Drain's final
// snapshot.
func TestStageRacingDrain(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	srv, _ := testRolloutServer(t, GuardConfig{}, Config{LoadVersion: func(string) (*experiments.Artifacts, string, error) {
		close(entered)
		<-release
		a, err := loadCandidate()
		return a, "feedc0de", err
	}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	type reply struct {
		status int
		retry  string
		err    error
	}
	done := make(chan reply, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/admin/rollout", "application/json",
			strings.NewReader(`{"action":"stage","version":"v2","fraction":1.0}`))
		if err != nil {
			done <- reply{err: err}
			return
		}
		resp.Body.Close()
		done <- reply{status: resp.StatusCode, retry: resp.Header.Get("Retry-After")}
	}()
	<-entered
	var snap strings.Builder
	if err := srv.Drain(t.Context(), &snap); err != nil {
		t.Fatalf("drain: %v", err)
	}
	close(release)
	r := <-done
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.status != http.StatusServiceUnavailable || r.retry == "" {
		t.Fatalf("stage released after the drain: status %d, Retry-After %q; want 503 with a hint", r.status, r.retry)
	}
	if c := srv.rollout.Candidate(); c != nil {
		t.Fatalf("candidate %s staged after the drain", c.Version())
	}
	if !strings.Contains(snap.String(), "\nosap_rollout_canary_fraction 0\n") {
		t.Fatalf("drain snapshot has a canary fraction:\n%s", snap.String())
	}
	if got := srv.Metrics().DrainRejected.Load(); got != 1 {
		t.Fatalf("osap_drain_rejected_total = %d, want 1", got)
	}
}

// TestStageVersionWithItsOwnRecord: a staged version's guards are
// built from its own record, not the boot version's — a 3-member,
// K = 10 candidate stages beside a 5-member, K = 5 active version, and
// its sessions step with its window and trim.
func TestStageVersionWithItsOwnRecord(t *testing.T) {
	srv, _ := testRolloutServer(t, GuardConfig{}, Config{})
	v2, err := srv.loadGeneration("v2")
	if err != nil {
		t.Fatal(err)
	}
	if r := v2.factory.cal.Record; r.K != 10 || r.Discard != 1 || len(candidateArtifacts(t).Agents) != 3 {
		t.Fatalf("candidate record %+v over %d members, want K 10 and discard 1 over 3", r, len(candidateArtifacts(t).Agents))
	}
	if r := srv.factory.cal.Record; r.K != 5 || r.Discard != 2 {
		t.Fatalf("active record %+v, want K 5 and discard 2", r)
	}
	if _, err := srv.rollout.Stage(v2, 1, time.Unix(0, 0)); err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{SchemeND, SchemeAEns, SchemeVEns} {
		sess, err := srv.createSession(scheme)
		if err != nil {
			t.Fatal(err)
		}
		if sess.gen != v2 {
			t.Fatalf("%s session bound %s, want the candidate", scheme, sess.gen.Version())
		}
		for i, obs := range obsStream(5, srv.factory.ObsDim(), 30) {
			if _, err := srv.stepErr(sess, obs); err != nil {
				t.Fatalf("%s step %d: %v", scheme, i, err)
			}
		}
	}
}

func TestStageWithoutRegistry(t *testing.T) {
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/admin/rollout", "application/json",
		strings.NewReader(`{"action":"stage","version":"v2"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("stage without registry: status %d, want 501", resp.StatusCode)
	}
}

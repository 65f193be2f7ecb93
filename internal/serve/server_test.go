package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/trace"
)

// servedSet is the committed paper-scale Norway set osap-serve serves
// (`make models-check` rebuilds it): every test's artifact fixture.
const servedSet = "../../cmd/osap-serve/testdata/norway.json"

var (
	testArtsOnce sync.Once
	testArts     *experiments.Artifacts
	testArtsErr  error

	candidateOnce sync.Once
	candidate     *experiments.Artifacts
	candidateErr  error
)

// sharedArtifacts loads the served set once per test binary; artifacts
// are read-only so every server can share them. A test that edits its
// set, or must own every network of it, loads its own copy.
func sharedArtifacts(t testing.TB) *experiments.Artifacts {
	t.Helper()
	testArtsOnce.Do(func() { testArts, testArtsErr = experiments.LoadArtifacts(servedSet) })
	if testArtsErr != nil {
		t.Fatal(testArtsErr)
	}
	return testArts
}

// candidateArtifacts is a second Norway build, trained once per test
// binary by the quick lab under a seed of its own and calibrated under
// a U_S window of k = 10: 3 members trimmed by 1 and a 20-dim OC-SVM,
// beside the served set's 5 members trimmed by 2 and k = 5. It is the
// version testRolloutServer stages.
func candidateArtifacts(t testing.TB) *experiments.Artifacts {
	t.Helper()
	a, err := loadCandidate()
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// loadCandidate is candidateArtifacts for a LoadVersion hook, which
// reports its error instead of failing the test.
func loadCandidate() (*experiments.Artifacts, error) {
	candidateOnce.Do(func() {
		cfg := experiments.QuickConfig()
		cfg.Seed = 12
		cfg.StateKEmpirical = cfg.StateKSynthetic
		lab, err := experiments.NewLab(cfg)
		if err != nil {
			candidateErr = err
			return
		}
		candidate, candidateErr = lab.Artifacts(trace.DatasetNorway)
	})
	return candidate, candidateErr
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerGuard(t, GuardConfig{}, cfg)
}

// newTestServerGuard is newTestServer with guards built under gcfg.
func newTestServerGuard(t *testing.T, gcfg GuardConfig, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	f, err := NewGuardFactory(sharedArtifacts(t), gcfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(f, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func createSession(t *testing.T, base, scheme string) createResponse {
	t.Helper()
	resp, body := postJSON(t, base+"/v1/sessions", map[string]string{"scheme": scheme})
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create (%s): status %d: %s", scheme, resp.StatusCode, body)
	}
	var cr createResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	return cr
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, scheme := range []string{SchemeND, SchemeAEns, SchemeVEns} {
		cr := createSession(t, ts.URL, scheme)
		if cr.ID == "" || cr.ObsDim != abr.ObsDim || cr.NumActions <= 0 {
			t.Fatalf("create response incomplete: %+v", cr)
		}

		obs := make([]float64, cr.ObsDim)
		for step := 0; step < 5; step++ {
			resp, body := postJSON(t, ts.URL+"/v1/sessions/"+cr.ID+"/step", map[string][]float64{"obs": obs})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("step: status %d: %s", resp.StatusCode, body)
			}
			var sr stepResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			if sr.Step != step {
				t.Errorf("%s step %d: response step = %d", scheme, step, sr.Step)
			}
			if sr.Action < 0 || sr.Action >= cr.NumActions {
				t.Errorf("%s: action %d out of range [0,%d)", scheme, sr.Action, cr.NumActions)
			}
			if sr.Policy != "learned" && sr.Policy != "default" {
				t.Errorf("%s: policy = %q", scheme, sr.Policy)
			}
		}

		// Info reflects the steps.
		resp, body := get(t, ts.URL+"/v1/sessions/"+cr.ID)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("info: status %d", resp.StatusCode)
		}
		var info Info
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Steps != 5 || info.Scheme != scheme {
			t.Errorf("info = %+v, want 5 steps of %s", info, scheme)
		}

		// Reset starts a new episode: next step index is 0 again.
		resp, _ = postJSON(t, ts.URL+"/v1/sessions/"+cr.ID+"/reset", nil)
		if resp.StatusCode != http.StatusNoContent {
			t.Fatalf("reset: status %d", resp.StatusCode)
		}
		_, body = postJSON(t, ts.URL+"/v1/sessions/"+cr.ID+"/step", map[string][]float64{"obs": obs})
		var sr stepResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Step != 0 {
			t.Errorf("step after reset = %d, want 0", sr.Step)
		}

		// Delete, then 404.
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+cr.ID, nil)
		dresp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusNoContent {
			t.Fatalf("delete: status %d", dresp.StatusCode)
		}
		resp, _ = postJSON(t, ts.URL+"/v1/sessions/"+cr.ID+"/step", map[string][]float64{"obs": obs})
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("step after delete: status %d, want 404", resp.StatusCode)
		}
	}
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Unknown scheme.
	if resp, _ := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"scheme": "bogus"}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus scheme: status %d, want 400", resp.StatusCode)
	}
	// Wrong observation length.
	cr := createSession(t, ts.URL, SchemeND)
	if resp, body := postJSON(t, ts.URL+"/v1/sessions/"+cr.ID+"/step", map[string][]float64{"obs": {1, 2, 3}}); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("short obs: status %d (%s), want 400", resp.StatusCode, body)
	}
	// Unknown session.
	if resp, _ := postJSON(t, ts.URL+"/v1/sessions/nope/step", map[string][]float64{"obs": make([]float64, abr.ObsDim)}); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session: status %d, want 404", resp.StatusCode)
	}
	// Malformed JSON.
	resp, err := http.Post(ts.URL+"/v1/sessions/"+cr.ID+"/step", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", resp.StatusCode)
	}
}

func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxSessions: 2})
	createSession(t, ts.URL, SchemeND)
	cr2 := createSession(t, ts.URL, SchemeND)
	resp, _ := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"scheme": SchemeND})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third create: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	if got := s.Metrics().SessionsRejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
	// Deleting frees a slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+cr2.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	createSession(t, ts.URL, SchemeND)
}

func TestIdleEviction(t *testing.T) {
	// Inject a controllable clock; drive the sweep directly (the
	// background sweeper is just a ticker around Table.Sweep).
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	s, ts := newTestServer(t, Config{SessionTTL: time.Minute, Now: clock})
	cr := createSession(t, ts.URL, SchemeND)

	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	evicted := s.table.Sweep(clock().Add(-time.Minute))
	if evicted != 1 {
		t.Fatalf("sweep evicted %d, want 1", evicted)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/sessions/"+cr.ID+"/step",
		map[string][]float64{"obs": make([]float64, abr.ObsDim)}); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("step after eviction: status %d, want 404", resp.StatusCode)
	}
}

func TestHealthzAndMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cr := createSession(t, ts.URL, SchemeVEns)
	postJSON(t, ts.URL+"/v1/sessions/"+cr.ID+"/step", map[string][]float64{"obs": make([]float64, abr.ObsDim)})

	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var hz map[string]any
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz["status"] != "ok" || hz["live_sessions"].(float64) != 1 {
		t.Errorf("healthz = %v", hz)
	}

	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics Content-Type = %q", ct)
	}
	for _, want := range []string{
		"osap_sessions_live 1",
		"osap_sessions_created_total 1",
		"osap_decisions_total 1",
		`osap_request_duration_seconds_bucket{endpoint="step",le="+Inf"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics output missing %q:\n%s", want, body)
		}
	}
}

func TestDrainStopsAdmissionsAndFlushesSnapshot(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cr := createSession(t, ts.URL, SchemeND)
	createSession(t, ts.URL, SchemeAEns)

	var snapshot bytes.Buffer
	if err := s.Drain(t.Context(), &snapshot); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Drain(t.Context(), nil); err == nil {
		t.Error("second drain did not report already-draining")
	}

	// New sessions and steps are refused with 503 + Retry-After.
	resp, _ := postJSON(t, ts.URL+"/v1/sessions", map[string]string{"scheme": SchemeND})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("create during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("drain 503 carries no Retry-After")
	}
	resp, _ = postJSON(t, ts.URL+"/v1/sessions/"+cr.ID+"/step", map[string][]float64{"obs": make([]float64, abr.ObsDim)})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("step during drain: status %d, want 503", resp.StatusCode)
	}

	// Healthz reports draining; sessions were closed and counted.
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", resp.StatusCode)
	}
	if got := s.Metrics().SessionsDrained.Load(); got != 2 {
		t.Errorf("drained counter = %d, want 2", got)
	}
	if s.Sessions() != 0 {
		t.Errorf("sessions after drain = %d, want 0", s.Sessions())
	}
	snap := snapshot.String()
	if !strings.Contains(snap, "osap_sessions_drained_total 2") {
		t.Errorf("snapshot missing drained counter:\n%s", snap)
	}
	if !strings.Contains(snap, "final metrics snapshot") {
		t.Errorf("snapshot missing header:\n%s", snap)
	}
}

// TestStepOnClosedSessionIsNotObserved: a step holding a session that a
// DELETE closed under it is answered statusGone and served nothing, so
// neither osap_batch_size, the queue and decision histograms nor the
// decision counter may see it — the "one observation per decision"
// invariant the load selftest asserts.
func TestStepOnClosedSessionIsNotObserved(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	sess, err := s.createSession(SchemeND)
	if err != nil {
		t.Fatal(err)
	}
	obs := make([]float64, abr.ObsDim)
	if _, st := s.step(sess, obs); st != statusOK {
		t.Fatalf("first step: status %d, want statusOK", st)
	}
	if _, ok := s.table.Delete(sess.ID()); !ok {
		t.Fatal("delete found no session")
	}
	m := s.Metrics()
	batches, decisions := m.BatchSize.Count(), m.Decisions.Load()
	queued, decided := m.QueueLatency.Count(), m.DecisionLatency.Count()
	if _, st := s.step(sess, obs); st != statusGone {
		t.Fatalf("step on a deleted session: status %d, want statusGone", st)
	}
	if m.BatchSize.Count() != batches || m.Decisions.Load() != decisions {
		t.Fatalf("a refused step was observed: osap_batch_size count %d → %d, decisions %d → %d",
			batches, m.BatchSize.Count(), decisions, m.Decisions.Load())
	}
	if m.QueueLatency.Count() != queued || m.DecisionLatency.Count() != decided {
		t.Fatalf("a refused step was timed: osap_step_queue_seconds count %d → %d, osap_step_decision_seconds count %d → %d",
			queued, m.QueueLatency.Count(), decided, m.DecisionLatency.Count())
	}
}

// TestConcurrentSessionsRace hammers the server from many goroutines —
// creates, steps, deletes, info, metrics — while the sweeper runs.
// Under -race this is the server's memory-safety proof.
func TestConcurrentSessionsRace(t *testing.T) {
	// A 20 ms TTL sweeps every 5 ms, so sessions are evicted under the
	// traffic as well as deleted.
	s, ts := newTestServer(t, Config{MaxSessions: 64, SessionTTL: 20 * time.Millisecond})
	s.StartSweeper()
	obs := make([]float64, abr.ObsDim)
	schemes := []string{SchemeND, SchemeAEns, SchemeVEns}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			client := ts.Client()
			for i := 0; i < 15; i++ {
				data, _ := json.Marshal(map[string]string{"scheme": schemes[(w+i)%len(schemes)]})
				resp, err := client.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(data))
				if err != nil {
					t.Error(err)
					return
				}
				var cr createResponse
				err = json.NewDecoder(resp.Body).Decode(&cr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusCreated {
					continue // table full under churn is fine
				}
				for n := 0; n < 5; n++ {
					sdata, _ := json.Marshal(map[string][]float64{"obs": obs})
					sresp, err := client.Post(ts.URL+"/v1/sessions/"+cr.ID+"/step", "application/json", bytes.NewReader(sdata))
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, sresp.Body)
					sresp.Body.Close()
				}
				if i%2 == 0 {
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+cr.ID, nil)
					dresp, err := client.Do(req)
					if err != nil {
						t.Error(err)
						return
					}
					dresp.Body.Close()
				}
				if i%5 == 0 {
					mresp, err := client.Get(ts.URL + "/metrics")
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, mresp.Body)
					mresp.Body.Close()
				}
			}
		}(w)
	}
	wg.Wait()
	dec := s.Metrics().Decisions.Load()
	if dec == 0 {
		t.Fatal("no decisions served under concurrent load")
	}
	if err := s.Drain(t.Context(), io.Discard); err != nil {
		t.Fatalf("drain after churn: %v", err)
	}
}

func TestGuardFactoryValidation(t *testing.T) {
	arts := sharedArtifacts(t)
	if _, err := NewGuardFactory(nil, GuardConfig{}); err == nil {
		t.Error("nil artifacts accepted")
	}
	f, err := NewGuardFactory(arts, GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Schemes(); len(got) != 3 {
		t.Errorf("Schemes() = %v, want all three", got)
	}
	if _, err := f.NewGuard("nope"); err == nil {
		t.Error("unknown scheme accepted")
	}
	// A negative probation ReadmitL is refused when the factory is
	// built, and a guard built with it directly is an error, not a
	// panic on the session's open.
	neg := experiments.Probation{ReadmitL: -1}
	if _, err := NewGuardFactory(arts, GuardConfig{Probation: neg}); err == nil {
		t.Error("probation ReadmitL -1 accepted")
	}
	if _, err := experiments.NewGuard(&f.cal, SchemeND, f.frozen.NewScratch(), neg); err == nil || !strings.Contains(err.Error(), "ReadmitL -1") {
		t.Errorf("experiments.NewGuard with ReadmitL -1: err %v, want one naming ReadmitL -1", err)
	}
	// A calibration knob is a check against the record: its own value
	// passes, any other is refused naming both.
	if _, err := NewGuardFactory(arts, GuardConfig{TriggerL: 3, Trim: core.EnsembleConfig{Discard: 2}}); err != nil {
		t.Errorf("the record's own knobs refused: %v", err)
	}
	bad := GuardConfig{StateSignal: core.StateSignalConfig{ThroughputWindow: 10, K: 20}}
	if _, err := NewGuardFactory(arts, bad); err == nil || !strings.Contains(err.Error(), "K 20") || !strings.Contains(err.Error(), "under 5") {
		t.Errorf("a window other than the record's: err %v, want one naming K 20 and 5", err)
	}
	// A set calibrated under another window serves ND under its own: a
	// k = 10 build (the quick lab's synthetic-dataset window).
	wide := candidateArtifacts(t)
	fw, err := NewGuardFactory(wide, GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if k := fw.cal.Record.K; k != 10 || wide.OCSVM.Dim != 20 {
		t.Errorf("record K = %d beside a %d-dim OC-SVM, want 10 and 20", k, wide.OCSVM.Dim)
	}
	if _, err := fw.NewGuard(SchemeND); err != nil {
		t.Error(err)
	}
}

// TestNewServerValidation: a setting withDefaults would keep and the
// server would misuse is refused; 0 is the default and passes.
func TestNewServerValidation(t *testing.T) {
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"defaults", Config{}, true},
		{"in range", Config{SessionTTL: time.Second, Rollout: RolloutConfig{RollbackMargin: 0.2}}, true},
		{"negative TTL", Config{SessionTTL: -time.Second}, false},
		{"NaN rollback margin", Config{Rollout: RolloutConfig{RollbackMargin: math.NaN()}}, false},
		{"negative rollback margin", Config{Rollout: RolloutConfig{RollbackMargin: -0.05}}, false},
		{"infinite rollback margin", Config{Rollout: RolloutConfig{RollbackMargin: math.Inf(1)}}, false},
	} {
		s, err := NewServer(f, c.cfg)
		if (err == nil) != c.ok {
			t.Errorf("%s: err %v, want ok=%v", c.name, err, c.ok)
		}
		if s != nil {
			s.Drain(context.Background(), io.Discard) //nolint:errcheck
		}
	}
}

// TestSyntheticEnsembleScores: the served set keeps 3 of its 5 members
// under its record, so its A-ensemble guard scores disagreement instead
// of the constant 0 one surviving member gives.
func TestSyntheticEnsembleScores(t *testing.T) {
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.NewGuard(SchemeAEns)
	if err != nil {
		t.Fatal(err)
	}
	for _, obs := range obsStream(3, f.ObsDim(), 20) {
		if g.Decide(obs).Score != 0 {
			return
		}
	}
	t.Fatal("a 5-member A-ensemble scored 0 on every step of the tape")
}

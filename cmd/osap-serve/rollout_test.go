package main

// The rollout selftest: an end-to-end proof of the hot-reload/canary
// subsystem. It publishes versions into a throwaway registry, boots the
// server the same way the `-registry` wiring does, and drives three
// scripted scenarios:
//
//	A. healthy canary — stage v2 at 10% under a load wave, let the
//	   controller auto-promote, and assert (1) the canary session share
//	   matches the configured fraction, (2) a session pinned to v1
//	   before the stage makes bit-identical decisions across the whole
//	   swap, (3) zero dropped steps, and (4) the /dashboard drift
//	   quantiles match a sequential reference built from every score
//	   the clients saw;
//	B. poisoned canary — stage an artifact whose networks are
//	   chaos-poisoned so every canary session demotes on its first
//	   step, and assert the controller auto-rolls-back while the
//	   incumbent serves untouched and no step is dropped;
//	C. corrupt version — a bit-flipped artifact is refused at stage
//	   time and the server keeps serving.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/chaos"
	"osap/internal/experiments"
	"osap/internal/registry"
	"osap/internal/serve"
	"osap/internal/serve/loadgen"
	"osap/internal/stats"
	"osap/internal/trace"
)

const (
	rolloutSteps      = 30 // decisions per load-wave client
	rolloutProbeSteps = 40 // decisions per pinned probe session
	probeSessions     = 8  // table headroom for hand-stepped probe sessions beside a wave
)

// TestRolloutSmallScale runs the rollout selftest on a synthetic
// dataset, 100 clients per wave by default; `make rollout-selftest`
// runs it on Norway at 1000.
func TestRolloutSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a loopback viewer fleet")
	}
	for _, dataset := range datasets(trace.DatasetGamma22) {
		t.Run(dataset, func(t *testing.T) {
			// Both waves' sessions stay open until their TTL, so the
			// cap is the serving default rather than one fleet's worth.
			cfg := serve.Config{MaxSessions: 10000, SessionTTL: time.Minute}
			runRollout(t, cfg, dataset, scaled(*flagClients, 100), scaled(*flagSeed, 20200713))
		})
	}
}

// rolloutHarness is one booted server plus the client-side state the
// selftest accumulates against it.
type rolloutHarness struct {
	*harness
	scores map[string][]float64 // version → every score clients observed
}

// bootHarness starts a loopback server from the registry with the
// selftest's canary policy. The controller thresholds are the
// production defaults scaled to the wave size: a 10% canary of a
// 1000-client × 30-step wave yields ≈3000 candidate decisions, past
// the 2500-decision soak, so a healthy canary auto-promotes within one
// wave.
func bootHarness(t *testing.T, base serve.Config, root, dataset, incumbent string, clients int) *rolloutHarness {
	t.Helper()
	cfg := base
	cfg.Rollout = serve.RolloutConfig{
		RollbackMargin: 0.05,
		MinSamples:     clients / 2,
		MinSessions:    clients / 50,
		PromoteAfter:   clients * rolloutSteps / 12,
	}
	arts, err := bootFromRegistry(&cfg, root, dataset, incumbent)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := serve.NewGuardFactory(arts, serve.GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	h := bootLoopback(t, factory, cfg, clients+probeSessions, false)
	return &rolloutHarness{harness: h, scores: make(map[string][]float64)}
}

// wave drives one load wave of `clients` synthetic viewers under one
// uncertainty scheme (so all scores land on one drift signal) and
// folds every observed score into the harness's per-version reference.
func (h *rolloutHarness) wave(t *testing.T, clients int, seed uint64, scheme string, video *abr.Video, traces []*trace.Trace) *loadgen.Result {
	t.Helper()
	res, err := loadgen.Run(context.Background(), h.target(loadgen.Config{
		Clients:        clients,
		StepsPerClient: rolloutSteps,
		Schemes:        []string{scheme},
		Video:          video,
		Traces:         traces,
		Seed:           seed,
		Backoff:        &loadgen.Backoff{Retries: 8},
		ScoreSink: func(version string, scores []float64) {
			h.scores[version] = append(h.scores[version], scores...)
		},
	}))
	if err != nil {
		t.Fatal(err)
	}
	checkCount(t, "wave sessions created", res.SessionsCreated, int64(clients))
	return res
}

// probeDecision is one decision of a pinned probe session, kept
// bit-exact (float64 survives JSON round-trips losslessly).
type probeDecision struct {
	Action int
	Score  float64
}

// probeSession is a raw HTTP session the harness steps by hand with a
// deterministic observation sequence, to compare decision streams
// across a hot swap.
type probeSession struct {
	id      string
	version string
	obsDim  int
	taken   int
	learned int // steps the online-learning gate admitted
	decs    []probeDecision
}

func (h *rolloutHarness) newProbe(t *testing.T) *probeSession {
	t.Helper()
	status, body := postJSON(t, h.baseURL+"/v1/sessions", map[string]string{"scheme": "ND"})
	if status != http.StatusCreated {
		t.Fatalf("probe create: status %d: %s", status, body)
	}
	var cr struct {
		ID      string `json:"id"`
		ObsDim  int    `json:"obs_dim"`
		Version string `json:"version"`
	}
	if err := json.Unmarshal([]byte(body), &cr); err != nil {
		t.Fatal(err)
	}
	return &probeSession{id: cr.ID, version: cr.Version, obsDim: cr.ObsDim}
}

// stepProbe advances the probe n more decisions along the shared
// observation sequence, recording each (action, score) and folding
// scores into the drift reference for the probe's version.
func (h *rolloutHarness) stepProbe(t *testing.T, p *probeSession, obsSeq [][]float64, n int) {
	t.Helper()
	for ; n > 0 && p.taken < len(obsSeq); n-- {
		status, body := postJSON(t, h.baseURL+"/v1/sessions/"+p.id+"/step",
			map[string][]float64{"obs": obsSeq[p.taken]})
		if status != http.StatusOK {
			t.Fatalf("probe step %d: status %d: %s", p.taken, status, body)
		}
		var sr struct {
			Action  int     `json:"action"`
			Score   float64 `json:"score"`
			Demoted bool    `json:"demoted"`
			Learned bool    `json:"learned"`
		}
		if err := json.Unmarshal([]byte(body), &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Demoted {
			t.Fatalf("probe session demoted at step %d", p.taken)
		}
		if sr.Learned {
			p.learned++
		}
		p.decs = append(p.decs, probeDecision{Action: sr.Action, Score: sr.Score})
		h.scores[p.version] = append(h.scores[p.version], sr.Score)
		p.taken++
	}
}

// sameProbeDecisions fails at the first step where b's decision is not
// bit-identical to a's.
func sameProbeDecisions(t *testing.T, what string, a, b *probeSession) {
	t.Helper()
	for i := range a.decs {
		x, y := a.decs[i], b.decs[i]
		if x.Action != y.Action || math.Float64bits(x.Score) != math.Float64bits(y.Score) {
			t.Errorf("pinned session diverged at step %d %s: (action %d, score %x) vs (action %d, score %x)",
				i, what, x.Action, math.Float64bits(x.Score), y.Action, math.Float64bits(y.Score))
			return
		}
	}
}

// probeObsSequence is the fixed observation stream both probe sessions
// replay: deterministic in the seed, values in the guard's expected
// normalized range.
func probeObsSequence(seed uint64, steps, obsDim int) [][]float64 {
	rng := stats.NewRNG(seed ^ 0xA0B1C2D3)
	seq := make([][]float64, steps)
	for i := range seq {
		obs := make([]float64, obsDim)
		for j := range obs {
			obs[j] = rng.Float64()
		}
		seq[i] = obs
	}
	return seq
}

// checkQuantileAgainst verifies a sketch-reported quantile against the
// sequential reference with a rank-interval test that tolerates ties:
// got must fall no further than tol (in rank space) outside the
// [P(x<got), P(x≤got)] interval around q.
func checkQuantileAgainst(ref []float64, q, got, tol float64) error {
	if len(ref) == 0 {
		return fmt.Errorf("empty reference")
	}
	sorted := append([]float64(nil), ref...)
	sort.Float64s(sorted)
	lo := float64(sort.SearchFloat64s(sorted, got)) / float64(len(sorted))
	hi := float64(sort.Search(len(sorted), func(i int) bool { return sorted[i] > got })) / float64(len(sorted))
	if q < lo-tol || q > hi+tol {
		return fmt.Errorf("q=%.2f reported %.6g sits at reference ranks [%.4f, %.4f] (tol %.3f)", q, got, lo, hi, tol)
	}
	return nil
}

// autoEvent reports whether the rollout history holds an automatic
// transition of the given action.
func (d *dashboardDoc) autoEvent(action string) bool {
	for _, ev := range d.Rollout.Events {
		if ev.Action == action && ev.Auto {
			return true
		}
	}
	return false
}

func postJSON(t *testing.T, url string, payload any) (int, string) {
	t.Helper()
	body, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// rolloutRun is one selftest's registry and shared load inputs.
type rolloutRun struct {
	cfg     serve.Config
	root    string
	dataset string
	clients int
	seed    uint64
	video   *abr.Video
	traces  []*trace.Trace
	seq     uint64 // versions trained so far
}

// build trains the run's next version: a quick lab build of its
// dataset. Each version is trained under a distinct seed so versions
// genuinely differ (the hot-swap assertions would be vacuous
// otherwise).
func (r *rolloutRun) build(t *testing.T) *experiments.Artifacts {
	t.Helper()
	r.seq++
	return quickArtifacts(t, r.dataset, r.seed+r.seq, nil)
}

// healthyPair builds the incumbent and the healthy candidate. Two quick
// builds can fall back on one fleet's traffic at rates 0.3 apart, past
// the controller's 0.05 rollback margin, so of two builds the candidate
// is the one whose ND guard defaults on fewer of the run's viewer
// steps: a healthy canary is no worse than the version it replaces.
func (r *rolloutRun) healthyPair(t *testing.T) (incumbent, candidate *experiments.Artifacts) {
	t.Helper()
	a, b := r.build(t), r.build(t)
	share := func(arts *experiments.Artifacts) float64 {
		factory, err := serve.NewGuardFactory(arts, serve.GuardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return ndFallbackShare(t, r.cfg, factory, r.video, r.traces)
	}
	sa, sb := share(a), share(b)
	t.Logf("ND fallback share of the two builds on the run's viewers: %.3f and %.3f", sa, sb)
	if sa < sb {
		return b, a
	}
	return a, b
}

// publish writes arts into the registry as version.
func (r *rolloutRun) publish(t *testing.T, version, parent, notes string, arts *experiments.Artifacts) {
	t.Helper()
	if _, err := registry.WriteVersion(r.root, registry.Meta{
		Version:   version,
		Parent:    parent,
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Notes:     notes,
	}, arts); err != nil {
		t.Fatal(err)
	}
}

func runRollout(t *testing.T, cfg serve.Config, dataset string, clients int, seed uint64) {
	r := &rolloutRun{cfg: cfg, root: t.TempDir(), dataset: dataset, clients: clients, seed: seed,
		video: abr.SyntheticVideo(seed, 24, 4), traces: tracePool(t, dataset, seed)}
	incumbent, candidate := r.healthyPair(t)
	r.publish(t, "v1", "", "rollout selftest incumbent", incumbent)
	r.phaseA(t, candidate)
	r.phaseBC(t)
}

// phaseA is the healthy-canary scenario: stage → canary share →
// auto-promote → pinned-session bit-exactness → drift accuracy.
func (r *rolloutRun) phaseA(t *testing.T, candidate *experiments.Artifacts) {
	h := bootHarness(t, r.cfg, r.root, r.dataset, "v1", r.clients)
	t.Logf("phase A: healthy canary, %d clients × %d steps per wave on %s", r.clients, rolloutSteps, h.baseURL)

	// Reference probe A runs the full observation sequence on v1 while
	// v1 is the only version; pinned probe B takes half now and half
	// after the fleet has promoted to v2.
	probeA, probeB := h.newProbe(t), h.newProbe(t)
	if probeA.version != "v1" || probeB.version != "v1" {
		t.Fatalf("pre-stage probes bound %s/%s, want v1", probeA.version, probeB.version)
	}
	obsSeq := probeObsSequence(r.seed, rolloutProbeSteps, probeA.obsDim)
	h.stepProbe(t, probeA, obsSeq, rolloutProbeSteps)
	h.stepProbe(t, probeB, obsSeq, rolloutProbeSteps/2)

	res1 := h.wave(t, r.clients, r.seed, serve.SchemeND, r.video, r.traces)
	checkCount(t, "phase A wave 1 steps dropped", res1.StepsDropped, 0)

	// Publish v2 mid-run and stage it at a 10% canary.
	r.publish(t, "v2", "v1", "rollout selftest candidate", candidate)
	if status, body := postJSON(t, h.baseURL+"/admin/rollout",
		map[string]any{"action": "stage", "version": "v2", "fraction": 0.10}); status != http.StatusOK {
		t.Errorf("stage v2: status %d: %s", status, body)
	}

	res2 := h.wave(t, r.clients, r.seed+1, serve.SchemeND, r.video, r.traces)
	checkCount(t, "phase A wave 2 steps dropped", res2.StepsDropped, 0)
	total := res2.VersionCounts["v1"] + res2.VersionCounts["v2"]
	if total != res2.SessionsCreated {
		t.Errorf("version counts %v do not cover %d created sessions", res2.VersionCounts, res2.SessionsCreated)
	}
	share := float64(res2.VersionCounts["v2"]) / float64(total)
	if share < 0.05 || share > 0.15 {
		t.Errorf("canary session share %.3f outside [0.05, 0.15] (counts %v)", share, res2.VersionCounts)
	}

	// ≈10% of the wave's decisions clears the soak (clients × 30 / 12):
	// the controller must have auto-promoted.
	dash := h.dashboard(t)
	if dash.Rollout.Active != "v2" || dash.Rollout.Candidate != "" {
		t.Errorf("phase A end state active=%s candidate=%q, want auto-promoted v2", dash.Rollout.Active, dash.Rollout.Candidate)
	}
	if !dash.autoEvent("promoted") {
		t.Errorf("no automatic promotion event recorded: %+v", dash.Rollout.Events)
	}

	// Probe B finishes its sequence after the swap, still pinned to v1:
	// every decision must be bit-identical to probe A's.
	h.stepProbe(t, probeB, obsSeq, rolloutProbeSteps/2)
	sameProbeDecisions(t, "across the swap", probeA, probeB)

	// Drift: the merged sketches on /dashboard must reproduce the
	// sequential reference quantiles within t-digest error bounds.
	for _, row := range h.dashboard(t).Versions {
		ref := h.scores[row.Version]
		drift, ok := row.Drift["state"]
		if !ok {
			t.Errorf("version %s dashboard row has no state-signal drift", row.Version)
			continue
		}
		if drift.Count != uint64(len(ref)) {
			t.Errorf("version %s drift count %d, reference saw %d scores", row.Version, drift.Count, len(ref))
		}
		if err := checkQuantileAgainst(ref, 0.50, drift.P50, 0.02); err != nil {
			t.Errorf("version %s drift p50: %v", row.Version, err)
		}
		if err := checkQuantileAgainst(ref, 0.99, drift.P99, 0.01); err != nil {
			t.Errorf("version %s drift p99: %v", row.Version, err)
		}
	}

	if err := h.drain(); err != nil {
		t.Errorf("phase A shutdown: %v", err)
	}
	t.Logf("phase A: promoted v2 with %.1f%% canary share, %d+%d steps, 0 dropped", 100*share, res1.StepsOK, res2.StepsOK)
}

// phaseBC is the poisoned-canary scenario (auto-rollback, B) followed
// by the corrupt-artifact scenario (stage refused, C) on the same
// surviving server.
func (r *rolloutRun) phaseBC(t *testing.T) {
	// vbad is shaped like a healthy artifact and passes checksum
	// verification — the badness is in the (finite, JSON-encodable)
	// weights, which overflow at inference and demote every session.
	bad := r.build(t)
	for _, ag := range bad.Agents {
		chaos.PoisonNetworks(ag.Actor, ag.Critic)
	}
	chaos.PoisonNetworks(bad.ValueNets...)
	r.publish(t, "vbad", "v2", "rollout selftest poisoned candidate", bad)
	h := bootHarness(t, r.cfg, r.root, r.dataset, "v2", r.clients)
	incumbent := h.dashboard(t).Rollout.Active
	t.Logf("phase B: poisoned canary at 50%% against incumbent %s", incumbent)

	if status, body := postJSON(t, h.baseURL+"/admin/rollout",
		map[string]any{"action": "stage", "version": "vbad", "fraction": 0.5}); status != http.StatusOK {
		t.Errorf("stage vbad: status %d: %s", status, body)
	}
	// The wave runs the agent-ensemble scheme: its uncertainty score is
	// computed from the (poisoned) actor distributions themselves, so
	// the overflow surfaces as a non-finite score on the very first
	// step.
	res := h.wave(t, r.clients, r.seed+2, serve.SchemeAEns, r.video, r.traces)
	checkCount(t, "phase B steps dropped", res.StepsDropped, 0)
	checkCount(t, "phase B steps served (degraded sessions still answer every step)", res.StepsOK, int64(r.clients)*rolloutSteps)
	checkCount(t, "phase B learned decisions after demotion", res.DemotionViolations, 0)
	if res.SessionsDemoted == 0 {
		t.Errorf("phase B: poisoned canary demoted no sessions — poison did not bite")
	}

	dash := h.dashboard(t)
	if dash.Rollout.Active != incumbent || dash.Rollout.Candidate != "" {
		t.Errorf("phase B end state active=%s candidate=%q, want rolled back to %s", dash.Rollout.Active, dash.Rollout.Candidate, incumbent)
	}
	checkCount(t, "phase B rollbacks", int64(dash.Rollout.Rollbacks), 1)
	if !dash.autoEvent("rolled_back") {
		t.Errorf("no automatic rollback event recorded: %+v", dash.Rollout.Events)
	}
	// The incumbent must be untouched: its sessions never demote, and
	// every poisoned-canary session must have demoted.
	for _, row := range dash.Versions {
		switch row.Version {
		case incumbent:
			if row.Role != "active" {
				t.Errorf("incumbent %s role %q after rollback, want active", incumbent, row.Role)
			}
			if row.Demotions != 0 {
				t.Errorf("incumbent %s recorded %d demotions, want 0", incumbent, row.Demotions)
			}
		case "vbad":
			if row.Role != "retired" {
				t.Errorf("vbad role %q after rollback, want retired", row.Role)
			}
			if row.Demotions != row.Sessions || row.Sessions == 0 {
				t.Errorf("vbad demoted %d of %d sessions, want all of a non-zero fleet", row.Demotions, row.Sessions)
			}
		}
	}

	// Phase C: a corrupt version must be refused at stage time while
	// the server keeps serving.
	r.publish(t, "vcorrupt", "", "rollout selftest corrupt candidate", r.build(t))
	if _, _, err := chaos.CorruptFile(soleArtifactPath(t, r.root, "vcorrupt"), 3); err != nil {
		t.Fatal(err)
	}
	if status, body := postJSON(t, h.baseURL+"/admin/rollout",
		map[string]any{"action": "stage", "version": "vcorrupt"}); status != http.StatusConflict {
		t.Errorf("phase C: staging corrupt version returned %d (%s), want 409", status, body)
	}
	if hb, err := h.scrape("/healthz"); err != nil {
		t.Errorf("phase C healthz: %v", err)
	} else if !strings.Contains(hb, `"status":"`) {
		t.Errorf("phase C healthz unparseable: %s", hb)
	}

	if err := h.drain(); err != nil {
		t.Errorf("phase B/C shutdown: %v", err)
	}
	t.Logf("phase B/C: auto-rollback after %d demoted canary sessions, corrupt stage refused, 0 dropped", res.SessionsDemoted)
}

// soleArtifactPath resolves the single artifact file of a version via
// its manifest.
func soleArtifactPath(t *testing.T, root, version string) string {
	t.Helper()
	reg, err := registry.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	m, err := reg.Manifest(version)
	if err != nil {
		t.Fatal(err)
	}
	names := m.FileNames()
	if len(names) != 1 {
		t.Fatalf("version %s has %d files, want 1", version, len(names))
	}
	return root + "/" + version + "/" + names[0]
}

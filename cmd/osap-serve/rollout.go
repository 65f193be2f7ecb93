package main

// The -rollout selftest: an end-to-end proof of the hot-reload/canary
// subsystem. It publishes versions into a throwaway registry, boots the
// server the same way `-registry` production wiring does, and drives
// three scripted scenarios:
//
//	A. healthy canary — stage v2 at 10% under a 1000-client load wave,
//	   let the controller auto-promote, and assert (1) the canary
//	   session share matches the configured fraction, (2) a session
//	   pinned to v1 before the stage makes bit-identical decisions
//	   across the whole swap, (3) zero dropped steps, and (4) the
//	   /dashboard drift quantiles match a sequential reference built
//	   from every score the clients saw;
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
	"os"
	"sort"
	"strings"
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

// bootFromRegistry opens the registry, loads the named version (or the
// newest when version is empty) and wires the version-aware
// serve.Config hooks (LoadVersion for staging, ListVersions for the
// dashboard) — the production `-registry` path.
func bootFromRegistry(cfg *serve.Config, root, dataset, version string) (*registry.Registry, *serve.GuardFactory, error) {
	reg, err := registry.Open(root)
	if err != nil {
		return nil, nil, err
	}
	versions, err := reg.Versions()
	if err != nil {
		return nil, nil, err
	}
	if len(versions) == 0 {
		return nil, nil, fmt.Errorf("registry %s has no versions (publish one with osap-train -registry)", root)
	}
	if version == "" {
		// Default to the newest PROMOTED version: online-refit proposals
		// live in the same registry but must never become a boot default —
		// staging via POST /admin/rollout is their only path to serving.
		promoted, _, err := reg.Partition()
		if err != nil {
			return nil, nil, err
		}
		if len(promoted) == 0 {
			return nil, nil, fmt.Errorf("registry %s holds only proposed versions; promote one before serving", root)
		}
		version = promoted[len(promoted)-1]
	}
	gen, err := reg.Load(version, dataset)
	if err != nil {
		return nil, nil, err
	}
	factory, err := serve.NewGuardFactory(gen.Artifacts, guardConfig())
	if err != nil {
		return nil, nil, err
	}
	cfg.Version = gen.Version
	cfg.Checksum = gen.ArtifactSHA256
	cfg.LoadVersion = func(version string) (*experiments.Artifacts, string, error) {
		g, err := reg.Load(version, dataset)
		if err != nil {
			return nil, "", err
		}
		return g.Artifacts, g.ArtifactSHA256, nil
	}
	cfg.ListVersions = func() []string {
		vs, err := reg.Versions()
		if err != nil {
			return nil
		}
		return vs
	}
	cfg.ListProposed = func() []string {
		_, proposed, err := reg.Partition()
		if err != nil {
			return nil
		}
		return proposed
	}
	fmt.Fprintf(os.Stderr, "registry %s: serving version %s (sha256 %.12s…) of %d available\n",
		root, gen.Version, gen.ArtifactSHA256, len(versions))
	return reg, factory, nil
}

const (
	rolloutSteps      = 30 // decisions per load-wave client
	rolloutProbeSteps = 40 // decisions per pinned probe session
	probeSessions     = 8  // table headroom for hand-stepped probe sessions beside a wave
)

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
func bootHarness(base serve.Config, root, dataset, incumbent string, clients int) (*rolloutHarness, error) {
	cfg := base
	cfg.Rollout = serve.RolloutConfig{
		CanaryFraction: 0.10,
		RollbackMargin: 0.05,
		MinSamples:     500,
		MinSessions:    20,
		PromoteAfter:   2500,
	}
	_, factory, err := bootFromRegistry(&cfg, root, dataset, incumbent)
	if err != nil {
		return nil, err
	}
	h, err := bootLoopback(factory, cfg, clients+probeSessions, false, nil)
	if err != nil {
		return nil, err
	}
	return &rolloutHarness{harness: h, scores: make(map[string][]float64)}, nil
}

// wave drives one load wave of `clients` synthetic viewers under one
// uncertainty scheme (so all scores land on one drift signal) and
// folds every observed score into the harness's per-version reference.
func (h *rolloutHarness) wave(clients int, seed uint64, scheme string, video *abr.Video, traces []*trace.Trace) (*loadgen.Result, error) {
	return loadgen.Run(context.Background(), h.target(loadgen.Config{
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

func (h *rolloutHarness) newProbe() (*probeSession, error) {
	status, body, err := postJSON(h.baseURL+"/v1/sessions", map[string]string{"scheme": "ND"})
	if err != nil {
		return nil, err
	}
	if status != http.StatusCreated {
		return nil, fmt.Errorf("probe create: status %d: %s", status, body)
	}
	var cr struct {
		ID      string `json:"id"`
		ObsDim  int    `json:"obs_dim"`
		Version string `json:"version"`
	}
	if err := json.Unmarshal([]byte(body), &cr); err != nil {
		return nil, err
	}
	return &probeSession{id: cr.ID, version: cr.Version, obsDim: cr.ObsDim}, nil
}

// stepProbe advances the probe n more decisions along the shared
// observation sequence, recording each (action, score) and folding
// scores into the drift reference for the probe's version.
func (h *rolloutHarness) stepProbe(p *probeSession, obsSeq [][]float64, n int) error {
	for ; n > 0 && p.taken < len(obsSeq); n-- {
		status, body, err := postJSON(h.baseURL+"/v1/sessions/"+p.id+"/step",
			map[string][]float64{"obs": obsSeq[p.taken]})
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("probe step %d: status %d: %s", p.taken, status, body)
		}
		var sr struct {
			Action  int     `json:"action"`
			Score   float64 `json:"score"`
			Demoted bool    `json:"demoted"`
			Learned bool    `json:"learned"`
		}
		if err := json.Unmarshal([]byte(body), &sr); err != nil {
			return err
		}
		if sr.Demoted {
			return fmt.Errorf("probe session demoted at step %d", p.taken)
		}
		if sr.Learned {
			p.learned++
		}
		p.decs = append(p.decs, probeDecision{Action: sr.Action, Score: sr.Score})
		h.scores[p.version] = append(h.scores[p.version], sr.Score)
		p.taken++
	}
	return nil
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

// dashboardDoc mirrors the /dashboard JSON the selftest asserts on.
type dashboardDoc struct {
	Versions []struct {
		Version   string `json:"version"`
		Role      string `json:"role"`
		Sessions  uint64 `json:"sessions_total"`
		Demotions uint64 `json:"demotions_total"`
		Drift     map[string]struct {
			Count uint64  `json:"count"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
		} `json:"drift"`
	} `json:"versions"`
	Rollout struct {
		Active     string  `json:"active"`
		Candidate  string  `json:"candidate"`
		Fraction   float64 `json:"canary_fraction"`
		Promotions uint64  `json:"promotions"`
		Rollbacks  uint64  `json:"rollbacks"`
		Events     []struct {
			Action string `json:"action"`
			Auto   bool   `json:"auto"`
		} `json:"events"`
	} `json:"rollout"`
}

func (h *rolloutHarness) dashboard() (*dashboardDoc, error) {
	body, err := h.scrape("/dashboard")
	if err != nil {
		return nil, err
	}
	var doc dashboardDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return nil, fmt.Errorf("decode dashboard: %w", err)
	}
	return &doc, nil
}

func postJSON(url string, payload any) (int, string, error) {
	body, err := json.Marshal(payload)
	if err != nil {
		return 0, "", err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return resp.StatusCode, "", err
	}
	return resp.StatusCode, string(b), nil
}

func runRolloutSelfTest(cfg serve.Config, dataset string, clients int, seed uint64) error {
	start := time.Now()
	root, err := os.MkdirTemp("", "osap-registry-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root) //nolint:errcheck // best-effort temp cleanup

	// Publish v1 (the incumbent) and prepare the shared load inputs.
	// Each version trains from a distinct seed so versions genuinely
	// differ (the hot-swap assertions would be vacuous otherwise).
	publishSeq := uint64(0)
	publish := func(version, parent, notes string, mutate func(*experiments.Artifacts)) error {
		publishSeq++
		arts, err := serve.SyntheticArtifacts(dataset, 3, seed+publishSeq)
		if err != nil {
			return err
		}
		if mutate != nil {
			mutate(arts)
		}
		_, err = registry.WriteVersion(root, registry.Meta{
			Version:   version,
			Parent:    parent,
			CreatedAt: time.Now().UTC().Format(time.RFC3339),
			Notes:     notes,
		}, arts)
		return err
	}
	if err := publish("v1", "", "rollout selftest incumbent", nil); err != nil {
		return err
	}
	traces, err := tracePool(dataset, seed)
	if err != nil {
		return err
	}
	video := abr.SyntheticVideo(seed, 24, 4)

	failed := failures{name: "rollout"}
	if err := rolloutPhaseA(cfg, root, dataset, clients, seed, video, traces, publish, failed.fail); err != nil {
		return err
	}
	if err := rolloutPhaseBC(cfg, root, dataset, clients, seed, video, traces, publish, failed.fail); err != nil {
		return err
	}
	if err := failed.err(); err != nil {
		return err
	}
	fmt.Printf("rollout: all assertions passed in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// rolloutPhaseA is the healthy-canary scenario: stage → canary share →
// auto-promote → pinned-session bit-exactness → drift accuracy.
func rolloutPhaseA(cfg serve.Config, root, dataset string, clients int, seed uint64,
	video *abr.Video, traces []*trace.Trace,
	publish func(version, parent, notes string, mutate func(*experiments.Artifacts)) error,
	fail func(format string, args ...any)) error {
	h, err := bootHarness(cfg, root, dataset, "v1", clients)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "rollout phase A: healthy canary, %d clients × %d steps per wave on %s\n",
		clients, rolloutSteps, h.baseURL)

	// Reference probe A runs the full observation sequence on v1 while
	// v1 is the only version; pinned probe B takes half now and half
	// after the fleet has promoted to v2.
	probeA, err := h.newProbe()
	if err != nil {
		return err
	}
	probeB, err := h.newProbe()
	if err != nil {
		return err
	}
	if probeA.version != "v1" || probeB.version != "v1" {
		return fmt.Errorf("pre-stage probes bound %s/%s, want v1", probeA.version, probeB.version)
	}
	obsSeq := probeObsSequence(seed, rolloutProbeSteps, probeA.obsDim)
	if err := h.stepProbe(probeA, obsSeq, rolloutProbeSteps); err != nil {
		return err
	}
	if err := h.stepProbe(probeB, obsSeq, rolloutProbeSteps/2); err != nil {
		return err
	}

	res1, err := h.wave(clients, seed, serve.SchemeND, video, traces)
	if err != nil {
		return err
	}
	if res1.StepsDropped != 0 {
		fail("phase A wave 1 dropped %d steps, want 0", res1.StepsDropped)
	}

	// Publish v2 mid-run and stage it at a 10% canary.
	if err := publish("v2", "v1", "rollout selftest candidate", nil); err != nil {
		return err
	}
	status, body, err := postJSON(h.baseURL+"/admin/rollout",
		map[string]any{"action": "stage", "version": "v2", "fraction": 0.10})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		fail("stage v2: status %d: %s", status, body)
	}

	res2, err := h.wave(clients, seed+1, serve.SchemeND, video, traces)
	if err != nil {
		return err
	}
	if res2.StepsDropped != 0 {
		fail("phase A wave 2 dropped %d steps, want 0", res2.StepsDropped)
	}
	total := res2.VersionCounts["v1"] + res2.VersionCounts["v2"]
	if total != res2.SessionsCreated {
		fail("version counts %v do not cover %d created sessions", res2.VersionCounts, res2.SessionsCreated)
	}
	if share := float64(res2.VersionCounts["v2"]) / float64(total); share < 0.05 || share > 0.15 {
		fail("canary session share %.3f outside [0.05, 0.15] (counts %v)", share, res2.VersionCounts)
	}

	// ≈100 canary sessions × 30 steps ≈ 3000 candidate decisions clears
	// the 2500-decision soak: the controller must have auto-promoted.
	dash, err := h.dashboard()
	if err != nil {
		return err
	}
	if dash.Rollout.Active != "v2" || dash.Rollout.Candidate != "" {
		fail("phase A end state active=%s candidate=%q, want auto-promoted v2", dash.Rollout.Active, dash.Rollout.Candidate)
	}
	autoPromoted := false
	for _, ev := range dash.Rollout.Events {
		if ev.Action == "promoted" && ev.Auto {
			autoPromoted = true
		}
	}
	if !autoPromoted {
		fail("no automatic promotion event recorded: %+v", dash.Rollout.Events)
	}

	// Probe B finishes its sequence after the swap, still pinned to v1:
	// every decision must be bit-identical to probe A's.
	if err := h.stepProbe(probeB, obsSeq, rolloutProbeSteps/2); err != nil {
		return err
	}
	for i := range probeA.decs {
		a, b := probeA.decs[i], probeB.decs[i]
		if a.Action != b.Action || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
			fail("pinned session diverged at step %d: pre-swap (action %d, score %x) vs across-swap (action %d, score %x)",
				i, a.Action, math.Float64bits(a.Score), b.Action, math.Float64bits(b.Score))
			break
		}
	}

	// Drift: the merged sketches on /dashboard must reproduce the
	// sequential reference quantiles within t-digest error bounds.
	dash, err = h.dashboard()
	if err != nil {
		return err
	}
	for _, row := range dash.Versions {
		ref := h.scores[row.Version]
		drift, ok := row.Drift["state"]
		if !ok {
			fail("version %s dashboard row has no state-signal drift", row.Version)
			continue
		}
		if drift.Count != uint64(len(ref)) {
			fail("version %s drift count %d, reference saw %d scores", row.Version, drift.Count, len(ref))
		}
		if err := checkQuantileAgainst(ref, 0.50, drift.P50, 0.02); err != nil {
			fail("version %s drift p50: %v", row.Version, err)
		}
		if err := checkQuantileAgainst(ref, 0.99, drift.P99, 0.01); err != nil {
			fail("version %s drift p99: %v", row.Version, err)
		}
	}

	if err := h.drain(); err != nil {
		fail("phase A shutdown: %v", err)
	}
	fmt.Fprintf(os.Stderr, "rollout phase A: promoted v2 with %.1f%% canary share, %d+%d steps, 0 dropped\n",
		100*float64(res2.VersionCounts["v2"])/float64(total), res1.StepsOK, res2.StepsOK)
	return nil
}

// rolloutPhaseBC is the poisoned-canary scenario (auto-rollback, B)
// followed by the corrupt-artifact scenario (stage refused, C) on the
// same surviving server.
func rolloutPhaseBC(cfg serve.Config, root, dataset string, clients int, seed uint64,
	video *abr.Video, traces []*trace.Trace,
	publish func(version, parent, notes string, mutate func(*experiments.Artifacts)) error,
	fail func(format string, args ...any)) error {
	// vbad is shaped like a healthy artifact and passes checksum
	// verification — the badness is in the (finite, JSON-encodable)
	// weights, which overflow at inference and demote every session.
	err := publish("vbad", "v2", "rollout selftest poisoned candidate", func(arts *experiments.Artifacts) {
		for _, ag := range arts.Agents {
			chaos.PoisonNetworks(ag.Actor, ag.Critic)
		}
		chaos.PoisonNetworks(arts.ValueNets...)
	})
	if err != nil {
		return err
	}
	h, err := bootHarness(cfg, root, dataset, "v2", clients)
	if err != nil {
		return err
	}
	incumbent := h.srv.Rollout().Active().Version()
	fmt.Fprintf(os.Stderr, "rollout phase B: poisoned canary at 50%% against incumbent %s\n", incumbent)

	status, body, err := postJSON(h.baseURL+"/admin/rollout",
		map[string]any{"action": "stage", "version": "vbad", "fraction": 0.5})
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		fail("stage vbad: status %d: %s", status, body)
	}
	// The wave runs the agent-ensemble scheme: its uncertainty score is
	// computed from the (poisoned) actor distributions themselves, so
	// the overflow surfaces as a non-finite score on the very first
	// step. (Under ND the score comes from the OC-SVM and a poisoned
	// actor hides behind the finite argmax one-hot.)
	res, err := h.wave(clients, seed+2, serve.SchemeAEns, video, traces)
	if err != nil {
		return err
	}
	if res.StepsDropped != 0 {
		fail("phase B dropped %d steps, want 0", res.StepsDropped)
	}
	if want := int64(clients) * rolloutSteps; res.StepsOK != want {
		fail("phase B served %d steps, want %d (degraded sessions still answer every step)", res.StepsOK, want)
	}
	if res.DemotionViolations != 0 {
		fail("phase B: %d learned decisions after demotion, want 0", res.DemotionViolations)
	}
	if res.SessionsDemoted == 0 {
		fail("phase B: poisoned canary demoted no sessions — poison did not bite")
	}

	dash, err := h.dashboard()
	if err != nil {
		return err
	}
	if dash.Rollout.Active != incumbent || dash.Rollout.Candidate != "" {
		fail("phase B end state active=%s candidate=%q, want rolled back to %s", dash.Rollout.Active, dash.Rollout.Candidate, incumbent)
	}
	if dash.Rollout.Rollbacks != 1 {
		fail("phase B rollbacks %d, want 1", dash.Rollout.Rollbacks)
	}
	autoRolledBack := false
	for _, ev := range dash.Rollout.Events {
		if ev.Action == "rolled_back" && ev.Auto {
			autoRolledBack = true
		}
	}
	if !autoRolledBack {
		fail("no automatic rollback event recorded: %+v", dash.Rollout.Events)
	}
	// The incumbent must be untouched: its sessions never demote, and
	// every poisoned-canary session must have demoted.
	for _, row := range dash.Versions {
		switch row.Version {
		case incumbent:
			if row.Role != "active" {
				fail("incumbent %s role %q after rollback, want active", incumbent, row.Role)
			}
			if row.Demotions != 0 {
				fail("incumbent %s recorded %d demotions, want 0", incumbent, row.Demotions)
			}
		case "vbad":
			if row.Role != "retired" {
				fail("vbad role %q after rollback, want retired", row.Role)
			}
			if row.Demotions != row.Sessions || row.Sessions == 0 {
				fail("vbad demoted %d of %d sessions, want all of a non-zero fleet", row.Demotions, row.Sessions)
			}
		}
	}

	// Phase C: a corrupt version must be refused at stage time while
	// the server keeps serving.
	if err := publish("vcorrupt", "", "rollout selftest corrupt candidate", nil); err != nil {
		return err
	}
	artifactPath, err := soleArtifactPath(root, "vcorrupt")
	if err != nil {
		return err
	}
	if _, _, err := chaos.CorruptFile(artifactPath, 3); err != nil {
		return err
	}
	status, body, err = postJSON(h.baseURL+"/admin/rollout",
		map[string]any{"action": "stage", "version": "vcorrupt"})
	if err != nil {
		return err
	}
	if status != http.StatusConflict {
		fail("phase C: staging corrupt version returned %d (%s), want 409", status, body)
	}
	if hb, err := h.scrape("/healthz"); err != nil {
		fail("phase C healthz: %v", err)
	} else if !strings.Contains(hb, `"status":"`) {
		fail("phase C healthz unparseable: %s", hb)
	}

	if err := h.drain(); err != nil {
		fail("phase B/C shutdown: %v", err)
	}
	fmt.Fprintf(os.Stderr, "rollout phase B/C: auto-rollback after %d demoted canary sessions, corrupt stage refused, 0 dropped\n",
		res.SessionsDemoted)
	return nil
}

// soleArtifactPath resolves the single artifact file of a version via
// its manifest.
func soleArtifactPath(root, version string) (string, error) {
	reg, err := registry.Open(root)
	if err != nil {
		return "", err
	}
	m, err := reg.Manifest(version)
	if err != nil {
		return "", err
	}
	names := m.FileNames()
	if len(names) != 1 {
		return "", fmt.Errorf("version %s has %d files, want 1", version, len(names))
	}
	return root + "/" + version + "/" + names[0], nil
}

package main

// The learn selftest: an end-to-end proof of gated selective online
// learning (DESIGN.md §14). It publishes the set served on the dataset
// as v1 — its OC-SVM and calibrated thresholds, a threshold its QoE
// search left at a bound replaced by the learner's refit rule — and
// drives two scripted phases:
//
//	A. poisoning resistance — a 25% adversarial fleet misreports
//	   throughput drifting 0.1% per step while the honest majority
//	   serves normally. Asserts the exact gate-counter conservation
//	   laws (server decisions = checked + demoted-rejected; checked =
//	   admitted + Σ rejections; client-observed learned flags =
//	   admitted), that adversaries are admitted at a strictly lower
//	   rate than honest clients with state-gate rejections recorded,
//	   that a refit's decision boundary stays within tolerance of the
//	   frozen baseline on a held-out reference grid, that a session
//	   pinned across the refit makes bit-identical decisions, and that
//	   the proposal lands in the registry as Proposed — visible on
//	   /dashboard, never the boot default, never auto-served;
//	B. cooperative drift — the whole fleet drifts slowly and honestly;
//	   the gate admits it, a bootstrap log seeds the window, and the
//	   refit publishes a measurably recalibrated proposal.

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"slices"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/learn"
	"osap/internal/mdp"
	"osap/internal/nn"
	"osap/internal/ocsvm"
	"osap/internal/registry"
	"osap/internal/rl"
	"osap/internal/serve"
	"osap/internal/serve/loadgen"
	"osap/internal/stats"
	"osap/internal/trace"
)

const (
	learnSteps     = 320   // decisions per fleet client
	learnAdvEvery  = 4     // every 4th client is adversarial in phase A
	learnAdvDrift  = 1.001 // adversary: +0.1% misreported throughput per step
	learnCoopDrift = 1.0003
	learnGridTol   = 0.10 // max refit-vs-baseline disagreement on the reference grid
	learnQuantile  = 0.95 // a learn refit's threshold quantile (internal/learn's alphaQuantile)
)

// TestLearnSmallScale runs the learn selftest (both phases, every
// conservation law and the dashboard's agreement with the counters) on
// an empirical and a synthetic dataset, 50 clients by default; `make
// learn-selftest` runs it on Norway at 1000.
func TestLearnSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a loopback viewer fleet")
	}
	for _, dataset := range datasets(trace.DatasetNorway, trace.DatasetGamma22) {
		t.Run(dataset, func(t *testing.T) {
			cfg := serve.Config{MaxSessions: 200, SessionTTL: time.Minute}
			runLearn(t, cfg, dataset, scaled(*flagClients, 50), scaled(*flagSeed, 20200713))
		})
	}
}

// calibrateArtifacts builds the selftest baseline: a copy of the set
// served on dataset (servedArtifactsFor), its OC-SVM and thresholds
// kept. A threshold whose record names a search bound (the QoE target
// lay out of the search's reach, so α sits at an end of its range and
// may close or open the gate outright) is replaced as a learn refit
// sets one: the learnQuantile of its trigger's statistic (the K-window
// variance the guard and the gate threshold) over a rollout of the
// served greedy policy on the selftest's own video and trace pool,
// every signal windowed and trimmed as the set's record says. Also
// returns a held-out reference grid of that rollout's feature vectors
// for the boundary-stability assertion.
func calibrateArtifacts(t *testing.T, dataset string, seed uint64, video *abr.Video, traces []*trace.Trace) (*experiments.Artifacts, [][]float64) {
	t.Helper()
	base := *servedArtifactsFor(t, dataset, seed) // a copy: a bound threshold is replaced below
	arts := &base
	frozen, err := rl.Freeze(arts.Agents, arts.ValueNets)
	if err != nil {
		t.Fatal(err)
	}
	sc := frozen.NewScratch()
	pol, polTC, err := experiments.Signal(&arts.Calibration, experiments.SchemeAEns, sc)
	if err != nil {
		t.Fatal(err)
	}
	val, valTC, err := experiments.Signal(&arts.Calibration, experiments.SchemeVEns, sc)
	if err != nil {
		t.Fatal(err)
	}
	polTrig, valTrig := core.NewTrigger(polTC), core.NewTrigger(valTC)
	env, err := abr.NewEnv(abr.DefaultEnvConfig(video, traces))
	if err != nil {
		t.Fatal(err)
	}
	greedy := sc.Greedy()
	rng := stats.NewRNG(seed ^ 0xCA11B)
	const calibSteps = 4000
	thrs := make([]float64, 0, calibSteps)
	polStats := make([]float64, 0, calibSteps)
	valStats := make([]float64, 0, calibSteps)
	obs := env.Reset(rng)
	for i := 0; i < calibSteps; i++ {
		thrs = append(thrs, abr.LastThroughputMbps(obs))
		polTrig.Step(pol.Observe(obs))
		valTrig.Step(val.Observe(obs))
		polStats = append(polStats, polTrig.Statistic())
		valStats = append(valStats, valTrig.Statistic())
		action := mdp.ArgmaxAction(greedy.Probs(obs))
		next, _, done := env.Step(action)
		if done {
			// Fleet clients never reset their server sessions across
			// episodes, so the featurizer streams across the boundary
			// too — keep the rollout identical.
			obs = env.Reset(rng)
		} else {
			obs = next
		}
	}
	feats := core.BuildStateFeatures(thrs, arts.Record.StateSignal())
	if len(feats) < 512 {
		t.Fatalf("the rollout yielded only %d features", len(feats))
	}
	for _, th := range []struct {
		name  string
		alpha *float64
		prov  *experiments.Provenance
		stat  []float64
	}{
		{"α_π", &arts.AlphaPi, &arts.Record.AlphaPi, polStats},
		{"α_V", &arts.AlphaV, &arts.Record.AlphaV, valStats},
	} {
		if th.prov.Bound != "" {
			sorted := slices.Clone(th.stat)
			slices.Sort(sorted)
			t.Logf("%s %.6g at the search's %s bound: replaced by the q%g of %d honest statistics", th.name, *th.alpha, th.prov.Bound, learnQuantile, len(sorted))
			*th.alpha = sorted[int(learnQuantile*float64(len(sorted)-1))]
			*th.prov = experiments.Provenance{Rule: experiments.RuleQuantile, Target: learnQuantile, Evals: len(sorted)}
		}
		t.Logf("baseline %s %.6g (%+v)", th.name, *th.alpha, *th.prov)
	}
	return arts, feats[len(feats)-256:]
}

// learnRun is one learn selftest's registry, calibrated baseline and
// shared load inputs.
type learnRun struct {
	cfg     serve.Config
	root    string
	dataset string
	clients int
	seed    uint64
	video   *abr.Video
	traces  []*trace.Trace
	base    *experiments.Artifacts
	grid    [][]float64
}

func runLearn(t *testing.T, cfg serve.Config, dataset string, clients int, seed uint64) {
	tmp := t.TempDir()
	r := &learnRun{cfg: cfg, root: tmp + "/registry", dataset: dataset, clients: clients, seed: seed,
		video: abr.SyntheticVideo(seed, 24, 4), traces: tracePool(t, dataset, seed)}
	t.Logf("building the baseline from the set served on %s...", dataset)
	r.base, r.grid = calibrateArtifacts(t, dataset, seed, r.video, r.traces)
	if _, err := registry.WriteVersion(r.root, registry.Meta{
		Version:   "v1",
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Notes:     "learn selftest baseline",
	}, r.base); err != nil {
		t.Fatal(err)
	}
	r.phaseA(t, tmp+"/xplog-a")
	r.phaseB(t, tmp+"/xplog-b")
}

// boot starts one loopback server from the registry with an online
// learner attached, reusing the rollout harness's probe and dashboard
// helpers. The caller stops the learner.
func (r *learnRun) boot(t *testing.T, opts learn.Config) (*rolloutHarness, *learn.Learner, *registry.Registry) {
	t.Helper()
	cfg := r.cfg
	arts, err := bootFromRegistry(&cfg, r.root, r.dataset, opts.ParentVersion)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(arts.AlphaPi) != math.Float64bits(r.base.AlphaPi) ||
		math.Float64bits(arts.AlphaV) != math.Float64bits(r.base.AlphaV) || arts.Record != r.base.Record {
		t.Fatalf("booted α_π %v, α_V %v under %+v; the baseline published %v, %v under %+v",
			arts.AlphaPi, arts.AlphaV, arts.Record, r.base.AlphaPi, r.base.AlphaV, r.base.Record)
	}
	reg, err := registry.Open(r.root)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := serve.NewGuardFactory(arts, serve.GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	learner, err := buildLearner(arts, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Learner = learner
	h := bootLoopback(t, factory, cfg, r.clients+probeSessions, false)
	return &rolloutHarness{harness: h, scores: make(map[string][]float64)}, learner, reg
}

// wave drives one fleet wave where drift(i) configures client i's
// misreported per-step throughput factor (0 = honest).
func (r *learnRun) wave(t *testing.T, h *rolloutHarness, seed uint64, drift func(i int) float64) *loadgen.Result {
	t.Helper()
	res, err := loadgen.Run(context.Background(), h.target(loadgen.Config{
		Clients:        r.clients,
		StepsPerClient: learnSteps,
		Schemes:        []string{serve.SchemeND},
		Video:          r.video,
		Traces:         r.traces,
		Seed:           seed,
		Backoff:        &loadgen.Backoff{Retries: 8},
		Adversary:      drift,
	}))
	if err != nil {
		t.Fatal(err)
	}
	checkCount(t, "wave sessions created", res.SessionsCreated, int64(r.clients))
	return res
}

// adminRefit POSTs /admin/learn {"action":"refit"} and decodes the
// proposal.
func adminRefit(t *testing.T, h *rolloutHarness) *learn.Proposal {
	t.Helper()
	status, body := postJSON(t, h.baseURL+"/admin/learn", map[string]string{"action": "refit"})
	if status != http.StatusOK {
		t.Fatalf("refit: status %d: %s", status, body)
	}
	var prop learn.Proposal
	if err := json.Unmarshal([]byte(body), &prop); err != nil {
		t.Fatalf("decode proposal: %v", err)
	}
	return &prop
}

// phaseA is the poisoning-resistance scenario.
func (r *learnRun) phaseA(t *testing.T, logDir string) {
	h, learner, reg := r.boot(t, learn.Config{LogDir: logDir, RegistryRoot: r.root, ParentVersion: "v1"})
	defer learner.Stop() //nolint:errcheck // selftest exit path
	t.Logf("phase A: %d clients × %d steps, every %dth drifting ×%g/step on %s",
		r.clients, learnSteps, learnAdvEvery, learnAdvDrift, h.baseURL)

	// Probe A replays the full reference sequence before the refit;
	// probe B takes half now and half after, to prove the refit never
	// touches serving.
	probeA, probeB := h.newProbe(t), h.newProbe(t)
	obsSeq := probeObsSequence(r.seed, rolloutProbeSteps, probeA.obsDim)
	h.stepProbe(t, probeA, obsSeq, rolloutProbeSteps)
	h.stepProbe(t, probeB, obsSeq, rolloutProbeSteps/2)

	res := r.wave(t, h, r.seed, func(i int) float64 {
		if i%learnAdvEvery == 0 {
			return learnAdvDrift
		}
		return 0
	})
	checkCount(t, "phase A steps dropped", res.StepsDropped, 0)

	// Exact counter conservation: every server decision was either
	// gate-checked or tallied as demoted-rejected, every check either
	// admitted or rejected with a reason, and every admission was
	// reported to exactly one client as learned=true.
	c := learner.Counters()
	decisions := h.srv.Metrics().Decisions.Load()
	checked := c.Checked.Load()
	admitted := c.Admitted.Load()
	if got := checked + c.RejectedDemoted.Load(); got != decisions {
		t.Errorf("phase A conservation: checked %d + demoted-rejected %d = %d, want decisions %d",
			checked, c.RejectedDemoted.Load(), got, decisions)
	}
	var rejected uint64
	for v := learn.VerdictWarmup; v <= learn.VerdictRate; v++ {
		rejected += c.Rejected(v)
	}
	if got := admitted + rejected; got != checked {
		t.Errorf("phase A conservation: admitted %d + rejected %d = %d, want checked %d",
			admitted, rejected, got, checked)
	}
	wantLearned := uint64(res.StepsLearned) + uint64(probeA.learned+probeB.learned)
	if admitted != wantLearned {
		t.Errorf("phase A admitted %d, clients saw %d learned flags", admitted, wantLearned)
	}
	checkCount(t, "phase A admitted samples the ring dropped", int64(c.RingDropped.Load()), 0)

	// Adversary containment: the drifting quarter of the fleet must be
	// admitted at a strictly lower per-client rate than the honest
	// majority, with state-gate rejections on record.
	advClients := (r.clients + learnAdvEvery - 1) / learnAdvEvery
	honestClients := r.clients - advClients
	honestLearned := res.StepsLearned - res.AdversaryLearned
	if honestLearned <= 0 {
		t.Errorf("phase A honest fleet learned %d steps, want > 0", honestLearned)
	}
	advRate := float64(res.AdversaryLearned) / float64(advClients)
	honestRate := float64(honestLearned) / float64(honestClients)
	if advRate >= honestRate {
		t.Errorf("phase A adversary admission %.2f/client not below honest %.2f/client", advRate, honestRate)
	}
	if c.Rejected(learn.VerdictState) == 0 {
		t.Errorf("phase A recorded no state-gate rejections despite %d adversary steps", res.AdversarySteps)
	}

	// Refit on the (partially poisoned) window. Nothing is stepping, so
	// the synchronous drain makes the log total exact.
	prop := adminRefit(t, h)
	if !prop.Published || prop.Version != "v1-refit-001" {
		t.Errorf("phase A proposal %+v, want published v1-refit-001", prop)
	}
	if got := c.LogRecords.Load(); got != c.Admitted.Load() {
		t.Errorf("phase A experience log holds %d records, want every admission (%d)", got, c.Admitted.Load())
	}

	// The frozen-baseline ratchet: despite the adversarial admissions,
	// the refit boundary must agree with the baseline on the held-out
	// honest reference grid within tolerance.
	refit, err := reg.Load(prop.Version, r.dataset)
	if err != nil {
		t.Fatal(err)
	}
	if dis := gridDisagreement(r.base.OCSVM, refit.Artifacts.OCSVM, r.grid); dis > learnGridTol {
		t.Errorf("phase A refit disagrees with baseline on %.1f%% of the reference grid (tol %.0f%%)",
			100*dis, 100*learnGridTol)
	}
	if !(refit.Artifacts.AlphaPi > 0) || !(refit.Artifacts.AlphaV > 0) {
		t.Errorf("phase A refit thresholds not positive: AlphaPi=%v AlphaV=%v",
			refit.Artifacts.AlphaPi, refit.Artifacts.AlphaV)
	}
	// A refit moves the OC-SVM and the thresholds only: the proposal
	// carries v1's networks, bit for bit.
	sameNetworks(t, "phase A proposal", refit.Artifacts, r.base)

	// Serving is untouched by the refit: probe B's post-refit half must
	// be bit-identical to probe A's pre-refit decisions, and v1 stays
	// active with the proposal surfaced separately.
	h.stepProbe(t, probeB, obsSeq, rolloutProbeSteps/2)
	sameProbeDecisions(t, "across the refit", probeA, probeB)
	dash := h.dashboard(t)
	if dash.Rollout.Active != "v1" || dash.Rollout.Candidate != "" {
		t.Errorf("phase A serving moved to active=%s candidate=%q, want v1 with no candidate",
			dash.Rollout.Active, dash.Rollout.Candidate)
	}
	if !slices.Contains(dash.RegistryProposed, prop.Version) {
		t.Errorf("phase A dashboard registry_proposed %v does not list %s", dash.RegistryProposed, prop.Version)
	}
	// Probe B stepped since admitted was read, and its steps may be
	// admitted too: compare with the counter as it stands now, when
	// nothing is stepping.
	if now := c.Admitted.Load(); dash.Learn.GateAdmitted != now {
		t.Errorf("phase A dashboard learn block reports %d admitted, counters say %d", dash.Learn.GateAdmitted, now)
	}
	man, err := reg.Manifest(prop.Version)
	if err != nil {
		t.Fatal(err)
	}
	if !man.Proposed {
		t.Errorf("phase A proposal manifest not marked proposed")
	}
	// A fresh default boot must pick the promoted v1, never the
	// proposal.
	var bootCfg serve.Config
	if _, err := bootFromRegistry(&bootCfg, r.root, r.dataset, ""); err != nil {
		t.Fatal(err)
	}
	if bootCfg.Version != "v1" {
		t.Errorf("phase A fresh default boot chose %q, want promoted v1", bootCfg.Version)
	}

	if err := h.drain(); err != nil {
		t.Errorf("phase A shutdown: %v", err)
	}
	t.Logf("phase A: admitted %d of %d checked (%d state rejections), adversary %.1f vs honest %.1f per client, grid drift ok",
		admitted, checked, c.Rejected(learn.VerdictState), advRate, honestRate)
}

// sameNetworks checks that got's actors, critics and value networks
// equal want's, Float64bits for Float64bits.
func sameNetworks(t *testing.T, label string, got, want *experiments.Artifacts) {
	t.Helper()
	nets := func(a *experiments.Artifacts) []*nn.Network {
		var out []*nn.Network
		for _, ac := range a.Agents {
			out = append(out, ac.Actor, ac.Critic)
		}
		return append(out, a.ValueNets...)
	}
	g, w := nets(got), nets(want)
	if len(g) != len(w) {
		t.Errorf("%s: %d networks, want %d", label, len(g), len(w))
		return
	}
	sameBits := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for i := range w {
		gp, wp := g[i].Params(), w[i].Params()
		if len(gp) != len(wp) {
			t.Errorf("%s: network %d has %d parameters, want %d", label, i, len(gp), len(wp))
			continue
		}
		for j := range wp {
			if !slices.EqualFunc(gp[j].W, wp[j].W, sameBits) {
				t.Errorf("%s: network %d parameter %d (%s) differs from its parent's", label, i, j, wp[j].Name)
			}
		}
	}
}

// phaseB is the cooperative-drift scenario: the gate must admit a
// slowly, honestly drifting fleet, seed its window from a bootstrap
// log, and publish a recalibrated proposal.
func (r *learnRun) phaseB(t *testing.T, logDir string) {
	boot, err := learn.ExportBootstrap(logDir, r.grid)
	if err != nil {
		t.Fatal(err)
	}
	// Phase A's proposal holds v1-refit-001, so this learner numbers
	// its refit after it.
	h, learner, _ := r.boot(t, learn.Config{LogDir: logDir, RegistryRoot: r.root, ParentVersion: "v1"})
	defer learner.Stop() //nolint:errcheck // selftest exit path
	t.Logf("phase B: cooperative fleet drifting ×%g/step, %d bootstrap records", learnCoopDrift, boot)
	c := learner.Counters()
	checkCount(t, "phase B bootstrap records replayed", int64(c.BootstrapRecords.Load()), int64(boot))

	res := r.wave(t, h, r.seed+1, func(int) float64 { return learnCoopDrift })
	checkCount(t, "phase B steps dropped", res.StepsDropped, 0)
	if got := c.Checked.Load() + c.RejectedDemoted.Load(); got != h.srv.Metrics().Decisions.Load() {
		t.Errorf("phase B conservation: checked+demoted %d != decisions %d", got, h.srv.Metrics().Decisions.Load())
	}
	if uint64(res.StepsLearned) != c.Admitted.Load() {
		t.Errorf("phase B admitted %d, clients saw %d learned flags", c.Admitted.Load(), res.StepsLearned)
	}
	// The cooperative fleet must be genuinely learned from: well beyond
	// what the per-session burst alone would admit.
	if res.StepsLearned <= int64(r.clients)*2 {
		t.Errorf("phase B learned only %d steps from %d cooperative clients", res.StepsLearned, r.clients)
	}

	prop := adminRefit(t, h)
	if !prop.Published || prop.Version != "v1-refit-002" {
		t.Errorf("phase B proposal %+v, want published v1-refit-002", prop)
	}
	if prop.Samples < int(c.Admitted.Load()/2) && prop.Samples < 4096 {
		t.Errorf("phase B refit trained on %d samples of %d admitted", prop.Samples, c.Admitted.Load())
	}
	// Thresholds recalibrated from admitted traffic, not carried over.
	if prop.AlphaPi == r.base.AlphaPi && prop.AlphaV == r.base.AlphaV {
		t.Errorf("phase B proposal thresholds identical to baseline (AlphaPi=%v AlphaV=%v): no recalibration", prop.AlphaPi, prop.AlphaV)
	}

	if err := h.drain(); err != nil {
		t.Errorf("phase B shutdown: %v", err)
	}
	t.Logf("phase B: admitted %d cooperative steps, proposal %s on %d samples (alphaPi %.4g→%.4g)",
		res.StepsLearned, prop.Version, prop.Samples, r.base.AlphaPi, prop.AlphaPi)
}

// gridDisagreement returns the fraction of grid points on which the
// two models' binary in/out decisions differ — the
// poisoning-resistance acceptance metric: a refit trained through the
// trust gate must stay within tolerance of the frozen baseline on a
// held-out reference grid.
func gridDisagreement(a, b *ocsvm.Model, grid [][]float64) float64 {
	if len(grid) == 0 {
		return 0
	}
	n := 0
	for _, x := range grid {
		if (a.Decision(x) >= 0) != (b.Decision(x) >= 0) {
			n++
		}
	}
	return float64(n) / float64(len(grid))
}

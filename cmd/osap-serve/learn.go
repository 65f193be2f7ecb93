package main

// The -learn selftest: an end-to-end proof of gated selective online
// learning (DESIGN.md §14). It calibrates a baseline on its own honest
// traffic, publishes it as v1, and drives two scripted phases:
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
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"time"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/learn"
	"osap/internal/mdp"
	"osap/internal/ocsvm"
	"osap/internal/registry"
	"osap/internal/rl"
	"osap/internal/serve"
	"osap/internal/serve/loadgen"
	"osap/internal/stats"
	"osap/internal/trace"
)

// learnConfig groups the online-learning wiring shared by the
// production -learn-log path and the -learn selftest.
type learnConfig struct {
	LogDir       string
	RefitEvery   int
	RegistryRoot string
	Parent       string
	Prefix       string
}

// buildLearner constructs the Learner judged against the factory's
// frozen artifacts, whose record builds the gate's signals as it builds
// the serving guard's.
func buildLearner(factory *serve.GuardFactory, opts learnConfig) (*learn.Learner, error) {
	cfg := learn.Config{
		Artifacts:      factory.Artifacts(),
		Extract:        abr.LastThroughputMbps,
		RefitEvery:     opts.RefitEvery,
		LogDir:         opts.LogDir,
		RegistryRoot:   opts.RegistryRoot,
		ParentVersion:  opts.Parent,
		ProposalPrefix: opts.Prefix,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if opts.RegistryRoot != "" {
		cfg.Now = time.Now
	}
	return learn.New(cfg)
}

const (
	learnSteps     = 320   // decisions per fleet client
	learnAdvEvery  = 4     // every 4th client is adversarial in phase A
	learnAdvDrift  = 1.001 // adversary: +0.1% misreported throughput per step
	learnCoopDrift = 1.0003
	learnGridTol   = 0.10 // max refit-vs-baseline disagreement on the reference grid
)

// calibrateArtifacts builds the selftest baseline: synthetic networks
// (decision quality is irrelevant) with an OC-SVM trained on the
// traffic the selftest itself will generate — a rollout of the served
// greedy policy over the same trace pool — and U_π/U_V thresholds set
// generously above the observed ensemble-disagreement quantiles, every
// signal windowed and trimmed as the synthetic set's record says. By
// construction honest fleet traffic is in-distribution, so any gate
// rejection beyond the nu-fraction boundary noise is caused by the
// drift the phases inject. Also returns a held-out reference grid of
// observed feature vectors for the boundary-stability assertion.
func calibrateArtifacts(dataset string, seed uint64, video *abr.Video, traces []*trace.Trace) (*experiments.Artifacts, [][]float64, error) {
	arts, err := serve.SyntheticArtifacts(dataset, 3, seed)
	if err != nil {
		return nil, nil, err
	}
	frozen, err := rl.Freeze(arts.Agents, arts.ValueNets)
	if err != nil {
		return nil, nil, err
	}
	sc := frozen.NewScratch()
	pol, _, err := experiments.Signal(arts, experiments.SchemeAEns, sc)
	if err != nil {
		return nil, nil, err
	}
	val, _, err := experiments.Signal(arts, experiments.SchemeVEns, sc)
	if err != nil {
		return nil, nil, err
	}
	env, err := abr.NewEnv(abr.DefaultEnvConfig(video, traces))
	if err != nil {
		return nil, nil, err
	}
	greedy := sc.Greedy()
	rng := stats.NewRNG(seed ^ 0xCA11B)
	const calibSteps = 4000
	thrs := make([]float64, 0, calibSteps)
	polScores := make([]float64, 0, calibSteps)
	valScores := make([]float64, 0, calibSteps)
	obs := env.Reset(rng)
	for i := 0; i < calibSteps; i++ {
		thrs = append(thrs, abr.LastThroughputMbps(obs))
		polScores = append(polScores, pol.Observe(obs))
		valScores = append(valScores, val.Observe(obs))
		action := mdp.ArgmaxAction(greedy.Probs(obs))
		next, _, done := env.Step(action)
		if done {
			// Fleet clients never reset their server sessions across
			// episodes, so the featurizer streams across the boundary
			// too — keep calibration identical.
			obs = env.Reset(rng)
		} else {
			obs = next
		}
	}
	feats := core.BuildStateFeatures(thrs, arts.Record.StateSignal())
	if len(feats) < 512 {
		return nil, nil, fmt.Errorf("learn selftest: calibration yielded only %d features", len(feats))
	}
	ocfg := ocsvm.DefaultConfig()
	ocfg.Seed = seed
	model, err := ocsvm.Train(feats, ocfg)
	if err != nil {
		return nil, nil, err
	}
	arts.OCSVM = model
	arts.AlphaPi = calibAlpha(polScores)
	arts.AlphaV = calibAlpha(valScores)
	grid := feats[len(feats)-256:]
	return arts, grid, nil
}

// calibAlpha sets a gate threshold to twice the q0.99 of the observed
// honest scores: generous enough that honest ensemble disagreement
// never rejects, tight enough that the signal stays live.
func calibAlpha(scores []float64) float64 {
	sorted := append([]float64(nil), scores...)
	sort.Float64s(sorted)
	a := 2 * sorted[int(0.99*float64(len(sorted)-1))]
	if !(a > 0) {
		a = 0.05
	}
	return a
}

// bootLearnHarness boots one loopback server from the registry with an
// online learner attached, reusing the rollout harness's probe and
// dashboard helpers.
func bootLearnHarness(base serve.Config, root, dataset string, clients int,
	opts learnConfig) (*rolloutHarness, *learn.Learner, *registry.Registry, error) {
	cfg := base
	reg, factory, err := bootFromRegistry(&cfg, root, dataset, opts.Parent)
	if err != nil {
		return nil, nil, nil, err
	}
	learner, err := buildLearner(factory, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	cfg.Learner = learner
	h, err := bootLoopback(factory, cfg, clients+probeSessions, false, nil)
	if err != nil {
		learner.Stop() //nolint:errcheck // construction failed; log close error is secondary
		return nil, nil, nil, err
	}
	return &rolloutHarness{harness: h, scores: make(map[string][]float64)}, learner, reg, nil
}

// learnWave drives one fleet wave where drift(i) configures client i's
// misreported per-step throughput factor (0 = honest).
func (h *rolloutHarness) learnWave(clients int, seed uint64, video *abr.Video, traces []*trace.Trace,
	drift func(i int) float64) (*loadgen.Result, error) {
	return loadgen.Run(context.Background(), h.target(loadgen.Config{
		Clients:        clients,
		StepsPerClient: learnSteps,
		Schemes:        []string{serve.SchemeND},
		Video:          video,
		Traces:         traces,
		Seed:           seed,
		Backoff:        &loadgen.Backoff{Retries: 8},
		Adversary:      drift,
	}))
}

// adminRefit POSTs /admin/learn {"action":"refit"} and decodes the
// proposal.
func (h *rolloutHarness) adminRefit() (*learn.Proposal, error) {
	status, body, err := postJSON(h.baseURL+"/admin/learn", map[string]string{"action": "refit"})
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("refit: status %d: %s", status, body)
	}
	var prop learn.Proposal
	if err := json.Unmarshal([]byte(body), &prop); err != nil {
		return nil, fmt.Errorf("decode proposal: %w", err)
	}
	return &prop, nil
}

// learnDashDoc is the /dashboard slice the selftest asserts on.
type learnDashDoc struct {
	RegistryProposed []string       `json:"registry_proposed"`
	Learn            learn.Snapshot `json:"learn"`
	Rollout          struct {
		Active    string `json:"active"`
		Candidate string `json:"candidate"`
	} `json:"rollout"`
}

func (h *rolloutHarness) learnDashboard() (*learnDashDoc, error) {
	body, err := h.scrape("/dashboard")
	if err != nil {
		return nil, err
	}
	var doc learnDashDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return nil, fmt.Errorf("decode dashboard: %w", err)
	}
	return &doc, nil
}

func runLearnSelfTest(cfg serve.Config, dataset string, clients int, seed uint64) error {
	start := time.Now()
	tmp, err := os.MkdirTemp("", "osap-learn-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp) //nolint:errcheck // best-effort temp cleanup
	root := tmp + "/registry"
	logA := tmp + "/xplog-a"
	logB := tmp + "/xplog-b"

	traces, err := tracePool(dataset, seed)
	if err != nil {
		return err
	}
	video := abr.SyntheticVideo(seed, 24, 4)

	fmt.Fprintf(os.Stderr, "learn: calibrating baseline on honest %s traffic...\n", dataset)
	arts, grid, err := calibrateArtifacts(dataset, seed, video, traces)
	if err != nil {
		return err
	}
	if _, err := registry.WriteVersion(root, registry.Meta{
		Version:   "v1",
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Notes:     "learn selftest calibrated baseline",
	}, arts); err != nil {
		return err
	}

	failed := failures{name: "learn"}
	if err := learnPhaseA(cfg, root, logA, dataset, clients, seed, video, traces, arts, grid, failed.fail); err != nil {
		return err
	}
	if err := learnPhaseB(cfg, root, logB, dataset, clients, seed, video, traces, arts, grid, failed.fail); err != nil {
		return err
	}
	if err := failed.err(); err != nil {
		return err
	}
	fmt.Printf("learn: all assertions passed in %v\n", time.Since(start).Round(time.Millisecond))
	return nil
}

// learnPhaseA is the poisoning-resistance scenario.
func learnPhaseA(cfg serve.Config, root, logDir, dataset string, clients int, seed uint64,
	video *abr.Video, traces []*trace.Trace, base *experiments.Artifacts, grid [][]float64,
	fail func(format string, args ...any)) error {
	h, learner, reg, err := bootLearnHarness(cfg, root, dataset, clients,
		learnConfig{LogDir: logDir, RegistryRoot: root, Parent: "v1"})
	if err != nil {
		return err
	}
	defer learner.Stop() //nolint:errcheck // selftest exit path
	fmt.Fprintf(os.Stderr, "learn phase A: %d clients × %d steps, every %dth drifting ×%g/step on %s\n",
		clients, learnSteps, learnAdvEvery, learnAdvDrift, h.baseURL)

	// Probe A replays the full reference sequence before the refit;
	// probe B takes half now and half after, to prove the refit never
	// touches serving.
	probeA, err := h.newProbe()
	if err != nil {
		return err
	}
	probeB, err := h.newProbe()
	if err != nil {
		return err
	}
	obsSeq := probeObsSequence(seed, rolloutProbeSteps, probeA.obsDim)
	if err := h.stepProbe(probeA, obsSeq, rolloutProbeSteps); err != nil {
		return err
	}
	if err := h.stepProbe(probeB, obsSeq, rolloutProbeSteps/2); err != nil {
		return err
	}

	res, err := h.learnWave(clients, seed, video, traces, func(i int) float64 {
		if i%learnAdvEvery == 0 {
			return learnAdvDrift
		}
		return 0
	})
	if err != nil {
		return err
	}
	if res.StepsDropped != 0 {
		fail("phase A dropped %d steps, want 0", res.StepsDropped)
	}

	// Exact counter conservation: every server decision was either
	// gate-checked or tallied as demoted-rejected, every check either
	// admitted or rejected with a reason, and every admission was
	// reported to exactly one client as learned=true.
	c := learner.Counters()
	decisions := h.srv.Metrics().Decisions.Load()
	checked := c.Checked.Load()
	admitted := c.Admitted.Load()
	if got := checked + c.RejectedDemoted.Load(); got != decisions {
		fail("phase A conservation: checked %d + demoted-rejected %d = %d, want decisions %d",
			checked, c.RejectedDemoted.Load(), got, decisions)
	}
	if got := admitted + c.RejectedTotal(); got != checked {
		fail("phase A conservation: admitted %d + rejected %d = %d, want checked %d",
			admitted, c.RejectedTotal(), got, checked)
	}
	wantLearned := uint64(res.StepsLearned) + uint64(probeA.learned+probeB.learned)
	if admitted != wantLearned {
		fail("phase A admitted %d, clients saw %d learned flags", admitted, wantLearned)
	}
	if got := c.RingDropped.Load(); got != 0 {
		fail("phase A ring dropped %d admitted samples, want 0", got)
	}

	// Adversary containment: the drifting quarter of the fleet must be
	// admitted at a strictly lower per-client rate than the honest
	// majority, with state-gate rejections on record.
	advClients := (clients + learnAdvEvery - 1) / learnAdvEvery
	honestClients := clients - advClients
	honestLearned := res.StepsLearned - res.AdversaryLearned
	if honestLearned <= 0 {
		fail("phase A honest fleet learned %d steps, want > 0", honestLearned)
	}
	advRate := float64(res.AdversaryLearned) / float64(advClients)
	honestRate := float64(honestLearned) / float64(honestClients)
	if advRate >= honestRate {
		fail("phase A adversary admission %.2f/client not below honest %.2f/client", advRate, honestRate)
	}
	if c.Rejected(learn.VerdictState) == 0 {
		fail("phase A recorded no state-gate rejections despite %d adversary steps", res.AdversarySteps)
	}

	// Refit on the (partially poisoned) window. Nothing is stepping, so
	// the synchronous drain makes the log total exact.
	prop, err := h.adminRefit()
	if err != nil {
		return err
	}
	if !prop.Published || prop.Version != "v1-refit-001" {
		fail("phase A proposal %+v, want published v1-refit-001", prop)
	}
	if got := c.LogRecords.Load(); got != c.Admitted.Load() {
		fail("phase A experience log holds %d records, want every admission (%d)", got, c.Admitted.Load())
	}

	// The frozen-baseline ratchet: despite the adversarial admissions,
	// the refit boundary must agree with the baseline on the held-out
	// honest reference grid within tolerance.
	refit, err := reg.Load(prop.Version, dataset)
	if err != nil {
		return err
	}
	if dis := ocsvm.GridDisagreement(base.OCSVM, refit.Artifacts.OCSVM, grid); dis > learnGridTol {
		fail("phase A refit disagrees with baseline on %.1f%% of the reference grid (tol %.0f%%)",
			100*dis, 100*learnGridTol)
	}
	if !(refit.Artifacts.AlphaPi > 0) || !(refit.Artifacts.AlphaV > 0) {
		fail("phase A refit thresholds not positive: AlphaPi=%v AlphaV=%v",
			refit.Artifacts.AlphaPi, refit.Artifacts.AlphaV)
	}

	// Serving is untouched by the refit: probe B's post-refit half must
	// be bit-identical to probe A's pre-refit decisions, and v1 stays
	// active with the proposal surfaced separately.
	if err := h.stepProbe(probeB, obsSeq, rolloutProbeSteps/2); err != nil {
		return err
	}
	for i := range probeA.decs {
		a, b := probeA.decs[i], probeB.decs[i]
		if a.Action != b.Action || math.Float64bits(a.Score) != math.Float64bits(b.Score) {
			fail("phase A pinned session diverged at step %d across the refit: (action %d, score %x) vs (action %d, score %x)",
				i, a.Action, math.Float64bits(a.Score), b.Action, math.Float64bits(b.Score))
			break
		}
	}
	dash, err := h.learnDashboard()
	if err != nil {
		return err
	}
	if dash.Rollout.Active != "v1" || dash.Rollout.Candidate != "" {
		fail("phase A serving moved to active=%s candidate=%q, want v1 with no candidate",
			dash.Rollout.Active, dash.Rollout.Candidate)
	}
	if !containsString(dash.RegistryProposed, prop.Version) {
		fail("phase A dashboard registry_proposed %v does not list %s", dash.RegistryProposed, prop.Version)
	}
	// Probe B stepped since admitted was read, and its steps may be
	// admitted too: compare with the counter as it stands now, when
	// nothing is stepping.
	if now := c.Admitted.Load(); dash.Learn.GateAdmitted != now {
		fail("phase A dashboard learn block reports %d admitted, counters say %d", dash.Learn.GateAdmitted, now)
	}
	man, err := reg.Manifest(prop.Version)
	if err != nil {
		return err
	}
	if !man.Proposed {
		fail("phase A proposal manifest not marked proposed")
	}
	// A fresh default boot must pick the promoted v1, never the
	// proposal.
	var bootCfg serve.Config
	if _, _, err := bootFromRegistry(&bootCfg, root, dataset, ""); err != nil {
		return err
	}
	if bootCfg.Version != "v1" {
		fail("phase A fresh default boot chose %q, want promoted v1", bootCfg.Version)
	}

	if err := h.drain(); err != nil {
		fail("phase A shutdown: %v", err)
	}
	fmt.Fprintf(os.Stderr, "learn phase A: admitted %d of %d checked (%d state rejections), adversary %.1f vs honest %.1f per client, grid drift ok\n",
		admitted, checked, c.Rejected(learn.VerdictState), advRate, honestRate)
	return nil
}

// learnPhaseB is the cooperative-drift scenario: the gate must admit a
// slowly, honestly drifting fleet, seed its window from a bootstrap
// log, and publish a recalibrated proposal.
func learnPhaseB(cfg serve.Config, root, logDir, dataset string, clients int, seed uint64,
	video *abr.Video, traces []*trace.Trace, base *experiments.Artifacts, grid [][]float64,
	fail func(format string, args ...any)) error {
	boot, err := learn.ExportBootstrap(logDir, grid, learn.LogConfig{})
	if err != nil {
		return err
	}
	h, learner, _, err := bootLearnHarness(cfg, root, dataset, clients,
		learnConfig{LogDir: logDir, RegistryRoot: root, Parent: "v1", Prefix: "coop"})
	if err != nil {
		return err
	}
	defer learner.Stop() //nolint:errcheck // selftest exit path
	fmt.Fprintf(os.Stderr, "learn phase B: cooperative fleet drifting ×%g/step, %d bootstrap records\n",
		learnCoopDrift, boot)
	c := learner.Counters()
	if got := c.BootstrapRecords.Load(); got != uint64(boot) {
		fail("phase B replayed %d bootstrap records, exported %d", got, boot)
	}

	res, err := h.learnWave(clients, seed+1, video, traces, func(int) float64 { return learnCoopDrift })
	if err != nil {
		return err
	}
	if res.StepsDropped != 0 {
		fail("phase B dropped %d steps, want 0", res.StepsDropped)
	}
	if got := c.Checked.Load() + c.RejectedDemoted.Load(); got != h.srv.Metrics().Decisions.Load() {
		fail("phase B conservation: checked+demoted %d != decisions %d", got, h.srv.Metrics().Decisions.Load())
	}
	if uint64(res.StepsLearned) != c.Admitted.Load() {
		fail("phase B admitted %d, clients saw %d learned flags", c.Admitted.Load(), res.StepsLearned)
	}
	// The cooperative fleet must be genuinely learned from: well beyond
	// what the per-session burst alone would admit.
	if res.StepsLearned <= int64(clients)*2 {
		fail("phase B learned only %d steps from %d cooperative clients", res.StepsLearned, clients)
	}

	prop, err := h.adminRefit()
	if err != nil {
		return err
	}
	if !prop.Published || prop.Version != "coop-refit-001" {
		fail("phase B proposal %+v, want published coop-refit-001", prop)
	}
	if prop.Samples < int(c.Admitted.Load()/2) && prop.Samples < 4096 {
		fail("phase B refit trained on %d samples of %d admitted", prop.Samples, c.Admitted.Load())
	}
	// Thresholds recalibrated from admitted traffic, not carried over.
	if prop.AlphaPi == base.AlphaPi && prop.AlphaV == base.AlphaV {
		fail("phase B proposal thresholds identical to baseline (AlphaPi=%v AlphaV=%v): no recalibration", prop.AlphaPi, prop.AlphaV)
	}

	if err := h.drain(); err != nil {
		fail("phase B shutdown: %v", err)
	}
	fmt.Fprintf(os.Stderr, "learn phase B: admitted %d cooperative steps, proposal %s on %d samples (alphaPi %.4g→%.4g)\n",
		res.StepsLearned, prop.Version, prop.Samples, base.AlphaPi, prop.AlphaPi)
	return nil
}

func containsString(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

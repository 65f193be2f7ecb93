// Benchmark harness: one benchmark per table/figure in the paper's
// evaluation section, plus the in-text per-decision latency numbers
// (§3.1) and ablations over the design choices called out in DESIGN.md.
//
// The figure benchmarks time the *evaluation* work of regenerating each
// figure: agents/ensembles/OC-SVMs are trained once per `go test` run
// (at quick scale) and installed into a fresh Lab per iteration, so an
// iteration measures exactly what `osap-repro -fig N` does after
// training. QoE-shaped results are attached as custom metrics so
// `-bench` output doubles as a miniature reproduction of each figure.
//
// Run:
//
//	go test -bench=. -benchmem
package osap_test

import (
	"runtime"
	"sync"
	"testing"

	"osap"
	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/mdp"
	"osap/internal/netem"
	"osap/internal/rl"
	"osap/internal/stats"
	"osap/internal/trace"
)

var (
	benchOnce sync.Once
	benchArts map[string]*experiments.Artifacts
	benchErr  error
)

// trainedArtifacts trains quick-scale artifacts for all six datasets
// exactly once per test binary.
func trainedArtifacts(b *testing.B) map[string]*experiments.Artifacts {
	b.Helper()
	benchOnce.Do(func() {
		lab, err := experiments.NewLab(experiments.QuickConfig())
		if err != nil {
			benchErr = err
			return
		}
		benchArts = make(map[string]*experiments.Artifacts)
		for _, name := range trace.DatasetNames() {
			a, err := lab.Artifacts(name)
			if err != nil {
				benchErr = err
				return
			}
			benchArts[name] = a
		}
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchArts
}

// freshLab returns a lab with pre-trained artifacts installed, so
// benchmark iterations measure evaluation, not training.
func freshLab(b *testing.B) *experiments.Lab {
	b.Helper()
	arts := trainedArtifacts(b)
	lab, err := experiments.NewLab(experiments.QuickConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, a := range arts {
		if err := lab.InstallArtifacts(a); err != nil {
			b.Fatal(err)
		}
	}
	return lab
}

// BenchmarkFigure1 regenerates Figure 1 (in-distribution QoE of
// Pensieve, ND, A-ensemble, V-ensemble and BB over the six matched
// pairs).
func BenchmarkFigure1(b *testing.B) {
	var last *experiments.Figure1Result
	for i := 0; i < b.N; i++ {
		lab := freshLab(b)
		f, err := lab.Figure1()
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	row := last.Rows["gamma22"]
	b.ReportMetric(row[experiments.SchemePensieve], "qoe_pensieve")
	b.ReportMetric(row[experiments.SchemeND], "qoe_nd")
	b.ReportMetric(row[experiments.SchemeBB], "qoe_bb")
}

// BenchmarkFigure2 regenerates Figure 2 (raw QoE of Pensieve/BB/Random
// across test datasets for the paper's two featured training sets).
func BenchmarkFigure2(b *testing.B) {
	var last *experiments.Figure2Result
	for i := 0; i < b.N; i++ {
		lab := freshLab(b)
		for _, tr := range []string{"belgium", "gamma22"} {
			f, err := lab.Figure2(tr)
			if err != nil {
				b.Fatal(err)
			}
			last = f
		}
	}
	b.ReportMetric(last.Rows["exponential"][experiments.SchemePensieve], "qoe_pensieve_ood")
	b.ReportMetric(last.Rows["exponential"][experiments.SchemeBB], "qoe_bb_ood")
}

// BenchmarkFigure3 regenerates Figure 3 (normalized Pensieve score over
// the full 36-pair grid).
func BenchmarkFigure3(b *testing.B) {
	var last *experiments.Figure3Result
	for i := 0; i < b.N; i++ {
		lab := freshLab(b)
		f, err := lab.Figure3()
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	b.ReportMetric(last.Score["gamma22"]["gamma22"], "norm_in_dist")
	b.ReportMetric(last.Score["gamma22"]["exponential"], "norm_ood")
}

// BenchmarkFigure4 regenerates Figure 4 (max/min/mean/median normalized
// score of each scheme across the 30 OOD pairs).
func BenchmarkFigure4(b *testing.B) {
	var last *experiments.Figure4Result
	for i := 0; i < b.N; i++ {
		lab := freshLab(b)
		f, err := lab.Figure4()
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	b.ReportMetric(last.Stats[experiments.SchemePensieve].Min, "min_pensieve")
	b.ReportMetric(last.Stats[experiments.SchemeND].Min, "min_nd")
	b.ReportMetric(last.Stats[experiments.SchemeVEns].Max, "max_vens")
}

// BenchmarkFigure5 regenerates Figure 5 (the CDF of normalized OOD
// scores per scheme).
func BenchmarkFigure5(b *testing.B) {
	var last *experiments.Figure5Result
	for i := 0; i < b.N; i++ {
		lab := freshLab(b)
		f, err := lab.Figure5()
		if err != nil {
			b.Fatal(err)
		}
		last = f
	}
	// Fraction of OOD pairs where each scheme lands below Random (< 0).
	b.ReportMetric(last.CDFs[experiments.SchemePensieve].At(0), "frac_below_random_pensieve")
	b.ReportMetric(last.CDFs[experiments.SchemeND].At(0), "frac_below_random_nd")
}

// ---------------------------------------------------------------------------
// The §3.1 latency remark: per-decision online cost of each signal
// (paper: ~0.5 ms U_S, ~3 ms U_π, ~4 ms U_V on 2020 hardware) and OC-SVM
// training time (paper: < 8 s).

// benchObs builds a representative mid-episode observation.
func benchObs(b *testing.B) []float64 {
	b.Helper()
	video := abr.SyntheticVideo(0xE14100, 48, 4).Repeat(5)
	gen, err := trace.GeneratorFor(trace.DatasetGamma22)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(1)
	env, err := abr.NewEnv(abr.DefaultEnvConfig(video, []*trace.Trace{gen.Generate(rng, 400)}))
	if err != nil {
		b.Fatal(err)
	}
	obs := env.Reset(rng)
	bb := abr.NewBBPolicy(video.NumLevels())
	for i := 0; i < 20; i++ {
		obs, _, _ = env.Step(mdp.ArgmaxAction(bb.Probs(obs)))
	}
	return obs
}

// BenchmarkDecisionUS measures one U_S decision (feature update + OC-SVM
// classification).
func BenchmarkDecisionUS(b *testing.B) {
	arts := trainedArtifacts(b)
	a := arts[trace.DatasetGamma22]
	cfg := core.StateSignalConfig{ThroughputWindow: 10, K: a.OCSVM.Dim / 2}
	sig, err := core.NewStateSignal(a.OCSVM, abr.LastThroughputMbps, cfg)
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig.Observe(obs)
	}
}

// BenchmarkDecisionUPi measures one U_π decision (ensemble forward
// passes + trimmed KL disagreement) on the workspace-backed serving
// path.
func BenchmarkDecisionUPi(b *testing.B) {
	arts := trainedArtifacts(b)
	a := arts[trace.DatasetGamma22]
	sig, err := core.NewPolicySignal(benchScratch(b, a).Policies(), core.EnsembleConfig{Discard: 1})
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObs(b)
	sig.Observe(obs) // size the signal's scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig.Observe(obs)
	}
}

// BenchmarkDecisionUV measures one U_V decision (value-ensemble forward
// passes + trimmed distance disagreement) on the workspace-backed
// serving path.
func BenchmarkDecisionUV(b *testing.B) {
	arts := trainedArtifacts(b)
	a := arts[trace.DatasetGamma22]
	sig, err := core.NewValueSignal(benchScratch(b, a).Values(), core.EnsembleConfig{Discard: 1})
	if err != nil {
		b.Fatal(err)
	}
	obs := benchObs(b)
	sig.Observe(obs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig.Observe(obs)
	}
}

// BenchmarkTrainOCSVM measures U_S offline training (paper: < 8 s for
// OC-SVM).
func BenchmarkTrainOCSVM(b *testing.B) {
	rng := stats.NewRNG(1)
	g := stats.Gamma{Shape: 2, Scale: 2}
	series := make([]float64, 2000)
	for i := range series {
		series[i] = g.Sample(rng)
	}
	feats := osap.BuildStateFeatures(series, osap.DefaultStateSignalConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := osap.TrainOCSVM(feats, osap.DefaultOCSVMConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// benchScratch packs an artifact set and returns forward scratch of it,
// the handles a served step runs on.
func benchScratch(b *testing.B, a *experiments.Artifacts) *rl.Scratch {
	b.Helper()
	f, err := rl.Freeze(a.Agents, a.ValueNets)
	if err != nil {
		b.Fatal(err)
	}
	return f.NewScratch()
}

// BenchmarkAgentInference measures one Pensieve actor forward pass (the
// baseline cost every scheme pays per chunk) through a workspace-backed
// inference handle, the serving configuration.
func BenchmarkAgentInference(b *testing.B) {
	arts := trainedArtifacts(b)
	session := benchScratch(b, arts[trace.DatasetGamma22]).Policies()[0]
	obs := benchObs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session.Probs(obs)
	}
}

// ---------------------------------------------------------------------------
// Set-up cost: what the repository's benchmark pays before it serves —
// train the served artifact set, save it, and load it in the child —
// on its recipe (quick scale, 5 members, the paper's trim, Norway) at
// GOMAXPROCS 1, so one core's time is what is measured.

func setupLabConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.EnsembleSize = 5
	cfg.Trim = core.DefaultEnsembleConfig()
	return cfg
}

var (
	setupOnce sync.Once
	setupArts *experiments.Artifacts
	setupErr  error
)

// setupArtifacts trains the recipe once per test binary.
func setupArtifacts(b *testing.B) *experiments.Artifacts {
	b.Helper()
	setupOnce.Do(func() {
		var lab *experiments.Lab
		if lab, setupErr = experiments.NewLab(setupLabConfig()); setupErr == nil {
			setupArts, setupErr = lab.Artifacts(trace.DatasetNorway)
		}
	})
	if setupErr != nil {
		b.Fatal(setupErr)
	}
	return setupArts
}

func oneProc(b *testing.B) {
	b.Helper()
	prev := runtime.GOMAXPROCS(1)
	b.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// BenchmarkArtifactsTrain trains the served artifact set from scratch:
// agent and value ensembles, OC-SVM, threshold calibration.
func BenchmarkArtifactsTrain(b *testing.B) {
	oneProc(b)
	for i := 0; i < b.N; i++ {
		lab, err := experiments.NewLab(setupLabConfig())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lab.Artifacts(trace.DatasetNorway); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArtifactsSave writes the served artifact set to disk.
func BenchmarkArtifactsSave(b *testing.B) {
	arts := setupArtifacts(b)
	dir := b.TempDir()
	oneProc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SaveArtifacts(dir, arts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkArtifactsLoad reads and verifies the served artifact set.
func BenchmarkArtifactsLoad(b *testing.B) {
	path, err := experiments.SaveArtifacts(b.TempDir(), setupArtifacts(b))
	if err != nil {
		b.Fatal(err)
	}
	oneProc(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LoadArtifacts(path); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablations over the design choices listed in DESIGN.md §4. Each reports
// OOD QoE under a variant as a custom metric.

// guardedOODQoE evaluates an ND guard variant OOD (trained on gamma22,
// tested on exponential) with a configurable trigger and window.
func guardedOODQoE(b *testing.B, l int, latched bool) float64 {
	b.Helper()
	arts := trainedArtifacts(b)
	a := arts[trace.DatasetGamma22]
	cfg := experiments.QuickConfig()

	reg, err := trace.BuildRegistry(cfg.Registry)
	if err != nil {
		b.Fatal(err)
	}
	sigCfg := core.StateSignalConfig{ThroughputWindow: 10, K: a.OCSVM.Dim / 2}
	sig, err := core.NewStateSignal(a.OCSVM, abr.LastThroughputMbps, sigCfg)
	if err != nil {
		b.Fatal(err)
	}
	tc := core.StateTriggerConfig()
	tc.L = l
	tc.Latched = latched
	guard, err := core.NewGuard(
		rl.GreedyPolicy{P: a.Agents[0]},
		abr.NewBBPolicy(cfg.EvalVideo.NumLevels()),
		sig, core.NewTrigger(tc))
	if err != nil {
		b.Fatal(err)
	}
	env, err := abr.NewEnv(abr.DefaultEnvConfig(cfg.EvalVideo, reg[trace.DatasetExponential].Test))
	if err != nil {
		b.Fatal(err)
	}
	res := core.EvaluateGuard(env, guard, stats.NewRNG(99), 5)
	return core.MeanQoE(res)
}

// BenchmarkAblationTriggerL varies the consecutive-steps requirement l.
func BenchmarkAblationTriggerL(b *testing.B) {
	for _, l := range []int{1, 3, 5} {
		b.Run(map[int]string{1: "L1", 3: "L3", 5: "L5"}[l], func(b *testing.B) {
			var qoe float64
			for i := 0; i < b.N; i++ {
				qoe = guardedOODQoE(b, l, true)
			}
			b.ReportMetric(qoe, "ood_qoe")
		})
	}
}

// BenchmarkAblationRecovery contrasts latched defaulting (the paper)
// with returning to the learned policy when the uncertain streak breaks.
func BenchmarkAblationRecovery(b *testing.B) {
	for _, mode := range []struct {
		name    string
		latched bool
	}{{"Latched", true}, {"Recoverable", false}} {
		b.Run(mode.name, func(b *testing.B) {
			var qoe float64
			for i := 0; i < b.N; i++ {
				qoe = guardedOODQoE(b, 3, mode.latched)
			}
			b.ReportMetric(qoe, "ood_qoe")
		})
	}
}

// BenchmarkAblationWindowK contrasts the U_S sample window k = 5 vs 30
// on a synthetic distribution (the paper found synthetic data needs the
// longer window). This retrains the OC-SVM per variant.
func BenchmarkAblationWindowK(b *testing.B) {
	rng := stats.NewRNG(5)
	train := stats.Gamma{Shape: 2, Scale: 2}
	test := stats.Exponential{Scale: 1}
	series := func(s stats.Sampler, n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = s.Sample(rng)
		}
		return out
	}
	for _, k := range []int{5, 30} {
		b.Run(map[int]string{5: "K5", 30: "K30"}[k], func(b *testing.B) {
			cfg := core.StateSignalConfig{ThroughputWindow: 10, K: k}
			var detectRate float64
			for i := 0; i < b.N; i++ {
				model, err := osap.TrainOCSVM(core.BuildStateFeatures(series(train, 3000), cfg), osap.DefaultOCSVMConfig())
				if err != nil {
					b.Fatal(err)
				}
				sig, err := core.NewStateSignal(model, func(o []float64) float64 { return o[0] }, cfg)
				if err != nil {
					b.Fatal(err)
				}
				ood := 0
				n := 400
				for _, v := range series(test, n) {
					if sig.Observe([]float64{v}) > 0 {
						ood++
					}
				}
				detectRate = float64(ood) / float64(n)
			}
			b.ReportMetric(detectRate, "ood_detect_rate")
		})
	}
}

// BenchmarkAblationTrim contrasts the paper's keep-3-of-5 ensemble
// trimming with using all members, measuring the U_π score gap between
// in-distribution and OOD observations (larger is better for
// thresholding).
func BenchmarkAblationTrim(b *testing.B) {
	arts := trainedArtifacts(b)
	a := arts[trace.DatasetGamma22]
	cfg := experiments.QuickConfig()
	reg, err := trace.BuildRegistry(cfg.Registry)
	if err != nil {
		b.Fatal(err)
	}
	collectObs := func(ds string) [][]float64 {
		env, err := abr.NewEnv(abr.DefaultEnvConfig(cfg.EvalVideo, reg[ds].Test))
		if err != nil {
			b.Fatal(err)
		}
		var out [][]float64
		mdp.Rollout(env, rl.GreedyPolicy{P: a.Agents[0]}, stats.NewRNG(3), mdp.RolloutOptions{
			OnStep: func(_ int, tr mdp.Transition) { out = append(out, tr.Obs) },
		})
		return out
	}
	inObs := collectObs(trace.DatasetGamma22)
	oodObs := collectObs(trace.DatasetExponential)

	members := make([]mdp.Policy, len(a.Agents))
	for i, agent := range a.Agents {
		members[i] = agent
	}
	for _, variant := range []struct {
		name    string
		discard int
	}{{"Trimmed", 1}, {"All", 0}} {
		b.Run(variant.name, func(b *testing.B) {
			sig, err := core.NewPolicySignal(members, core.EnsembleConfig{Discard: variant.discard})
			if err != nil {
				b.Fatal(err)
			}
			var gap float64
			for i := 0; i < b.N; i++ {
				mean := func(obss [][]float64) float64 {
					var s float64
					for _, o := range obss {
						s += sig.Observe(o)
					}
					return s / float64(len(obss))
				}
				gap = mean(oodObs) - mean(inObs)
			}
			b.ReportMetric(gap, "score_gap")
		})
	}
}

// BenchmarkEmulatorAgreement measures the QoE divergence between the
// chunk-level simulator and the packet-level emulator on identical
// inputs — the fidelity check for the MahiMahi substitution.
func BenchmarkEmulatorAgreement(b *testing.B) {
	video := abr.SyntheticVideo(1, 48, 4)
	gen, err := trace.GeneratorFor(trace.DatasetNorway)
	if err != nil {
		b.Fatal(err)
	}
	tr := gen.Generate(stats.NewRNG(4), 600)
	bb := abr.NewBBPolicy(video.NumLevels())

	var gap float64
	for i := 0; i < b.N; i++ {
		simCfg := abr.DefaultEnvConfig(video, []*trace.Trace{tr})
		simCfg.RandomStart = false
		simCfg.PayloadEfficiency = 1
		sim, err := abr.NewEnv(simCfg)
		if err != nil {
			b.Fatal(err)
		}
		pktCfg := abr.DefaultEnvConfig(video, []*trace.Trace{tr})
		pktCfg.RandomStart = false
		lc := netem.DefaultLinkConfig(nil)
		lc.SlowStart = false
		pktCfg.Link = netem.PacketLink(lc)
		pkt, err := abr.NewEnv(pktCfg)
		if err != nil {
			b.Fatal(err)
		}
		s := mdp.Rollout(sim, bb, stats.NewRNG(1), mdp.RolloutOptions{}).TotalReward()
		p := mdp.Rollout(pkt, bb, stats.NewRNG(1), mdp.RolloutOptions{}).TotalReward()
		gap = s - p
	}
	b.ReportMetric(gap, "qoe_gap")
}

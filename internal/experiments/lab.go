package experiments

import (
	"fmt"
	"math"
	"sync"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/mdp"
	"osap/internal/ocsvm"
	"osap/internal/rl"
	"osap/internal/stats"
	"osap/internal/trace"
)

// flight is a single-flight cache slot: the first request for its key
// fills it once and concurrent requests wait on once for that result.
type flight[V any] struct {
	once sync.Once
	v    V
	err  error
}

// cached returns the value of m's slot for k, filling it on the first
// request. A failure is not kept: waiters on the slot see the error, but
// a later request retries.
func cached[K comparable, V any](l *Lab, m map[K]*flight[V], k K, fill func() (V, error)) (V, error) {
	l.mu.Lock()
	f, ok := m[k]
	if !ok {
		f = &flight[V]{}
		m[k] = f
	}
	l.mu.Unlock()

	f.once.Do(func() {
		if f.v, f.err = fill(); f.err != nil {
			l.mu.Lock()
			if m[k] == f {
				delete(m, k)
			}
			l.mu.Unlock()
		}
	})
	return f.v, f.err
}

// trainedSet is one dataset's artifacts and their networks packed once;
// every offline guard over the set runs on a Scratch of frozen.
type trainedSet struct {
	a      *Artifacts
	frozen *rl.Frozen
}

// Lab owns the datasets and three single-flight caches: the artifacts
// per dataset, the signal extension's RND models, and the episode table
// every figure and extension table is reduced from. Each entry is
// computed on first use, and concurrent requests for it wait for that
// one run instead of duplicating it. Lab is safe for concurrent use.
type Lab struct {
	cfg      Config
	datasets map[string]*trace.Dataset // every trace.DatasetNames name

	mu        sync.Mutex
	artifacts map[string]*flight[trainedSet]
	table     map[episodeKey]*flight[[]episode]
	rnd       map[string]*flight[*rl.RND] // extension: RND novelty models
	// Progress, if non-nil, receives human-readable progress lines.
	Progress func(string)
}

// NewLab validates the config and generates the datasets.
func NewLab(cfg Config) (*Lab, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ds, err := trace.BuildRegistry(cfg.Registry)
	if err != nil {
		return nil, err
	}
	return &Lab{
		cfg:       cfg,
		datasets:  ds,
		artifacts: make(map[string]*flight[trainedSet]),
		table:     make(map[episodeKey]*flight[[]episode]),
		rnd:       make(map[string]*flight[*rl.RND]),
	}, nil
}

// Dataset returns a generated dataset by name.
func (l *Lab) Dataset(name string) (*trace.Dataset, error) {
	d, ok := l.datasets[name]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown dataset %q", name)
	}
	return d, nil
}

func (l *Lab) logf(format string, args ...any) {
	if l.Progress != nil {
		l.Progress(fmt.Sprintf(format, args...))
	}
}

// envFactory builds environment factories over a trace pool.
func (l *Lab) envFactory(video *abr.Video, traces []*trace.Trace) rl.EnvFactory {
	return func() mdp.Env { return l.newEnv(video, traces) }
}

// newEnv builds an environment over a trace pool.
func (l *Lab) newEnv(video *abr.Video, traces []*trace.Trace) *abr.Env {
	env, err := abr.NewEnv(abr.DefaultEnvConfig(video, traces))
	if err != nil {
		panic(err) // config validated at Lab construction
	}
	return env
}

// Artifacts trains (or returns cached) artifacts for a training
// dataset. Concurrent callers for the same dataset share one training
// run: the first claims the cache slot, the rest wait for its result.
func (l *Lab) Artifacts(dataset string) (*Artifacts, error) {
	a, _, err := l.trained(dataset)
	return a, err
}

// trained is Artifacts with the artifacts' packed networks.
func (l *Lab) trained(dataset string) (*Artifacts, *rl.Frozen, error) {
	t, err := cached(l, l.artifacts, dataset, func() (trainedSet, error) {
		a, frozen, err := l.train(dataset)
		return trainedSet{a, frozen}, err
	})
	return t.a, t.frozen, err
}

// train runs the full per-dataset pipeline.
func (l *Lab) train(dataset string) (*Artifacts, *rl.Frozen, error) {
	d, err := l.Dataset(dataset)
	if err != nil {
		return nil, nil, err
	}
	seed := l.cfg.Seed ^ hashString(dataset)
	factory := l.envFactory(l.cfg.TrainVideo, d.Train)

	// 1. Agent ensemble (member 0 deployed).
	l.logf("[%s] training %d-agent ensemble (%d epochs each)", dataset, l.cfg.EnsembleSize, l.cfg.Train.Epochs)
	trainCfg := l.cfg.Train
	trainCfg.Seed = seed
	agents, err := rl.TrainEnsemble(factory, trainCfg, l.cfg.EnsembleSize)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: agent ensemble: %w", dataset, err)
	}
	if l.cfg.SelectBestAgent {
		l.selectBestAgent(agents, d, seed)
	}

	// 2. Value-function ensemble, trained on the deployed agent's own
	// interaction data (§2.4). Its rollouts run across goroutines, so
	// they take a policy those can share.
	l.logf("[%s] training %d-member value ensemble", dataset, l.cfg.EnsembleSize)
	valueCfg := l.cfg.Value
	valueCfg.Seed = seed ^ 0xBEEF
	valueCfg.InitSeed = seed ^ 0xFACE
	valueNets, err := rl.TrainValueEnsemble(factory, rl.NewSharedPolicy(agents[0]), valueCfg, l.cfg.EnsembleSize)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: value ensemble: %w", dataset, err)
	}
	// The networks are final: pack them once for everything below and
	// every guard built over them later.
	frozen, err := rl.Freeze(agents, valueNets)
	if err != nil {
		return nil, nil, err
	}

	// 3. OC-SVM on windowed throughput features of the deployed agent's
	// training-trace rollouts.
	l.logf("[%s] training OC-SVM novelty detector", dataset)
	rec := l.cfg.guardRecord(dataset)
	feats := l.collectStateFeatures(d, frozen.NewScratch().Greedy(), rec.StateSignal(), seed)
	ocsvmCfg := l.cfg.OCSVM
	ocsvmCfg.Seed = seed
	model, err := ocsvm.Train(feats, ocsvmCfg)
	if err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: ocsvm: %w", dataset, err)
	}

	a := &Artifacts{
		Agents:      agents,
		ValueNets:   valueNets,
		Calibration: Calibration{Dataset: dataset, OCSVM: model, Record: rec},
	}

	// 4. ND's validation QoE is the calibration target; 5. α for U_π and
	// U_V is calibrated to match it in-distribution (§2.5), each
	// candidate a copy of a carrying it.
	valQoE := func(c *Calibration, scheme string) (float64, error) {
		g, err := NewGuard(c, scheme, frozen.NewScratch(), Probation{})
		if err != nil {
			return 0, err
		}
		return meanOf(l.play(d.Val, g, seed^0xCA11B, l.cfg.CalibEpisodes)).QoE, nil
	}
	if a.NDValQoE, err = valQoE(&a.Calibration, SchemeND); err != nil {
		return nil, nil, err
	}
	l.logf("[%s] ND validation QoE = %.2f (calibration target)", dataset, a.NDValQoE)
	calibrate := func(scheme string) (float64, Provenance, error) {
		res, err := core.Calibrate(func(alpha float64) float64 {
			q, err := valQoE(a.withAlpha(scheme, alpha), scheme)
			if err != nil {
				panic(err) // inputs fixed; cannot fail after ND's success
			}
			return q
		}, a.NDValQoE, 1e-6, 1e2, l.cfg.CalibIters)
		return res.Threshold, Provenance{Rule: RuleQoEMatched, Target: a.NDValQoE, Evals: res.Evaluations, Bound: res.Bound}, err
	}
	if a.AlphaPi, a.Record.AlphaPi, err = calibrate(SchemeAEns); err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: calibrate U_pi: %w", dataset, err)
	}
	if a.AlphaV, a.Record.AlphaV, err = calibrate(SchemeVEns); err != nil {
		return nil, nil, fmt.Errorf("experiments: %s: calibrate U_V: %w", dataset, err)
	}
	l.logf("[%s] calibrated thresholds: alpha_pi=%.3g %+v alpha_V=%.3g %+v", dataset,
		a.AlphaPi, a.Record.AlphaPi, a.AlphaV, a.Record.AlphaV)
	return a, frozen, nil
}

// selectBestAgent reorders the ensemble so that the member with the
// best greedy validation QoE sits at index 0 (the deployed slot). The
// ensemble membership itself is unchanged, so U_π still sees all
// members.
func (l *Lab) selectBestAgent(agents []*rl.ActorCritic, d *trace.Dataset, seed uint64) {
	best, bestQoE := 0, math.Inf(-1)
	for i, a := range agents {
		qoe := meanOf(l.play(d.Val, rl.NewGreedyInference(a), seed^0xBE57, l.cfg.CalibEpisodes)).QoE
		if qoe > bestQoE {
			best, bestQoE = i, qoe
		}
	}
	agents[0], agents[best] = agents[best], agents[0]
	l.logf("[%s] deploying ensemble member %d (val QoE %.2f)", d.Name, best, bestQoE)
}

// collectStateFeatures rolls the deployed policy over training traces
// and extracts the U_S training features from the measured per-chunk
// throughputs.
func (l *Lab) collectStateFeatures(d *trace.Dataset, policy mdp.Policy, stateCfg core.StateSignalConfig, seed uint64) [][]float64 {
	env := l.newEnv(l.cfg.TrainVideo, d.Train)
	rng := stats.NewRNG(seed ^ 0x0C57)
	var feats [][]float64
	for ep := 0; ep < l.cfg.OCSVMEpisodes; ep++ {
		var thr []float64
		mdp.Rollout(env, policy, rng, mdp.RolloutOptions{
			OnStep: func(_ int, tr mdp.Transition) {
				// The throughput measured for the downloaded chunk is
				// part of the *next* observation; reconstruct it from
				// the env's last chunk record.
				thr = append(thr, env.LastChunk().ThroughputMbps)
			},
		})
		feats = append(feats, core.BuildStateFeatures(thr, stateCfg)...)
	}
	return feats
}

// StateFeatures re-runs the U_S training-feature collection for a
// trained artifact set: the deployed member rolled over the dataset's
// training traces with the same seed derivation as train(), yielding
// exactly the features the OC-SVM was fit on, under a's record.
// osap-train -learn-log uses it to export an experience-log bootstrap
// for the serving-side online learner.
func (l *Lab) StateFeatures(a *Artifacts) ([][]float64, error) {
	d, err := l.Dataset(a.Dataset)
	if err != nil {
		return nil, err
	}
	seed := l.cfg.Seed ^ hashString(a.Dataset)
	deployed := rl.NewGreedyInference(a.Agents[0])
	return l.collectStateFeatures(d, deployed, a.Record.StateSignal(), seed), nil
}

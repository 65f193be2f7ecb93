package main

import (
	"fmt"
	"math"
	"time"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/mdp"
	"osap/internal/serve"
	"osap/internal/stats"
	"osap/internal/trace"
)

// artifactDataset is the training distribution every run serves.
const artifactDataset = trace.DatasetNorway

// labConfig is the deterministic training recipe: the quick-scale lab
// with the paper's ensemble shape (5 members trimmed to 3).
func labConfig() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.EnsembleSize = 5
	cfg.Trim = core.DefaultEnsembleConfig()
	return cfg
}

// guardConfig is the serving guard configuration, shared by the child
// server and the parent's oracle so both build identical guards.
func guardConfig() serve.GuardConfig {
	cfg := labConfig()
	gc := serve.GuardConfig{TriggerL: cfg.TriggerL, Trim: cfg.Trim}
	gc.StateSignal.ThroughputWindow = cfg.ThroughputWindow
	gc.StateSignal.K = cfg.StateKEmpirical
	return gc
}

// newFactory builds guards from the artifacts under guardConfig.
func newFactory(arts *experiments.Artifacts) (*serve.GuardFactory, error) {
	return serve.NewGuardFactory(arts, guardConfig())
}

// trainArtifacts trains the served artifact set. Every seed inside is
// fixed by labConfig, so two calls return bit-identical artifacts.
func trainArtifacts() (*experiments.Artifacts, error) {
	lab, err := experiments.NewLab(labConfig())
	if err != nil {
		return nil, err
	}
	return lab.Artifacts(artifactDataset)
}

// Tape kinds: which trace distribution an observation tape was
// recorded on, relative to the Norway-trained artifacts.
const (
	kindIn  = 0 // Norway traces: in-distribution
	kindOOD = 1 // Belgium traces: out-of-distribution
)

var kindNames = [2]string{"in", "ood"}

// tape is one pre-recorded episode of observations. The server only
// ever sees tapes, so what it receives never depends on what it
// answers.
type tape struct {
	kind int
	obs  [][]float64
}

// makeTapes records n observation tapes of length steps by running the
// ABR environment under the buffer-based policy: even tapes on Norway
// traces, odd tapes on Belgium traces, all derived from seed.
func makeTapes(seed uint64, n, steps int) ([]tape, error) {
	video := abr.SyntheticVideo(0xE14100, 48, 4).Repeat((steps + 47) / 48)
	const tracesPer, traceSec = 8, 600
	pools := [2][]*trace.Trace{}
	for k, gen := range [2]trace.Generator{trace.Norway3G(), trace.Belgium4G()} {
		d := trace.GenerateDataset(gen, seed+uint64(k)*0x9e3779b97f4a7c15, tracesPer, traceSec)
		pools[k] = append(append([]*trace.Trace(nil), d.Train...), d.Test...)
	}
	bb := abr.NewBBPolicy(video.NumLevels())
	rng := stats.NewRNG(seed ^ 0x7a9e5)
	tapes := make([]tape, n)
	for i := range tapes {
		kind := i % 2
		env, err := abr.NewEnv(abr.DefaultEnvConfig(video, pools[kind]))
		if err != nil {
			return nil, fmt.Errorf("tape %d: %w", i, err)
		}
		tp := tape{kind: kind, obs: make([][]float64, 0, steps)}
		obs := env.Reset(rng.Fork())
		for s := 0; s < steps; s++ {
			tp.obs = append(tp.obs, append([]float64(nil), obs...))
			next, _, done := env.Step(mdp.ArgmaxAction(bb.Probs(obs)))
			if done && s+1 < steps {
				return nil, fmt.Errorf("tape %d: episode ended after %d of %d steps", i, s+1, steps)
			}
			obs = next
		}
		tapes[i] = tp
	}
	return tapes, nil
}

// Scheme indices, in the order churn round-robins them.
var schemeNames = [3]string{serve.SchemeND, serve.SchemeAEns, serve.SchemeVEns}

var schemeTokens = [3]string{"nd", "aens", "vens"}

func schemeIndex(name string) int {
	for i, s := range schemeNames {
		if s == name {
			return i
		}
	}
	panic("bench: unknown scheme " + name)
}

// refDecision is the sequential reference for one (scheme, tape, step):
// exactly the fields a Decision frame or a step response carries.
type refDecision struct {
	action    uint16
	fallback  bool
	fired     bool
	step      uint32
	scoreBits uint64
}

// oracle holds the reference decisions and the traffic facts derived
// while computing them.
type oracle struct {
	// ref[scheme][tape][step]; nil for schemes the run does not use.
	ref [3][][]refDecision
	// Per scheme × tape kind: decisions, defaulted decisions, episodes
	// whose trigger fired. Exact for a seed.
	decisions [3][2]int
	fallbacks [3][2]int
	firings   [3][2]int
	// decideNs is the mean sequential Guard.Decide time per scheme.
	decideNs [3]float64
}

// buildOracle computes the reference with a plain sequential
// NewGuard + Decide loop — a fresh guard per tape, one episode each.
// Batched serving is pinned bit-identical to this path, so the
// reference holds for any batch composition under load.
func buildOracle(f *serve.GuardFactory, tapes []tape, schemes []string) (*oracle, error) {
	o := &oracle{}
	for _, name := range schemes {
		si := schemeIndex(name)
		o.ref[si] = make([][]refDecision, len(tapes))
		var elapsed time.Duration
		steps := 0
		for ti, tp := range tapes {
			g, err := f.NewGuard(name)
			if err != nil {
				return nil, err
			}
			refs := make([]refDecision, len(tp.obs))
			start := time.Now()
			for s, obs := range tp.obs {
				d := g.Decide(obs)
				refs[s] = refDecision{
					action:    uint16(mdp.ArgmaxAction(d.Probs)),
					fallback:  d.UsedDefault,
					fired:     d.Fired,
					step:      uint32(d.Step),
					scoreBits: math.Float64bits(d.Score),
				}
			}
			elapsed += time.Since(start)
			steps += len(refs)
			o.ref[si][ti] = refs
			o.decisions[si][tp.kind] += len(refs)
			for _, r := range refs {
				if r.fallback {
					o.fallbacks[si][tp.kind]++
				}
			}
			if len(refs) > 0 && refs[len(refs)-1].fired {
				o.firings[si][tp.kind]++
			}
		}
		o.decideNs[si] = float64(elapsed.Nanoseconds()) / float64(steps)
	}
	return o, nil
}

// check compares one served decision with the reference.
func (r refDecision) check(action int, fallback, fired, demoted bool, step uint32, score float64) bool {
	return !demoted && int(r.action) == action && r.fallback == fallback && r.fired == fired &&
		r.step == step && r.scoreBits == math.Float64bits(score)
}

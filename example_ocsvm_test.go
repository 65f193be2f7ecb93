//go:build amd64

// The outputs below are pinned on amd64, as the figures are. Both
// examples score with the OC-SVM's RBF kernel and quickstart trains
// through a softmax, so their digits go through math.Exp, which arm64
// and s390x implement in their own assembly; arm64 also fuses
// multiply-adds. The portable code paths (GOARCH=386) print the same
// bytes as amd64.

package osap_test

import (
	"fmt"
	"log"

	"osap"
	"osap/internal/abr"
	"osap/internal/mdp"
	"osap/internal/rl"
	"osap/internal/stats"
	"osap/internal/trace"
)

// Wrap a learned ABR policy with online safety assurance.
//
// The example trains a tiny Pensieve-style agent on one network
// distribution (Gamma(2,2) throughput), builds the paper's U_S
// (novelty-detection) safety net around it, and streams both over the
// training world and over a very different network (Exponential(1)).
// At this small scale the guard does not tell the two worlds apart: it
// defaults to the Buffer-Based heuristic in 10 of 10 episodes in both.
// Out of distribution that saves the session from the agent's collapse;
// in distribution it costs the agent's edge over Buffer-Based.
//
// Run:
//
//	go test -run Example_quickstart -v .
func Example_quickstart() {
	rng := osap.NewRNG(42)
	video := abr.SyntheticVideo(1, 48, 4)

	// 1. Two worlds: train on Gamma(2,2) throughput, deploy on
	// Exponential(1).
	trainGen, _ := trace.GeneratorFor(trace.DatasetGamma22)
	deployGen, _ := trace.GeneratorFor(trace.DatasetExponential)
	trainTraces := genTraces(trainGen, rng, 16)
	deployTraces := genTraces(deployGen, rng, 8)

	// 2. Train a small Pensieve-style agent on the training world.
	fmt.Println("training a small Pensieve-style agent on Gamma(2,2) traces...")
	trainCfg := rl.DefaultTrainConfig()
	trainCfg.Epochs = 150
	trainCfg.RolloutsPerEpoch = 12
	agent, _, err := rl.Train(func() mdp.Env {
		env, err := abr.NewEnv(abr.DefaultEnvConfig(video, trainTraces))
		if err != nil {
			panic(err)
		}
		return env
	}, trainCfg)
	if err != nil {
		log.Fatal(err)
	}
	learned := rl.GreedyPolicy{P: agent}

	// 3. Build the U_S safety net: an OC-SVM over windowed throughput
	// features collected from the agent's own training rollouts.
	fmt.Println("fitting the one-class SVM novelty detector...")
	sigCfg := osap.DefaultStateSignalConfig()
	var features [][]float64
	for ep := 0; ep < 8; ep++ {
		env, err := abr.NewEnv(abr.DefaultEnvConfig(video, trainTraces))
		if err != nil {
			log.Fatal(err)
		}
		// Collect the per-chunk throughputs of one rollout with a hook.
		var thr []float64
		mdp.Rollout(env, learned, rng, mdp.RolloutOptions{
			OnStep: func(_ int, _ mdp.Transition) {
				thr = append(thr, env.LastChunk().ThroughputMbps)
			},
		})
		features = append(features, osap.BuildStateFeatures(thr, sigCfg)...)
	}
	model, err := osap.TrainOCSVM(features, osap.DefaultOCSVMConfig())
	if err != nil {
		log.Fatal(err)
	}
	signal, err := osap.NewStateSignal(model, abr.LastThroughputMbps, sigCfg)
	if err != nil {
		log.Fatal(err)
	}

	// 4. Assemble the guard: learned policy + BB fallback + signal +
	// "3 consecutive OOD steps" trigger.
	guard, err := osap.NewGuard(
		learned,
		abr.NewBBPolicy(video.NumLevels()),
		signal,
		osap.NewTrigger(osap.StateTriggerConfig()),
	)
	if err != nil {
		log.Fatal(err)
	}

	// 5. Stream in both worlds and compare.
	for _, world := range []struct {
		name   string
		traces []*trace.Trace
	}{
		{"in-distribution (Gamma(2,2))", trainTraces},
		{"out-of-distribution (Exponential(1))", deployTraces},
	} {
		env, err := abr.NewEnv(abr.DefaultEnvConfig(video, world.traces))
		if err != nil {
			log.Fatal(err)
		}
		vanilla := meanQoE(env, learned, osap.NewRNG(7), 10)
		bb := meanQoE(env, abr.NewBBPolicy(video.NumLevels()), osap.NewRNG(7), 10)
		results := osap.EvaluateGuard(env, guard, osap.NewRNG(7), 10)
		guarded := osap.MeanQoE(results)

		switched := 0
		for _, r := range results {
			if r.SwitchStep >= 0 {
				switched++
			}
		}
		fmt.Printf("\n%s:\n", world.name)
		fmt.Printf("  vanilla Pensieve QoE: %8.1f\n", vanilla)
		fmt.Printf("  BB heuristic QoE:     %8.1f\n", bb)
		fmt.Printf("  guarded Pensieve QoE: %8.1f (defaulted in %d/10 episodes)\n",
			guarded, switched)
	}

	// Output:
	// training a small Pensieve-style agent on Gamma(2,2) traces...
	// fitting the one-class SVM novelty detector...
	//
	// in-distribution (Gamma(2,2)):
	//   vanilla Pensieve QoE:    143.8
	//   BB heuristic QoE:        119.2
	//   guarded Pensieve QoE:    113.9 (defaulted in 10/10 episodes)
	//
	// out-of-distribution (Exponential(1)):
	//   vanilla Pensieve QoE:  -2469.3
	//   BB heuristic QoE:          5.9
	//   guarded Pensieve QoE:   -222.8 (defaulted in 10/10 episodes)
}

// meanQoE plays episodes of policy on env and averages their total QoE.
func meanQoE(env osap.Env, policy osap.Policy, rng *osap.RNG, episodes int) float64 {
	var sum float64
	for i := 0; i < episodes; i++ {
		sum += osap.Rollout(env, policy, rng, 0).TotalReward()
	}
	return sum / float64(episodes)
}

func genTraces(gen trace.Generator, rng *stats.RNG, n int) []*trace.Trace {
	out := make([]*trace.Trace, n)
	for i := range out {
		out[i] = gen.Generate(rng, 400)
	}
	return out
}

// A standalone out-of-distribution monitor for a throughput stream,
// built from the U_S components (windowed features + one-class SVM +
// consecutive-trigger).
//
// The monitor is fitted on Gamma(2,2) throughput. It then watches a
// stream that drifts through three phases — in-distribution, a gradual
// mean shift, and a regime change to Exponential(1) — printing how many
// windows of each phase score out of distribution and where the trigger
// would default.
func Example_oodMonitor() {
	rng := osap.NewRNG(2020)
	cfg := osap.StateSignalConfig{ThroughputWindow: 10, K: 5}

	// Fit on the reference distribution.
	ref := stats.Gamma{Shape: 2, Scale: 2}
	var calib []float64
	for i := 0; i < 5000; i++ {
		calib = append(calib, ref.Sample(rng))
	}
	ocfg := osap.DefaultOCSVMConfig()
	ocfg.Nu = 0.02 // keep the in-distribution false-positive rate low
	model, err := osap.TrainOCSVM(osap.BuildStateFeatures(calib, cfg), ocfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fitted OC-SVM: %d support vectors over %d-dim features\n\n",
		model.NumSVs(), cfg.FeatureDim())

	// The monitored stream passes the sample through as a 1-element
	// "observation".
	signal, err := osap.NewStateSignal(model, func(obs []float64) float64 { return obs[0] }, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Overlapping windows mean one outlier sample contaminates several
	// consecutive windows, so a standalone monitor wants a longer
	// persistence requirement than the paper's in-loop l=3.
	tcfg := osap.StateTriggerConfig()
	tcfg.L = 12
	trigger := osap.NewTrigger(tcfg)

	phases := []struct {
		name   string
		n      int
		sample func(*stats.RNG) float64
	}{
		{"phase 1: in-distribution Gamma(2,2)", 120, ref.Sample},
		{"phase 2: mean drift (Gamma(2,2) + 3)", 120, func(r *stats.RNG) float64 { return ref.Sample(r) + 3 }},
		{"phase 3: regime change to Exponential(1)", 120, stats.Exponential{Scale: 1}.Sample},
	}

	step := 0
	firedAt := -1
	for _, ph := range phases {
		oodCount := 0
		for i := 0; i < ph.n; i++ {
			score := signal.Observe([]float64{ph.sample(rng)})
			if score > tcfg.Threshold {
				oodCount++
			}
			if trigger.Step(score) && firedAt < 0 {
				firedAt = step
			}
			step++
		}
		fmt.Printf("%-44s OOD windows: %3d/%d\n", ph.name, oodCount, ph.n)
	}
	if firedAt >= 0 {
		fmt.Printf("\ntrigger fired at stream position %d (phase %d)\n", firedAt, firedAt/120+1)
	} else {
		fmt.Println("\ntrigger never fired")
	}

	// Output:
	// fitted OC-SVM: 34 support vectors over 10-dim features
	//
	// phase 1: in-distribution Gamma(2,2)          OOD windows:   7/120
	// phase 2: mean drift (Gamma(2,2) + 3)         OOD windows: 111/120
	// phase 3: regime change to Exponential(1)     OOD windows: 120/120
	//
	// trigger fired at stream position 140 (phase 2)
}

package osap_test

import (
	"testing"

	"osap"
	"osap/internal/abr"
	"osap/internal/experiments"
	"osap/internal/netem"
	"osap/internal/rl"
	"osap/internal/stats"
	"osap/internal/trace"
)

// TestGuardOverPacketEmulator composes the full stack at packet
// granularity: quick-trained artifacts drive an ND guard streaming
// through the MahiMahi-style emulated environment (not the analytic
// simulator they were trained on). The guard must function and default
// under a distribution shift.
func TestGuardOverPacketEmulator(t *testing.T) {
	cfg := experiments.QuickConfig()
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := lab.Artifacts(trace.DatasetGamma22)
	if err != nil {
		t.Fatal(err)
	}

	sigCfg := osap.StateSignalConfig{ThroughputWindow: cfg.ThroughputWindow, K: a.OCSVM.Dim / 2}
	sig, err := osap.NewStateSignal(a.OCSVM, abr.LastThroughputMbps, sigCfg)
	if err != nil {
		t.Fatal(err)
	}
	guard, err := osap.NewGuard(
		rl.GreedyPolicy{P: a.Agents[0]},
		abr.NewBBPolicy(cfg.EvalVideo.NumLevels()),
		sig,
		osap.NewTrigger(osap.StateTriggerConfig()),
	)
	if err != nil {
		t.Fatal(err)
	}

	packetEnv := func(gen trace.Generator) *abr.Env {
		rng := stats.NewRNG(7)
		traces := []*trace.Trace{gen.Generate(rng, 300), gen.Generate(rng, 300)}
		ec := abr.DefaultEnvConfig(cfg.EvalVideo, traces)
		ec.Link = netem.PacketLink(netem.DefaultLinkConfig(nil))
		env, err := abr.NewEnv(ec)
		if err != nil {
			t.Fatal(err)
		}
		return env
	}

	// In-distribution (the guard's training distribution): episodes
	// complete with finite QoE.
	inGen, err := trace.GeneratorFor(trace.DatasetGamma22)
	if err != nil {
		t.Fatal(err)
	}
	inRes := osap.EvaluateGuard(packetEnv(inGen), guard, osap.NewRNG(1), 3)
	for _, r := range inRes {
		if r.Steps != cfg.EvalVideo.NumChunks() {
			t.Fatalf("episode ran %d steps, want %d", r.Steps, cfg.EvalVideo.NumChunks())
		}
	}

	// Distribution shift on the packet backend: the guard should
	// default in most episodes.
	outGen, err := trace.GeneratorFor(trace.DatasetExponential)
	if err != nil {
		t.Fatal(err)
	}
	outRes := osap.EvaluateGuard(packetEnv(outGen), guard, osap.NewRNG(2), 3)
	switched := 0
	for _, r := range outRes {
		if r.SwitchStep >= 0 {
			switched++
		}
	}
	if switched == 0 {
		t.Error("guard never defaulted under distribution shift on the packet backend")
	}
	// The guarded OOD QoE must beat vanilla Pensieve's on the same
	// environment and seeds.
	vanilla := stats.Mean(evalPolicy(t, packetEnv(outGen), rl.GreedyPolicy{P: a.Agents[0]}, 3))
	if osap.MeanQoE(outRes) <= vanilla {
		t.Errorf("guard (%v) did not improve on vanilla (%v) OOD at packet level",
			osap.MeanQoE(outRes), vanilla)
	}
}

func evalPolicy(t *testing.T, env osap.Env, p osap.Policy, episodes int) []float64 {
	t.Helper()
	rng := osap.NewRNG(2)
	out := make([]float64, episodes)
	for i := range out {
		out[i] = osap.Rollout(env, p, rng, 0).TotalReward()
	}
	return out
}

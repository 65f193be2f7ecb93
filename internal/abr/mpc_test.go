package abr

import (
	"math"
	"testing"

	"osap/internal/mdp"
	"osap/internal/stats"
	"osap/internal/trace"
)

func TestMPCPicksSustainableBitrate(t *testing.T) {
	v := flatVideo(48)
	mpc := NewMPCPolicy(v)
	mpc.Robust = false // pure harmonic-mean prediction for determinism

	// Moderate buffer, steady 2 Mbps history: overdrafting above
	// 1850 kbps (level 3) rebuffers within the horizon, so MPC should
	// settle near but below the link rate.
	obs := obsWithThroughput(2.0)
	for ti := 0; ti < HistoryLen; ti++ {
		obs[obsIndex(rowBuffer, ti)] = 8.0 / bufferNorm
		obs[obsIndex(rowRemain, ti)] = 0.5
	}
	level := mpc.Decide(obs)
	if level < 2 || level > 3 {
		t.Errorf("MPC at 2 Mbps with 8 s buffer chose level %d, want 2–3", level)
	}
}

func TestMPCConservativeWhenBufferLow(t *testing.T) {
	v := flatVideo(48)
	mpc := NewMPCPolicy(v)
	mpc.Robust = false

	rich := obsWithThroughput(2.0)
	poor := obsWithThroughput(2.0)
	for ti := 0; ti < HistoryLen; ti++ {
		rich[obsIndex(rowBuffer, ti)] = 20.0 / bufferNorm
		poor[obsIndex(rowBuffer, ti)] = 0.5 / bufferNorm
		rich[obsIndex(rowRemain, ti)] = 0.5
		poor[obsIndex(rowRemain, ti)] = 0.5
	}
	if lr, lp := mpc.Decide(rich), mpc.Decide(poor); lp > lr {
		t.Errorf("MPC with empty buffer chose %d > %d with deep buffer", lp, lr)
	}
}

func TestMPCEmptyHistoryPicksLowest(t *testing.T) {
	v := flatVideo(48)
	mpc := NewMPCPolicy(v)
	probs := mpc.Probs(make([]float64, ObsDim))
	if probs[0] != 1 {
		t.Errorf("MPC with no history = %v, want lowest level", probs)
	}
}

func TestMPCRobustDiscountsAfterError(t *testing.T) {
	v := flatVideo(48)
	mpc := NewMPCPolicy(v)
	// Prime a prediction at 4 Mbps, then reveal reality at 1 Mbps: the
	// next prediction must be discounted below the plain harmonic mean.
	mpc.predictThroughput(obsWithThroughput(4.0))
	discounted := mpc.predictThroughput(obsWithThroughput(1.0))
	plain := (&MPCPolicy{Video: v, Horizon: 5}).predictThroughput(obsWithThroughput(1.0))
	if discounted >= plain {
		t.Errorf("robust prediction %v not discounted below plain %v", discounted, plain)
	}
}

func TestMPCBeatsRandomOnRealTraces(t *testing.T) {
	v := flatVideo(48)
	gen, err := trace.GeneratorFor(trace.DatasetNorway)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(3)
	traces := []*trace.Trace{gen.Generate(rng, 600), gen.Generate(rng, 600)}
	run := func(p mdp.Policy) float64 {
		env := testEnv(t, v, traces[0], 0.08)
		return meanQoE(env, p, stats.NewRNG(5), 8)
	}
	mpc := NewMPCPolicy(v)
	mpcQoE := run(mpc)
	rndQoE := run(RandomPolicy{Levels: v.NumLevels()})
	if mpcQoE <= rndQoE {
		t.Errorf("MPC (%v) did not beat Random (%v)", mpcQoE, rndQoE)
	}
}

func TestMPCHorizonClampsNearEnd(t *testing.T) {
	v := flatVideo(3)
	mpc := NewMPCPolicy(v)
	obs := obsWithThroughput(2.0)
	// Remaining fraction ≈ 1/3 → chunk index 2 (the last chunk).
	for ti := 0; ti < HistoryLen; ti++ {
		obs[obsIndex(rowRemain, ti)] = 1.0 / 3
		obs[obsIndex(rowBuffer, ti)] = 1.0
	}
	// Must not panic despite horizon > remaining chunks.
	_ = mpc.Decide(obs)
}

func TestOracleValidation(t *testing.T) {
	v := flatVideo(4)
	tr := constTrace(2, 100)
	if _, err := OfflineOptimalQoE(DefaultEnvConfig(nil, nil), 0, tr, 0); err == nil {
		t.Error("missing video accepted")
	}
	if _, err := OfflineOptimalQoE(DefaultEnvConfig(v, nil), 0, &trace.Trace{}, 0); err == nil {
		t.Error("empty trace accepted")
	}
	linked := DefaultEnvConfig(v, nil)
	linked.Link = func(*trace.Trace, float64) (Link, error) { return &analyticLink{}, nil }
	if _, err := OfflineOptimalQoE(linked, 0, tr, 0); err == nil {
		t.Error("config with a Link accepted")
	}
}

func TestOracleExactOnTinyInstance(t *testing.T) {
	// 2 chunks, constant link: brute-force all 36 plans and compare.
	v := flatVideo(2)
	tr := constTrace(2, 100)
	cfg := EnvConfig{Video: v, PayloadEfficiency: 1, BufferCapSec: 60}

	brute := math.Inf(-1)
	for a := 0; a < v.NumLevels(); a++ {
		for b := 0; b < v.NumLevels(); b++ {
			s := oracleState{link: analyticLink{tr: tr, eff: 1}, lastLevel: -1}
			s = advance(&cfg, s, 0, a)
			s = advance(&cfg, s, 1, b)
			if s.qoe > brute {
				brute = s.qoe
			}
		}
	}
	got, err := OfflineOptimalQoE(cfg, 4096, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-brute) > 1e-9 {
		t.Errorf("oracle = %v, brute force = %v", got, brute)
	}
}

func TestOracleUpperBoundsOnlinePolicies(t *testing.T) {
	v := flatVideo(24)
	gen, err := trace.GeneratorFor(trace.DatasetNorway)
	if err != nil {
		t.Fatal(err)
	}
	tr := gen.Generate(stats.NewRNG(9), 600)

	envCfg := DefaultEnvConfig(v, []*trace.Trace{tr})
	envCfg.RandomStart = false
	envCfg.PayloadEfficiency = 1
	envCfg.RTTSec = 0
	env, err := NewEnv(envCfg)
	if err != nil {
		t.Fatal(err)
	}
	oracleQoE, err := OfflineOptimalQoE(envCfg, 512, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []mdp.Policy{
		NewBBPolicy(v.NumLevels()),
		NewMPCPolicy(v),
		NewRateBasedPolicy(v.BitratesKbps),
	} {
		online := mdp.Rollout(env, p, stats.NewRNG(1), mdp.RolloutOptions{}).TotalReward()
		if online > oracleQoE+1e-6 {
			t.Errorf("online policy %T (%v) beat the oracle (%v)", p, online, oracleQoE)
		}
	}
}

func TestOracleMonotoneInBeam(t *testing.T) {
	v := flatVideo(16)
	gen, _ := trace.GeneratorFor(trace.DatasetGamma22)
	tr := gen.Generate(stats.NewRNG(2), 300)
	cfg := EnvConfig{Video: v, PayloadEfficiency: 1, BufferCapSec: 60}

	small, err := OfflineOptimalQoE(cfg, 8, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	large, err := OfflineOptimalQoE(cfg, 512, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if large < small-1e-9 {
		t.Errorf("larger beam found worse plan: %v < %v", large, small)
	}
}

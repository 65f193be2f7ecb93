package cc

import (
	"math"
	"testing"

	"osap/internal/mdp"
	"osap/internal/rl"
	"osap/internal/stats"
	"osap/internal/trace"
)

func constTrace(mbps float64, secs int) *trace.Trace {
	tr := &trace.Trace{Name: "const"}
	for i := 0; i < secs; i++ {
		tr.Mbps = append(tr.Mbps, mbps)
	}
	return tr
}

func testEnv(t *testing.T, tr *trace.Trace) *Env {
	t.Helper()
	cfg := DefaultConfig([]*trace.Trace{tr})
	cfg.RandomStart = false
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvValidation(t *testing.T) {
	good := []*trace.Trace{constTrace(4, 60)}
	cases := map[string]func(*Config){
		"no traces":  func(c *Config) { c.Traces = nil },
		"zero trace": func(c *Config) { c.Traces = []*trace.Trace{constTrace(0, 10)} },
		"bad rtt":    func(c *Config) { c.BaseRTTSec = 0 },
		"bad mi":     func(c *Config) { c.MISec = 0 },
		"bad steps":  func(c *Config) { c.Steps = 0 },
		"bad rates":  func(c *Config) { c.MinRateMbps = 5; c.MaxRateMbps = 1 },
		"bad queue":  func(c *Config) { c.QueueBDP = 0 },
	}
	for name, mutate := range cases {
		cfg := DefaultConfig(good)
		mutate(&cfg)
		if _, err := NewEnv(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := NewEnv(DefaultConfig(good)); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestUnderloadNoQueueing(t *testing.T) {
	env := testEnv(t, constTrace(8, 200))
	env.Reset(stats.NewRNG(1))
	// Hold the (low) initial rate: no queue, RTT = base, no loss.
	for i := 0; i < 5; i++ {
		env.Step(actHold)
	}
	mi := env.last
	if math.Abs(mi.RTTSec-0.05) > 1e-9 {
		t.Errorf("underload RTT = %v, want base 0.05", mi.RTTSec)
	}
	if mi.LossRate != 0 {
		t.Errorf("underload loss = %v", mi.LossRate)
	}
	if math.Abs(mi.ThroughputMbps-mi.RateMbps) > 1e-9 {
		t.Errorf("underload throughput %v != rate %v", mi.ThroughputMbps, mi.RateMbps)
	}
}

func TestOverloadBuildsQueueThenLoss(t *testing.T) {
	env := testEnv(t, constTrace(2, 200))
	env.Reset(stats.NewRNG(1))
	// Drive the rate up aggressively.
	var sawQueue, sawLoss bool
	for i := 0; i < 20; i++ {
		_, _, done := env.Step(actDouble)
		mi := env.last
		if mi.RTTSec > 0.05+1e-9 {
			sawQueue = true
		}
		if mi.LossRate > 0 {
			sawLoss = true
		}
		if done {
			break
		}
	}
	if !sawQueue {
		t.Error("overload never built a queue")
	}
	if !sawLoss {
		t.Error("sustained overload never lost packets")
	}
	// Throughput is capacity-bound.
	if env.last.ThroughputMbps > 2+1e-6 {
		t.Errorf("throughput %v exceeds capacity", env.last.ThroughputMbps)
	}
}

func TestQueueDrainsAfterBackoff(t *testing.T) {
	env := testEnv(t, constTrace(2, 200))
	env.Reset(stats.NewRNG(1))
	for i := 0; i < 6; i++ {
		env.Step(actDouble)
	}
	congested := env.last.RTTSec
	for i := 0; i < 8; i++ {
		env.Step(actHalve)
	}
	if env.last.RTTSec >= congested {
		t.Errorf("RTT did not drain: %v -> %v", congested, env.last.RTTSec)
	}
}

func TestEpisodeLength(t *testing.T) {
	env := testEnv(t, constTrace(4, 200))
	env.Reset(stats.NewRNG(1))
	steps := 0
	for done := false; !done; steps++ {
		_, _, done = env.Step(actHold)
		if steps > 200 {
			t.Fatal("episode did not end")
		}
	}
	if steps != env.cfg.Steps {
		t.Errorf("episode length %d, want %d", steps, env.cfg.Steps)
	}
}

func TestObservationDecode(t *testing.T) {
	env := testEnv(t, constTrace(2, 200))
	env.Reset(stats.NewRNG(1))
	var obs []float64
	for i := 0; i < 8; i++ {
		obs, _, _ = env.Step(actDouble)
	}
	lat := LatencyRatioFromObs(obs, env.cfg.HistoryLen)
	if math.Abs(lat-env.last.RTTSec/0.05) > 1e-9 {
		t.Errorf("latency ratio decode %v, want %v", lat, env.last.RTTSec/0.05)
	}
	loss := LossRateFromObs(obs, env.cfg.HistoryLen)
	if math.Abs(loss-env.last.LossRate) > 1e-9 {
		t.Errorf("loss decode %v, want %v", loss, env.last.LossRate)
	}
}

func TestEnvPanics(t *testing.T) {
	env := testEnv(t, constTrace(4, 100))
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	assertPanics("step before reset", func() { env.Step(0) })
	env.Reset(stats.NewRNG(1))
	assertPanics("bad action", func() { env.Step(99) })
}

func TestAIMDStabilizesNearCapacity(t *testing.T) {
	env := testEnv(t, constTrace(4, 400))
	aimd := NewAIMDPolicy(env.cfg.HistoryLen)
	traj := mdp.Rollout(env, aimd, stats.NewRNG(2), mdp.RolloutOptions{})
	// Average the last half of the episode.
	var thr, lat float64
	n := 0
	env2 := testEnv(t, constTrace(4, 400))
	env2.Reset(stats.NewRNG(3))
	for i, s := range traj.Steps {
		env2.Step(s.Action)
		if i >= traj.Len()/2 {
			thr += env2.last.ThroughputMbps
			lat += env2.last.RTTSec
			n++
		}
	}
	thr /= float64(n)
	lat /= float64(n)
	if thr < 2.8 || thr > 4.01 {
		t.Errorf("AIMD steady throughput %v, want ~3-4 of 4 Mbps", thr)
	}
	if lat > 0.15 {
		t.Errorf("AIMD steady RTT %v too high", lat)
	}
}

func TestAIMDBeatsRandom(t *testing.T) {
	score := func(p mdp.Policy) float64 {
		env := testEnv(t, constTrace(4, 400))
		var total float64
		rng := stats.NewRNG(5)
		for ep := 0; ep < 5; ep++ {
			total += mdp.Rollout(env, p, rng, mdp.RolloutOptions{}).TotalReward()
		}
		return total / 5
	}
	if a, r := score(NewAIMDPolicy(10)), score(RandomPolicy{}); a <= r {
		t.Errorf("AIMD (%v) did not beat Random (%v)", a, r)
	}
}

func TestA2CLearnsCongestionControl(t *testing.T) {
	// Train on stable 4 Mbps links; the agent should at least approach
	// AIMD's reward on the training distribution.
	factory := func() mdp.Env {
		env, err := NewEnv(DefaultConfig([]*trace.Trace{constTrace(4, 400)}))
		if err != nil {
			panic(err)
		}
		return env
	}
	cfg := rl.TrainConfig{
		Net: rl.NetConfig{
			ObsChannels: 4, HistoryLen: 10,
			ConvFilters: 8, ConvKernel: 4, Hidden: 32,
			Actions: len(RateFactors),
		},
		Gamma: 0.95, Epochs: 60, RolloutsPerEpoch: 8,
		LRActor: 1e-3, LRCritic: 3e-3,
		EntropyInit: 0.3, EntropyFinal: 0.02,
		GradClip: 5, NormalizeAdv: true, Seed: 4, Workers: 2,
	}
	agent, st, err := rl.Train(factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	early := stats.Mean(st.MeanReward[:5])
	late := stats.Mean(st.MeanReward[len(st.MeanReward)-5:])
	if late <= early {
		t.Errorf("no learning: early %.1f late %.1f", early, late)
	}
	greedy := rl.GreedyPolicy{P: agent}
	env := factory()
	rng := stats.NewRNG(9)
	var agentR float64
	for ep := 0; ep < 5; ep++ {
		agentR += mdp.Rollout(env, greedy, rng, mdp.RolloutOptions{}).TotalReward()
	}
	agentR /= 5
	var randomR float64
	for ep := 0; ep < 5; ep++ {
		randomR += mdp.Rollout(env, RandomPolicy{}, rng, mdp.RolloutOptions{}).TotalReward()
	}
	randomR /= 5
	if agentR <= randomR {
		t.Errorf("trained agent (%v) did not beat Random (%v)", agentR, randomR)
	}
}

func TestRewardPenalizesCongestion(t *testing.T) {
	env := testEnv(t, constTrace(2, 200))
	env.Reset(stats.NewRNG(1))
	var holdReward float64
	for i := 0; i < 3; i++ {
		_, r, _ := env.Step(actHold)
		holdReward = r
	}
	// Now flood: reward should drop below the steady value.
	var floodReward float64
	for i := 0; i < 10; i++ {
		_, r, _ := env.Step(actDouble)
		floodReward = r
	}
	if floodReward >= holdReward {
		t.Errorf("flooding reward %v not below steady %v", floodReward, holdReward)
	}
}

func TestDeterministicEpisodes(t *testing.T) {
	run := func() []float64 {
		env := testEnv(t, constTrace(3, 300))
		var rewards []float64
		rng := stats.NewRNG(42)
		traj := mdp.Rollout(env, RandomPolicy{}, rng, mdp.RolloutOptions{})
		for _, s := range traj.Steps {
			rewards = append(rewards, s.Reward)
		}
		return rewards
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("episodes not deterministic")
		}
	}
}

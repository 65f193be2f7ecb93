package abr

import (
	"math"
	"testing"

	"osap/internal/mdp"
	"osap/internal/stats"
	"osap/internal/trace"
)

// flatVideo builds a video with exact (VBR-free) chunk sizes for
// quantitative download-time checks.
func flatVideo(chunks int) *Video {
	v := &Video{
		Name:         "flat",
		BitratesKbps: append([]float64(nil), DefaultBitratesKbps...),
		ChunkSec:     4,
		SizesBytes:   make([][]float64, chunks),
	}
	for c := range v.SizesBytes {
		row := make([]float64, len(v.BitratesKbps))
		for l, kbps := range v.BitratesKbps {
			row[l] = kbps * 1000 / 8 * v.ChunkSec
		}
		v.SizesBytes[c] = row
	}
	return v
}

func constTrace(mbps float64, secs int) *trace.Trace {
	tr := &trace.Trace{Name: "const"}
	for i := 0; i < secs; i++ {
		tr.Mbps = append(tr.Mbps, mbps)
	}
	return tr
}

func testEnv(t *testing.T, video *Video, tr *trace.Trace, rtt float64) *Env {
	t.Helper()
	cfg := DefaultEnvConfig(video, []*trace.Trace{tr})
	cfg.RandomStart = false
	cfg.RTTSec = rtt
	cfg.PayloadEfficiency = 1
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvValidation(t *testing.T) {
	v := flatVideo(4)
	tr := constTrace(1, 10)
	cases := map[string]EnvConfig{
		"no video":    {Traces: []*trace.Trace{tr}},
		"no traces":   {Video: v},
		"empty tr":    {Video: v, Traces: []*trace.Trace{{Name: "e"}}, PayloadEfficiency: 1, BufferCapSec: 60},
		"bad payload": {Video: v, Traces: []*trace.Trace{tr}, PayloadEfficiency: 2, BufferCapSec: 60},
		"bad bufcap":  {Video: v, Traces: []*trace.Trace{tr}, PayloadEfficiency: 1, BufferCapSec: 0},
	}
	for name, cfg := range cases {
		if _, err := NewEnv(cfg); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if _, err := NewEnv(DefaultEnvConfig(v, []*trace.Trace{tr})); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestNewEnvRefusesNonFinite: NaN fails every comparison, so a bound
// written as `x < 0` lets it through; each case must fail NewEnv itself
// (no rollout: a NaN or infinite parameter used to panic or never
// apply mid-episode).
func TestNewEnvRefusesNonFinite(t *testing.T) {
	tr := constTrace(1, 10)
	cases := map[string]func(*EnvConfig){
		"NaN payload":     func(c *EnvConfig) { c.PayloadEfficiency = math.NaN() },
		"+Inf payload":    func(c *EnvConfig) { c.PayloadEfficiency = math.Inf(1) },
		"NaN RTT":         func(c *EnvConfig) { c.RTTSec = math.NaN() },
		"+Inf RTT":        func(c *EnvConfig) { c.RTTSec = math.Inf(1) },
		"-Inf RTT":        func(c *EnvConfig) { c.RTTSec = math.Inf(-1) },
		"NaN buffer cap":  func(c *EnvConfig) { c.BufferCapSec = math.NaN() },
		"+Inf buffer cap": func(c *EnvConfig) { c.BufferCapSec = math.Inf(1) },
	}
	for name, mutate := range cases {
		cfg := DefaultEnvConfig(flatVideo(8), []*trace.Trace{tr})
		mutate(&cfg)
		if _, err := NewEnv(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestDownloadTimeExact(t *testing.T) {
	// 300 kbps chunk (150000 B) over a constant 1 Mbps link with payload
	// efficiency 1 and zero RTT: exactly 1.2 s.
	env := testEnv(t, flatVideo(4), constTrace(1, 100), 0)
	env.Reset(stats.NewRNG(1))
	env.Step(0)
	res := env.LastChunk()
	if math.Abs(res.DownloadSec-1.2) > 1e-9 {
		t.Errorf("download time = %v, want 1.2", res.DownloadSec)
	}
	if math.Abs(res.ThroughputMbps-1.0) > 1e-9 {
		t.Errorf("measured throughput = %v, want 1", res.ThroughputMbps)
	}
	// First chunk downloads into an empty buffer: rebuffer = download.
	if math.Abs(res.RebufferSec-1.2) > 1e-9 {
		t.Errorf("rebuffer = %v, want 1.2", res.RebufferSec)
	}
	// Buffer after: 0 - 1.2 clamped to 0, + 4 s chunk.
	if math.Abs(res.BufferSec-4.0) > 1e-9 {
		t.Errorf("buffer = %v, want 4", res.BufferSec)
	}
}

func TestDownloadSpansTraceSlots(t *testing.T) {
	// 1 Mbps for 1 s then 4 Mbps: a 4300 kbps chunk (2150000 B) needs
	// 1 s at 125000 B/s + remaining 2025000 B at 500000 B/s = 1+4.05 s.
	tr := &trace.Trace{Name: "ramp", Mbps: []float64{1, 4, 4, 4, 4, 4, 4}}
	env := testEnv(t, flatVideo(4), tr, 0)
	env.Reset(stats.NewRNG(1))
	env.Step(5)
	want := 1 + 2025000.0/500000
	if got := env.LastChunk().DownloadSec; math.Abs(got-want) > 1e-9 {
		t.Errorf("download = %v, want %v", got, want)
	}
}

func TestRTTAddsLatency(t *testing.T) {
	envNoRTT := testEnv(t, flatVideo(4), constTrace(1, 100), 0)
	envRTT := testEnv(t, flatVideo(4), constTrace(1, 100), 0.08)
	envNoRTT.Reset(stats.NewRNG(1))
	envRTT.Reset(stats.NewRNG(1))
	envNoRTT.Step(0)
	envRTT.Step(0)
	d := envRTT.LastChunk().DownloadSec - envNoRTT.LastChunk().DownloadSec
	if math.Abs(d-0.08) > 1e-9 {
		t.Errorf("RTT delta = %v, want 0.08", d)
	}
}

func TestOutageUsesFloorRate(t *testing.T) {
	// All-zero trace: the floor rate must keep downloads finite.
	env := testEnv(t, flatVideo(2), constTrace(0, 10), 0)
	env.Reset(stats.NewRNG(1))
	env.Step(0)
	res := env.LastChunk()
	if math.IsInf(res.DownloadSec, 0) || res.DownloadSec <= 0 {
		t.Fatalf("outage download time = %v", res.DownloadSec)
	}
	// 150000 B at 0.005 Mbps (625 B/s) = 240 s.
	if math.Abs(res.DownloadSec-240) > 1 {
		t.Errorf("outage download = %v, want ~240", res.DownloadSec)
	}
}

func TestEpisodeLengthAndDone(t *testing.T) {
	env := testEnv(t, flatVideo(5), constTrace(2, 100), 0)
	env.Reset(stats.NewRNG(1))
	var done bool
	steps := 0
	for !done {
		_, _, done = env.Step(0)
		steps++
		if steps > 10 {
			t.Fatal("episode did not terminate")
		}
	}
	if steps != 5 {
		t.Errorf("episode length %d, want 5", steps)
	}
}

func TestStepAfterDonePanics(t *testing.T) {
	env := testEnv(t, flatVideo(1), constTrace(2, 100), 0)
	env.Reset(stats.NewRNG(1))
	env.Step(0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	env.Step(0)
}

func TestStepBeforeResetPanics(t *testing.T) {
	env := testEnv(t, flatVideo(1), constTrace(2, 100), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	env.Step(0)
}

func TestInvalidActionPanics(t *testing.T) {
	env := testEnv(t, flatVideo(2), constTrace(2, 100), 0)
	env.Reset(stats.NewRNG(1))
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	env.Step(6)
}

func TestBufferCapIdles(t *testing.T) {
	// Very fast link: buffer would exceed the cap; env must clamp it.
	env := testEnv(t, flatVideo(100), constTrace(100, 1000), 0)
	env.Reset(stats.NewRNG(1))
	for i := 0; i < 100; i++ {
		_, _, done := env.Step(0)
		if env.bufferSec > env.cfg.BufferCapSec+1e-9 {
			t.Fatalf("buffer %v exceeds cap", env.bufferSec)
		}
		if done {
			break
		}
	}
}

func TestObservationEncodingRoundTrip(t *testing.T) {
	env := testEnv(t, flatVideo(10), constTrace(2, 100), 0)
	obs := env.Reset(stats.NewRNG(1))
	if len(obs) != ObsDim {
		t.Fatalf("obs len %d, want %d", len(obs), ObsDim)
	}
	if BufferSecFromObs(obs) != 0 {
		t.Errorf("initial buffer decode = %v", BufferSecFromObs(obs))
	}
	if LastThroughputMbps(obs) != 0 {
		t.Errorf("initial throughput decode = %v", LastThroughputMbps(obs))
	}
	obs, _, _ = env.Step(2)
	if got := BufferSecFromObs(obs); math.Abs(got-env.bufferSec) > 1e-9 {
		t.Errorf("buffer decode %v, want %v", got, env.bufferSec)
	}
	if got := LastThroughputMbps(obs); math.Abs(got-env.LastChunk().ThroughputMbps) > 1e-9 {
		t.Errorf("throughput decode %v, want %v", got, env.LastChunk().ThroughputMbps)
	}
	if got := LastBitrateMbps(obs, 4300); math.Abs(got-1.2) > 1e-9 {
		t.Errorf("last bitrate decode %v, want 1.2", got)
	}
}

func TestObservationHistoryShifts(t *testing.T) {
	env := testEnv(t, flatVideo(20), constTrace(2, 100), 0)
	env.Reset(stats.NewRNG(1))
	var obs []float64
	for i := 0; i < 3; i++ {
		obs, _, _ = env.Step(0)
	}
	hist := ThroughputHistoryMbps(obs)
	// After 3 chunks: first 5 entries are padding, last 3 are real.
	for i := 0; i < 5; i++ {
		if hist[i] != 0 {
			t.Fatalf("padding entry %d = %v", i, hist[i])
		}
	}
	for i := 5; i < 8; i++ {
		if hist[i] <= 0 {
			t.Fatalf("history entry %d = %v, want > 0", i, hist[i])
		}
	}
}

func TestNextChunkSizesInObservation(t *testing.T) {
	v := flatVideo(5)
	env := testEnv(t, v, constTrace(2, 100), 0)
	obs := env.Reset(stats.NewRNG(1))
	for l := 0; l < v.NumLevels(); l++ {
		want := v.SizesBytes[0][l] / 1e6
		if got := obs[obsIndex(rowChunkSizes, l)]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("chunk size obs[%d] = %v, want %v", l, got, want)
		}
	}
}

func TestRewardIsQoESum(t *testing.T) {
	env := testEnv(t, flatVideo(10), constTrace(3, 100), 0)
	rng := stats.NewRNG(5)
	traj := mdp.Rollout(env, NewBBPolicy(6), rng, mdp.RolloutOptions{})
	var wantTotal float64
	// Re-simulate and compare against LastChunk QoE accumulation.
	env2 := testEnv(t, flatVideo(10), constTrace(3, 100), 0)
	env2.Reset(stats.NewRNG(7))
	for _, s := range traj.Steps {
		_, r, _ := env2.Step(s.Action)
		if math.Abs(r-env2.LastChunk().QoE) > 1e-12 {
			t.Fatal("reward != chunk QoE")
		}
		wantTotal += r
	}
	if math.Abs(traj.TotalReward()-wantTotal) > 1e-9 {
		t.Errorf("total reward %v, want %v", traj.TotalReward(), wantTotal)
	}
}

func TestResetIsReproducible(t *testing.T) {
	cfg := DefaultEnvConfig(flatVideo(10), []*trace.Trace{
		constTrace(1, 50), constTrace(2, 50), constTrace(3, 50),
	})
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run := func() []float64 {
		var rewards []float64
		env.Reset(stats.NewRNG(99))
		for i := 0; i < 10; i++ {
			_, r, done := env.Step(i % 6)
			rewards = append(rewards, r)
			if done {
				break
			}
		}
		return rewards
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed episodes differ")
		}
	}
}

func TestHigherBandwidthHigherQoE(t *testing.T) {
	score := func(mbps float64) float64 {
		env := testEnv(t, flatVideo(48), constTrace(mbps, 1000), 0.08)
		rng := stats.NewRNG(1)
		return meanQoE(env, NewBBPolicy(6), rng, 5)
	}
	lo, hi := score(1), score(5)
	if hi <= lo {
		t.Errorf("QoE at 5 Mbps (%v) should beat 1 Mbps (%v)", hi, lo)
	}
}

// TestEnvInvariantsProperty drives random policies through random traces
// and checks structural invariants every step: buffer within [0, cap],
// non-negative rebuffering, positive download times, monotone chunk
// progression.
func TestEnvInvariantsProperty(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		rng := stats.NewRNG(seed)
		gen, err := trace.GeneratorFor(trace.DatasetNames()[rng.Intn(6)])
		if err != nil {
			t.Fatal(err)
		}
		tr := gen.Generate(rng, 200)
		cfg := DefaultEnvConfig(SyntheticVideo(seed, 20, 4), []*trace.Trace{tr})
		env, err := NewEnv(cfg)
		if err != nil {
			t.Fatal(err)
		}
		env.Reset(rng)
		for done, step := false, 0; !done; step++ {
			_, reward, d := env.Step(rng.Intn(6))
			done = d
			c := env.LastChunk()
			if c.DownloadSec <= 0 {
				t.Fatalf("seed %d: non-positive download %v", seed, c.DownloadSec)
			}
			if c.RebufferSec < 0 {
				t.Fatalf("seed %d: negative rebuffer", seed)
			}
			if env.bufferSec < 0 || env.bufferSec > cfg.BufferCapSec+1e-9 {
				t.Fatalf("seed %d: buffer %v out of range", seed, env.bufferSec)
			}
			if c.ChunkIndex != step {
				t.Fatalf("seed %d: chunk index %d at step %d", seed, c.ChunkIndex, step)
			}
			if math.IsNaN(reward) || math.IsInf(reward, 0) {
				t.Fatalf("seed %d: reward %v", seed, reward)
			}
			if c.ThroughputMbps <= 0 {
				t.Fatalf("seed %d: throughput %v", seed, c.ThroughputMbps)
			}
		}
	}
}

// TestObservationBoundsProperty: every observation entry stays within a
// sane normalized range under random play.
func TestObservationBoundsProperty(t *testing.T) {
	rng := stats.NewRNG(77)
	gen, _ := trace.GeneratorFor(trace.DatasetNorway)
	env := testEnv(t, SyntheticVideo(3, 30, 4), gen.Generate(rng, 300), 0.08)
	obs := env.Reset(rng)
	for done := false; !done; {
		for i, v := range obs {
			if math.IsNaN(v) || v < -1e-9 || v > 100 {
				t.Fatalf("obs[%d] = %v out of range", i, v)
			}
		}
		obs, _, done = env.Step(rng.Intn(6))
	}
}

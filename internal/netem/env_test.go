package netem

import (
	"math"
	"testing"

	"osap/internal/abr"
	"osap/internal/mdp"
	"osap/internal/stats"
	"osap/internal/trace"
)

// flatVideo builds a VBR-free video (exact sizes) for quantitative
// comparisons.
func flatVideo(chunks int) *abr.Video {
	v := &abr.Video{
		Name:         "flat",
		BitratesKbps: append([]float64(nil), abr.DefaultBitratesKbps...),
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

func packetEnv(t *testing.T, video *abr.Video, tr *trace.Trace, slowStart bool) *Env {
	t.Helper()
	cfg := DefaultEnvConfig(video, []*trace.Trace{tr})
	cfg.RandomStart = false
	cfg.Link.SlowStart = slowStart
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvValidation(t *testing.T) {
	v := flatVideo(4)
	tr := constTrace(2, 50)
	if _, err := NewEnv(EnvConfig{Traces: []*trace.Trace{tr}, BufferCapSec: 60}); err == nil {
		t.Error("missing video accepted")
	}
	if _, err := NewEnv(EnvConfig{Video: v, BufferCapSec: 60}); err == nil {
		t.Error("missing traces accepted")
	}
	if _, err := NewEnv(EnvConfig{Video: v, Traces: []*trace.Trace{constTrace(0, 5)}, BufferCapSec: 60}); err == nil {
		t.Error("undeliverable trace accepted")
	}
	cfg := DefaultEnvConfig(v, []*trace.Trace{tr})
	cfg.BufferCapSec = 0
	if _, err := NewEnv(cfg); err == nil {
		t.Error("zero buffer cap accepted")
	}
}

func TestEpisodeSemanticsMatchSimulator(t *testing.T) {
	// Same video, same constant trace, same policy: the packet-level
	// environment must closely agree with the analytic simulator (packet
	// quantization and RTT placement differ slightly).
	video := flatVideo(48)
	tr := constTrace(2.4, 1000)

	simCfg := abr.DefaultEnvConfig(video, []*trace.Trace{tr})
	simCfg.RandomStart = false
	simCfg.PayloadEfficiency = 1
	sim, err := abr.NewEnv(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	pkt := packetEnv(t, video, tr, false)

	bb := abr.NewBBPolicy(video.NumLevels())
	simQoE := mdp.Rollout(sim, bb, stats.NewRNG(1), mdp.RolloutOptions{}).TotalReward()
	pktQoE := mdp.Rollout(pkt, bb, stats.NewRNG(1), mdp.RolloutOptions{}).TotalReward()

	diff := math.Abs(simQoE - pktQoE)
	scale := math.Max(math.Abs(simQoE), 1)
	if diff/scale > 0.15 {
		t.Errorf("sim QoE %v vs packet QoE %v differ by %.1f%%", simQoE, pktQoE, 100*diff/scale)
	}
}

func TestPerChunkDownloadAgreement(t *testing.T) {
	video := flatVideo(10)
	tr := constTrace(2.4, 1000)

	simCfg := abr.DefaultEnvConfig(video, []*trace.Trace{tr})
	simCfg.RandomStart = false
	simCfg.PayloadEfficiency = 1
	sim, err := abr.NewEnv(simCfg)
	if err != nil {
		t.Fatal(err)
	}
	pkt := packetEnv(t, video, tr, false)

	sim.Reset(stats.NewRNG(1))
	pkt.Reset(stats.NewRNG(1))
	for i := 0; i < 10; i++ {
		sim.Step(2)
		pkt.Step(2)
		ds, dp := sim.LastChunk().DownloadSec, pkt.LastChunk().DownloadSec
		if math.Abs(ds-dp) > 0.1 { // packet quantization + RTT placement
			t.Fatalf("chunk %d: sim %v vs packet %v download time", i, ds, dp)
		}
	}
}

func TestEnvEpisodeTerminates(t *testing.T) {
	env := packetEnv(t, flatVideo(5), constTrace(2, 100), true)
	env.Reset(stats.NewRNG(1))
	steps := 0
	done := false
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

func TestEnvObservationCompatible(t *testing.T) {
	env := packetEnv(t, flatVideo(5), constTrace(2, 100), true)
	obs := env.Reset(stats.NewRNG(1))
	if len(obs) != abr.ObsDim {
		t.Fatalf("obs dim %d", len(obs))
	}
	obs, _, _ = env.Step(1)
	if got := abr.BufferSecFromObs(obs); math.Abs(got-env.bufferSec) > 1e-9 {
		t.Errorf("buffer decode %v, want %v", got, env.bufferSec)
	}
	if got := abr.LastThroughputMbps(obs); math.Abs(got-env.LastChunk().ThroughputMbps) > 1e-9 {
		t.Errorf("throughput decode %v", got)
	}
}

func TestEnvBufferCap(t *testing.T) {
	env := packetEnv(t, flatVideo(60), constTrace(50, 1000), false)
	env.Reset(stats.NewRNG(1))
	for i := 0; i < 60; i++ {
		_, _, done := env.Step(0)
		if env.bufferSec > 60+1e-9 {
			t.Fatalf("buffer %v exceeds cap", env.bufferSec)
		}
		if done {
			break
		}
	}
}

func TestEnvPanics(t *testing.T) {
	env := packetEnv(t, flatVideo(2), constTrace(2, 100), false)
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

func TestEnvSlowStartHurtsQoE(t *testing.T) {
	// With slow start, each chunk pays window ramp-up: QoE can only be
	// lower or equal.
	video := flatVideo(24)
	tr := constTrace(3, 1000)
	bb := abr.NewBBPolicy(video.NumLevels())
	qoe := func(ss bool) float64 {
		env := packetEnv(t, video, tr, ss)
		return mdp.Rollout(env, bb, stats.NewRNG(2), mdp.RolloutOptions{}).TotalReward()
	}
	if qoe(true) > qoe(false)+1e-9 {
		t.Errorf("slow start improved QoE: %v > %v", qoe(true), qoe(false))
	}
}

package netem

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"runtime"
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

// packetConfig is the paper's environment over the emulated path.
func packetConfig(video *abr.Video, traces []*trace.Trace, slowStart bool) abr.EnvConfig {
	cfg := abr.DefaultEnvConfig(video, traces)
	lc := DefaultLinkConfig(nil)
	lc.SlowStart = slowStart
	cfg.Link = PacketLink(lc)
	return cfg
}

func packetEnv(t *testing.T, video *abr.Video, tr *trace.Trace, slowStart bool) *abr.Env {
	t.Helper()
	cfg := packetConfig(video, []*trace.Trace{tr}, slowStart)
	cfg.RandomStart = false
	env, err := abr.NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestNewEnvValidation(t *testing.T) {
	v := flatVideo(4)
	tr := constTrace(2, 50)
	if _, err := abr.NewEnv(packetConfig(nil, []*trace.Trace{tr}, true)); err == nil {
		t.Error("missing video accepted")
	}
	if _, err := abr.NewEnv(packetConfig(v, nil, true)); err == nil {
		t.Error("missing traces accepted")
	}
	if _, err := abr.NewEnv(packetConfig(v, []*trace.Trace{constTrace(0, 5)}, true)); err == nil {
		t.Error("undeliverable trace accepted")
	}
	cfg := packetConfig(v, []*trace.Trace{tr}, true)
	cfg.BufferCapSec = 0
	if _, err := abr.NewEnv(cfg); err == nil {
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
	if got := abr.BufferSecFromObs(obs); math.Abs(got-env.LastChunk().BufferSec) > 1e-9 {
		t.Errorf("buffer decode %v, want %v", got, env.LastChunk().BufferSec)
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
		if env.LastChunk().BufferSec > 60+1e-9 {
			t.Fatalf("buffer %v exceeds cap", env.LastChunk().BufferSec)
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

// TestPacketEnvPinned pins the packet link bit for bit on amd64: one
// FNV digest of the Float64bits of every observation entry, reward and
// ChunkResult field over four random-start episodes on Norway, Belgium
// and Exponential traces, per policy and slow-start setting. A change
// that moves any packet-level number by one bit fails here.
func TestPacketEnvPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests pinned on amd64")
	}
	video := abr.SyntheticVideo(3, 12, 4)
	rng := stats.NewRNG(11)
	var traces []*trace.Trace
	for _, ds := range []string{trace.DatasetNorway, trace.DatasetBelgium, trace.DatasetExponential} {
		gen, err := trace.GeneratorFor(ds)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, gen.Generate(rng, 120))
	}
	want := map[string]uint64{
		"bb/link-limited":  0x58ed0cc5187997e7,
		"bb/slowstart":     0xb14c7651b5a686a6,
		"mpc/link-limited": 0x368d6eb9df59090c,
		"mpc/slowstart":    0xab2d3dada0b9eef8,
	}
	for _, ss := range []bool{false, true} {
		for _, pol := range []string{"bb", "mpc"} {
			env, err := abr.NewEnv(packetConfig(video, traces, ss))
			if err != nil {
				t.Fatal(err)
			}
			bb := abr.NewBBPolicy(video.NumLevels())
			mpc := abr.NewMPCPolicy(video)
			decide := func(obs []float64) int { return bb.Level(abr.BufferSecFromObs(obs)) }
			if pol == "mpc" {
				decide = mpc.Decide
			}
			h := fnv.New64a()
			var b [8]byte
			put := func(xs ...float64) {
				for _, x := range xs {
					binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
					h.Write(b[:])
				}
			}
			erng := stats.NewRNG(5)
			for ep := 0; ep < 4; ep++ {
				obs := env.Reset(erng)
				put(obs...)
				for done := false; !done; {
					var r float64
					obs, r, done = env.Step(decide(obs))
					c := env.LastChunk()
					put(obs...)
					put(r, float64(c.ChunkIndex), float64(c.Level), c.BitrateMbps, c.SizeBytes,
						c.DownloadSec, c.ThroughputMbps, c.RebufferSec, c.BufferSec, c.QoE)
				}
			}
			name := pol + "/link-limited"
			if ss {
				name = pol + "/slowstart"
			}
			if got := h.Sum64(); got != want[name] {
				t.Errorf("%s: digest %#x, pinned %#x", name, got, want[name])
			}
		}
	}
}

// FuzzEnvStep steps abr.Env over the analytic link and the packet link
// (slow start on or off) on a random trace — zero-capacity slots
// allowed, at least one slot the emulator can deliver in — with random
// chunk sizes under ~0.5 MB, a random buffer cap and random actions,
// and checks every step: a finite positive download, no negative
// stall, a buffer in (0, cap], a finite QoE and an episode of exactly
// NumChunks steps.
func FuzzEnvStep(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 40, 0, 7, 1, 5, 9, 200, 100, 3, 30, 1, 2, 3, 4, 5})
	f.Add([]byte{15, 4, 8, 12, 0, 255, 1, 2, 3, 0, 0, 11, 2, 255, 255, 255, 255, 60, 0, 5, 4, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		tr := &trace.Trace{Name: "fuzz", Mbps: make([]float64, 1+int(next()%16))}
		for i := range tr.Mbps {
			if b := next(); b%4 != 0 {
				tr.Mbps[i] = float64(b) / 16
			}
		}
		if i := int(next()) % len(tr.Mbps); tr.Mbps[i] < 0.5 {
			tr.Mbps[i] = 0.5
		}
		video := &abr.Video{
			Name:         "fuzz",
			BitratesKbps: append([]float64(nil), abr.DefaultBitratesKbps...),
			ChunkSec:     float64(1 + next()%8),
			SizesBytes:   make([][]float64, 1+int(next()%12)),
		}
		actions := make([]int, video.NumChunks())
		for c := range video.SizesBytes {
			row := make([]float64, video.NumLevels())
			for l := range row {
				row[l] = 1 + 8*float64(next())*float64(next())
			}
			video.SizesBytes[c] = row
			actions[c] = int(next()) % video.NumLevels()
		}
		capSec := float64(1 + next()%64)
		lc := DefaultLinkConfig(nil)
		lc.SlowStart = next()%2 == 1
		seed := uint64(next())

		for _, packet := range []bool{false, true} {
			cfg := abr.DefaultEnvConfig(video, []*trace.Trace{tr})
			cfg.BufferCapSec = capSec
			if packet {
				cfg.Link = PacketLink(lc)
			}
			env, err := abr.NewEnv(cfg)
			if err != nil {
				t.Fatal(err)
			}
			env.Reset(stats.NewRNG(seed))
			for i, a := range actions {
				_, _, done := env.Step(a)
				c := env.LastChunk()
				if !(c.DownloadSec > 0) || math.IsInf(c.DownloadSec, 0) {
					t.Fatalf("packet %v chunk %d: download %v", packet, i, c.DownloadSec)
				}
				if !(c.RebufferSec >= 0) {
					t.Fatalf("packet %v chunk %d: rebuffer %v", packet, i, c.RebufferSec)
				}
				if !(c.BufferSec > 0 && c.BufferSec <= capSec) {
					t.Fatalf("packet %v chunk %d: buffer %v outside (0, %v]", packet, i, c.BufferSec, capSec)
				}
				if math.IsNaN(c.QoE) || math.IsInf(c.QoE, 0) {
					t.Fatalf("packet %v chunk %d: QoE %v", packet, i, c.QoE)
				}
				if done != (i == len(actions)-1) {
					t.Fatalf("packet %v chunk %d of %d: done %v", packet, i, len(actions), done)
				}
			}
		}
	})
}

// Command abrsim runs a single ABR streaming session in the chunk-level
// environment, over Pensieve's analytic link or the packet-level
// emulator, and prints a per-chunk log — useful for eyeballing policy
// behavior on a given network distribution.
//
// Usage:
//
//	abrsim -dataset norway -policy bb [-backend sim|packet] [-seed 1] [-video-chunks 48]
package main

import (
	"flag"
	"fmt"
	"os"

	"osap/internal/abr"
	"osap/internal/buildinfo"
	"osap/internal/mdp"
	"osap/internal/netem"
	"osap/internal/stats"
	"osap/internal/trace"
)

func main() {
	dataset := flag.String("dataset", "norway", "network distribution")
	policy := flag.String("policy", "bb", "policy: bb, random, rate or bola")
	backend := flag.String("backend", "sim", "download link: sim (analytic) or packet (emulated)")
	seed := flag.Uint64("seed", 1, "episode seed")
	chunks := flag.Int("video-chunks", 48, "video length in chunks")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print(os.Stdout, "abrsim")
		return
	}

	if err := run(*dataset, *policy, *backend, *seed, *chunks); err != nil {
		fmt.Fprintln(os.Stderr, "abrsim:", err)
		os.Exit(1)
	}
}

func run(dataset, policyName, backend string, seed uint64, chunks int) error {
	if chunks < 1 {
		return fmt.Errorf("-video-chunks %d: want at least 1", chunks)
	}
	gen, err := trace.GeneratorFor(dataset)
	if err != nil {
		return err
	}
	rng := stats.NewRNG(seed)
	tr := gen.Generate(rng, 600)
	video := abr.SyntheticVideo(0xE14100, chunks, 4)

	var policy mdp.Policy
	switch policyName {
	case "bb":
		policy = abr.NewBBPolicy(video.NumLevels())
	case "random":
		policy = abr.RandomPolicy{Levels: video.NumLevels()}
	case "rate":
		policy = abr.NewRateBasedPolicy(video.BitratesKbps)
	case "bola":
		policy = abr.NewBolaPolicy(video.BitratesKbps, video.ChunkSec, 60)
	default:
		return fmt.Errorf("unknown -policy %q (want bb, random, rate or bola)", policyName)
	}

	cfg := abr.DefaultEnvConfig(video, []*trace.Trace{tr})
	switch backend {
	case "sim": // the analytic link: cfg.Link stays nil
	case "packet":
		cfg.Link = netem.PacketLink(netem.DefaultLinkConfig(nil))
	default:
		return fmt.Errorf("unknown -backend %q (want sim or packet)", backend)
	}
	env, err := abr.NewEnv(cfg)
	if err != nil {
		return err
	}

	fmt.Printf("dataset=%s policy=%s backend=%s trace-mean=%.2f Mbps\n", dataset, policyName, backend, tr.Mean())
	fmt.Printf("%5s %9s %9s %9s %9s %9s %9s\n",
		"chunk", "level", "kbps", "dl(s)", "thr(Mbps)", "rebuf(s)", "qoe")
	var total float64
	traj := mdp.Rollout(env, policy, rng, mdp.RolloutOptions{
		OnStep: func(t int, _ mdp.Transition) {
			c := env.LastChunk()
			total += c.QoE
			fmt.Printf("%5d %9d %9.0f %9.2f %9.2f %9.2f %9.2f\n",
				c.ChunkIndex, c.Level, c.BitrateMbps*1000, c.DownloadSec,
				c.ThroughputMbps, c.RebufferSec, c.QoE)
		},
	})
	fmt.Printf("total QoE: %.2f over %d chunks\n", traj.TotalReward(), traj.Len())
	return nil
}

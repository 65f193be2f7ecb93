package abr

import (
	"fmt"
	"math"
	"sort"

	"osap/internal/trace"
)

// oracleState is one node of the beam: the session state after
// downloading `chunk` chunks.
type oracleState struct {
	link      analyticLink
	bufferSec float64
	lastLevel int
	qoe       float64
}

// OfflineOptimalQoE computes a near-optimal QoE for streaming cfg's
// video over tr starting startOffset into it, on cfg's analytic link,
// with full knowledge of future throughput — the upper bound no online
// algorithm can beat. It runs a beam search over (buffer, trace-time,
// last-level) states, deduplicating states that agree on last level and
// quantized buffer/trace-time and keeping the best-QoE representative;
// beam bounds the states kept per chunk (0 = 256), and with the default
// this is within a fraction of a percent of exhaustive dynamic
// programming at a tiny cost. cfg.Traces is ignored; a cfg with a Link
// is refused.
func OfflineOptimalQoE(cfg EnvConfig, beam int, tr *trace.Trace, startOffset float64) (float64, error) {
	if err := cfg.check(); err != nil {
		return 0, err
	}
	if cfg.Link != nil {
		return 0, fmt.Errorf("abr: the oracle plans on the analytic link only")
	}
	if len(tr.Mbps) == 0 {
		return 0, fmt.Errorf("abr: oracle needs a non-empty trace")
	}
	if beam <= 0 {
		beam = 256
	}

	v := cfg.Video
	link := analyticLink{tr: tr, t: startOffset, rtt: cfg.RTTSec, eff: cfg.PayloadEfficiency}
	states := []oracleState{{link: link, lastLevel: -1}}
	next := make(map[[3]int64]oracleState)

	for chunk := 0; chunk < v.NumChunks(); chunk++ {
		clear(next)
		for _, s := range states {
			for l := 0; l < v.NumLevels(); l++ {
				ns := advance(&cfg, s, chunk, l)
				key := [3]int64{
					int64(l),
					int64(ns.bufferSec * 10),       // 0.1 s buffer buckets
					int64(ns.link.t*4) % (1 << 40), // 0.25 s time buckets
				}
				if prev, ok := next[key]; !ok || ns.qoe > prev.qoe {
					next[key] = ns
				}
			}
		}
		states = states[:0]
		for _, s := range next {
			states = append(states, s)
		}
		// Keep the beam best by QoE (ties by larger buffer, which
		// dominates for the future).
		sort.Slice(states, func(i, j int) bool {
			if states[i].qoe != states[j].qoe {
				return states[i].qoe > states[j].qoe
			}
			return states[i].bufferSec > states[j].bufferSec
		})
		if len(states) > beam {
			states = states[:beam]
		}
	}

	best := math.Inf(-1)
	for _, s := range states {
		if s.qoe > best {
			best = s.qoe
		}
	}
	return best, nil
}

// advance simulates downloading chunk at level l from state s, as
// Env.Step would.
func advance(cfg *EnvConfig, s oracleState, chunk, l int) oracleState {
	v := cfg.Video
	dl := s.link.FetchBytes(v.SizesBytes[chunk][l])
	rebuf, buf := playout(s.bufferSec, dl, v.ChunkSec)
	if buf > cfg.BufferCapSec {
		s.link.AdvanceBy(buf - cfg.BufferCapSec)
		buf = cfg.BufferCapSec
	}
	prev := -1.0
	if s.lastLevel >= 0 {
		prev = v.BitrateMbps(s.lastLevel)
	}
	return oracleState{
		link:      s.link,
		bufferSec: buf,
		lastLevel: l,
		qoe:       s.qoe + ChunkQoE(v.BitrateMbps(l), prev, rebuf),
	}
}

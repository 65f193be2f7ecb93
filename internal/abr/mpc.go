package abr

import (
	"math"
)

// MPCPolicy is the model-predictive-control ABR algorithm of Yin et al.
// (SIGCOMM '15), in its RobustMPC variant: at each step it predicts
// future throughput as the harmonic mean of recent measurements
// discounted by the recent prediction error, then exhaustively searches
// bitrate sequences over a short horizon for the one maximizing the
// linear QoE objective. It is the strongest classical baseline in the
// ABR literature and is included for the paper's future-work comparison
// of alternative default policies.
//
// MPCPolicy is stateful: it tracks its own prediction errors, and has
// no per-episode reset, so the error tracker carries from one episode
// into the next (a known debt, ROADMAP.md). It implements mdp.Policy.
type MPCPolicy struct {
	// Video supplies chunk sizes for lookahead.
	Video *Video
	// Horizon is the lookahead depth in chunks (Yin et al. use 5).
	Horizon int
	// Robust enables the RobustMPC error discounting.
	Robust bool

	// per-episode state
	lastErr  float64
	lastPred float64
}

// NewMPCPolicy returns a RobustMPC with the paper-standard horizon of 5.
func NewMPCPolicy(video *Video) *MPCPolicy {
	return &MPCPolicy{Video: video, Horizon: 5, Robust: true}
}

// predictThroughput returns the discounted harmonic-mean prediction in
// Mbps from the observation's throughput history.
func (m *MPCPolicy) predictThroughput(obs []float64) float64 {
	hist := ThroughputHistoryMbps(obs)
	var invSum float64
	var n int
	for _, v := range hist {
		if v > 0 {
			invSum += 1 / v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	pred := float64(n) / invSum

	if m.Robust {
		// Track the relative error of the previous prediction against
		// the most recent actual throughput, and discount by the max of
		// the last two errors (a light-weight version of RobustMPC's
		// max-error window).
		actual := hist[len(hist)-1]
		if m.lastPred > 0 && actual > 0 {
			err := math.Abs(m.lastPred-actual) / actual
			if err > m.lastErr {
				m.lastErr = err
			} else {
				// decay toward the newest error
				m.lastErr = 0.5*m.lastErr + 0.5*err
			}
		}
		pred /= 1 + m.lastErr
	}
	m.lastPred = pred
	return pred
}

// Probs implements mdp.Policy.
func (m *MPCPolicy) Probs(obs []float64) []float64 {
	level := m.Decide(obs)
	out := make([]float64, m.Video.NumLevels())
	out[level] = 1
	return out
}

// Decide runs the horizon search and returns the chosen level.
func (m *MPCPolicy) Decide(obs []float64) int {
	v := m.Video
	pred := m.predictThroughput(obs)
	if pred <= 0 {
		return 0
	}
	buffer := BufferSecFromObs(obs)
	lastMbps := LastBitrateMbps(obs, v.MaxBitrateKbps())
	chunk := m.currentChunk(obs)

	horizon := m.Horizon
	if remaining := v.NumChunks() - chunk; horizon > remaining {
		horizon = remaining
	}
	if horizon <= 0 {
		return 0
	}

	bestLevel, bestScore := 0, math.Inf(-1)
	// Exhaustive search over level sequences, depth-first. With 6
	// levels and horizon 5 this is 7776 leaves — microseconds.
	var search func(depth int, buf, prevMbps, score float64, first int)
	search = func(depth int, buf, prevMbps, score float64, first int) {
		if depth == horizon {
			if score > bestScore {
				bestScore = score
				bestLevel = first
			}
			return
		}
		ci := chunk + depth
		for l := 0; l < v.NumLevels(); l++ {
			dl := v.SizesBytes[ci][l] * 8 / 1e6 / pred // seconds
			// The lookahead applies no buffer cap.
			rebuf, nbuf := playout(buf, dl, v.ChunkSec)
			q := ChunkQoE(v.BitrateMbps(l), prevMbps, rebuf)
			f := first
			if depth == 0 {
				f = l
			}
			search(depth+1, nbuf, v.BitrateMbps(l), score+q, f)
		}
	}
	// The previous bitrate is unknown on the first chunk (encoded as 0);
	// treat 0 as "no previous" to skip the smoothness term.
	prev := lastMbps
	if prev == 0 {
		prev = -1
	}
	search(0, buffer, prev, 0, 0)
	return bestLevel
}

// currentChunk recovers the next-chunk index from the observation's
// remaining-fraction row.
func (m *MPCPolicy) currentChunk(obs []float64) int {
	remain := obs[obsIndex(rowRemain, HistoryLen-1)]
	chunk := int(math.Round(float64(m.Video.NumChunks()) * (1 - remain)))
	if chunk < 0 {
		chunk = 0
	}
	if chunk >= m.Video.NumChunks() {
		chunk = m.Video.NumChunks() - 1
	}
	return chunk
}

package abr

import (
	"math"

	"osap/internal/mdp"
)

// BBPolicy is the Buffer-Based ABR heuristic of Huang et al. (SIGCOMM
// '14), as implemented in Pensieve's reference code: the next level is a
// linear function of the playback buffer between a reservoir and a
// cushion. It is the paper's default ("safe") policy.
type BBPolicy struct {
	// ReservoirSec and CushionSec are the classic BB knobs; Pensieve's
	// implementation uses 5 s and 10 s.
	ReservoirSec float64
	CushionSec   float64
	// Levels is the ladder size.
	Levels int
}

// NewBBPolicy returns the paper's BB configuration for a ladder of the
// given size.
func NewBBPolicy(levels int) *BBPolicy {
	return &BBPolicy{ReservoirSec: 5, CushionSec: 10, Levels: levels}
}

// Level returns BB's deterministic choice for a given buffer occupancy.
//
//osap:hotpath
func (b *BBPolicy) Level(bufferSec float64) int {
	switch {
	case bufferSec < b.ReservoirSec:
		return 0
	case bufferSec >= b.ReservoirSec+b.CushionSec:
		return b.Levels - 1
	default:
		frac := (bufferSec - b.ReservoirSec) / b.CushionSec
		return int(frac * float64(b.Levels-1))
	}
}

// Probs implements mdp.Policy (one-hot on the deterministic choice).
func (b *BBPolicy) Probs(obs []float64) []float64 {
	return mdp.OneHot(b.Levels, b.Level(BufferSecFromObs(obs)))
}

// RandomPolicy selects every level uniformly at random — the paper's
// "Random" naive baseline, which anchors the normalized score of 0.
type RandomPolicy struct{ Levels int }

// Probs implements mdp.Policy.
func (r RandomPolicy) Probs([]float64) []float64 {
	p := make([]float64, r.Levels)
	u := 1 / float64(r.Levels)
	for i := range p {
		p[i] = u
	}
	return p
}

// RateBasedPolicy picks the highest level whose bitrate fits under a
// safety fraction of the harmonic-mean throughput of recent chunks. It
// is not part of the paper's evaluation but is a standard third
// heuristic, included for the extension experiments.
type RateBasedPolicy struct {
	BitratesKbps []float64
	// SafetyFactor discounts the throughput estimate (e.g. 0.9).
	SafetyFactor float64
}

// NewRateBasedPolicy returns a rate-based policy over the given ladder.
func NewRateBasedPolicy(bitratesKbps []float64) *RateBasedPolicy {
	return &RateBasedPolicy{BitratesKbps: bitratesKbps, SafetyFactor: 0.9}
}

// Probs implements mdp.Policy.
func (r *RateBasedPolicy) Probs(obs []float64) []float64 {
	hist := ThroughputHistoryMbps(obs)
	// Harmonic mean over non-zero entries (zeros are episode-start
	// padding).
	var invSum float64
	var n int
	for _, v := range hist {
		if v > 0 {
			invSum += 1 / v
			n++
		}
	}
	level := 0
	if n > 0 {
		est := float64(n) / invSum * r.SafetyFactor * 1000 // kbps
		for l, kbps := range r.BitratesKbps {
			if kbps <= est {
				level = l
			}
		}
	}
	return mdp.OneHot(len(r.BitratesKbps), level)
}

// BolaPolicy is a simplified BOLA (Lyapunov-based) ABR controller,
// provided as an additional default-policy option for the future-work
// experiments ("considering ... other default policies", §5). The
// control knob V trades buffer slack for bitrate; utilities are
// logarithmic in bitrate as in the BOLA paper.
type BolaPolicy struct {
	BitratesKbps []float64
	ChunkSec     float64
	// V is the Lyapunov gain; larger favors bitrate over buffer safety.
	V float64
	// GammaP is the buffer target offset (in chunks).
	GammaP float64
}

// NewBolaPolicy returns a BOLA policy tuned for the given ladder/buffer.
func NewBolaPolicy(bitratesKbps []float64, chunkSec, bufferCapSec float64) *BolaPolicy {
	// Standard BOLA parameterization from the paper: choose V so the
	// maximum level is reached near the buffer cap.
	utilMax := math.Log(bitratesKbps[len(bitratesKbps)-1] / bitratesKbps[0])
	gammaP := 5.0
	v := (bufferCapSec/chunkSec - 1) / (utilMax + gammaP)
	return &BolaPolicy{BitratesKbps: bitratesKbps, ChunkSec: chunkSec, V: v, GammaP: gammaP}
}

// Level returns BOLA's deterministic choice for a buffer occupancy.
func (b *BolaPolicy) Level(bufferSec float64) int {
	bufChunks := bufferSec / b.ChunkSec
	best, bestScore := 0, math.Inf(-1)
	for l, kbps := range b.BitratesKbps {
		util := math.Log(kbps / b.BitratesKbps[0])
		score := (b.V*(util+b.GammaP) - bufChunks) / (kbps / 1000)
		if score > bestScore {
			best, bestScore = l, score
		}
	}
	return best
}

// Probs implements mdp.Policy.
func (b *BolaPolicy) Probs(obs []float64) []float64 {
	return mdp.OneHot(len(b.BitratesKbps), b.Level(BufferSecFromObs(obs)))
}

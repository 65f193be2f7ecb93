// Package abr implements the paper's case study: adaptive-bitrate video
// streaming (§3). It provides the video model (an EnvivioDash3 stand-in:
// 48 chunks of ~4 s in six bitrates, concatenated five times for
// evaluation), the linear QoE metric, a chunk-level trace-driven
// streaming environment equivalent to Pensieve's simulator (its download
// model a Link: Pensieve's analytic one, or netem's packet emulator),
// Pensieve's 6×8 observation encoding, the Buffer-Based, Random,
// Rate-Based, BOLA and RobustMPC baseline policies, and an offline
// oracle.
package abr

import (
	"fmt"

	"osap/internal/stats"
)

// Video describes an encoded video: a bitrate ladder and per-chunk sizes.
type Video struct {
	// Name identifies the video.
	Name string
	// BitratesKbps is the encoding ladder, ascending. The paper's six
	// resolutions (240p–1400p) correspond to Pensieve's ladder
	// {300, 750, 1200, 1850, 2850, 4300} kbps.
	BitratesKbps []float64
	// ChunkSec is the duration of each chunk in seconds.
	ChunkSec float64
	// SizesBytes[chunk][level] is the size of each chunk at each ladder
	// level.
	SizesBytes [][]float64
}

// DefaultBitratesKbps is Pensieve's bitrate ladder.
var DefaultBitratesKbps = []float64{300, 750, 1200, 1850, 2850, 4300}

// NumChunks returns the number of chunks.
func (v *Video) NumChunks() int { return len(v.SizesBytes) }

// NumLevels returns the number of bitrate levels.
func (v *Video) NumLevels() int { return len(v.BitratesKbps) }

// BitrateMbps returns ladder level's bitrate in Mbps.
func (v *Video) BitrateMbps(level int) float64 { return v.BitratesKbps[level] / 1000 }

// MaxBitrateKbps returns the top ladder rung.
func (v *Video) MaxBitrateKbps() float64 { return v.BitratesKbps[len(v.BitratesKbps)-1] }

// Validate checks structural invariants: an ascending ladder, positive
// chunk duration, and size rows matching the ladder.
func (v *Video) Validate() error {
	if len(v.BitratesKbps) == 0 {
		return fmt.Errorf("abr: video %q has no bitrates", v.Name)
	}
	for i := 1; i < len(v.BitratesKbps); i++ {
		if v.BitratesKbps[i] <= v.BitratesKbps[i-1] {
			return fmt.Errorf("abr: video %q ladder not ascending at %d", v.Name, i)
		}
	}
	if v.ChunkSec <= 0 {
		return fmt.Errorf("abr: video %q chunk duration %v", v.Name, v.ChunkSec)
	}
	if len(v.SizesBytes) == 0 {
		return fmt.Errorf("abr: video %q has no chunks", v.Name)
	}
	for c, row := range v.SizesBytes {
		if len(row) != len(v.BitratesKbps) {
			return fmt.Errorf("abr: video %q chunk %d has %d sizes, want %d",
				v.Name, c, len(row), len(v.BitratesKbps))
		}
		for l, s := range row {
			if s <= 0 {
				return fmt.Errorf("abr: video %q chunk %d level %d size %v", v.Name, c, l, s)
			}
		}
	}
	return nil
}

// SyntheticVideo builds an EnvivioDash3-like video: chunks chunks of
// chunkSec seconds on the default ladder, with deterministic per-chunk
// VBR size variation of ±15% driven by seed. Pass chunks=48, chunkSec=4
// for the paper's base video.
func SyntheticVideo(seed uint64, chunks int, chunkSec float64) *Video {
	rng := stats.NewRNG(seed)
	v := &Video{
		Name:         fmt.Sprintf("synthetic-%d", seed),
		BitratesKbps: append([]float64(nil), DefaultBitratesKbps...),
		ChunkSec:     chunkSec,
		SizesBytes:   make([][]float64, chunks),
	}
	for c := range v.SizesBytes {
		// One VBR factor per chunk: scene complexity affects all levels
		// together, as in real encoders.
		factor := 0.85 + 0.30*rng.Float64()
		row := make([]float64, len(v.BitratesKbps))
		for l, kbps := range v.BitratesKbps {
			row[l] = kbps * 1000 / 8 * chunkSec * factor
		}
		v.SizesBytes[c] = row
	}
	return v
}

// Repeat returns a video whose chunk sequence is the original repeated n
// times — the paper concatenates the base video five times to prolong
// the session (§3.1).
func (v *Video) Repeat(n int) *Video {
	if n <= 0 {
		panic("abr: Repeat with non-positive n")
	}
	out := &Video{
		Name:         fmt.Sprintf("%s x%d", v.Name, n),
		BitratesKbps: append([]float64(nil), v.BitratesKbps...),
		ChunkSec:     v.ChunkSec,
		SizesBytes:   make([][]float64, 0, n*len(v.SizesBytes)),
	}
	for i := 0; i < n; i++ {
		for _, row := range v.SizesBytes {
			out.SizesBytes = append(out.SizesBytes, append([]float64(nil), row...))
		}
	}
	return out
}

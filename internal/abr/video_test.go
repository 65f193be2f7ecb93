package abr

import (
	"math"
	"testing"
)

func TestSyntheticVideoStructure(t *testing.T) {
	v := SyntheticVideo(1, 48, 4)
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	if v.NumChunks() != 48 || v.NumLevels() != 6 {
		t.Fatalf("chunks=%d levels=%d", v.NumChunks(), v.NumLevels())
	}
	// Sizes within VBR bounds of nominal bitrate × duration.
	for c, row := range v.SizesBytes {
		for l, size := range row {
			nominal := v.BitratesKbps[l] * 1000 / 8 * v.ChunkSec
			ratio := size / nominal
			if ratio < 0.85 || ratio > 1.15 {
				t.Fatalf("chunk %d level %d ratio %v outside VBR band", c, l, ratio)
			}
		}
	}
}

func TestSyntheticVideoDeterministic(t *testing.T) {
	a := SyntheticVideo(7, 10, 4)
	b := SyntheticVideo(7, 10, 4)
	for c := range a.SizesBytes {
		for l := range a.SizesBytes[c] {
			if a.SizesBytes[c][l] != b.SizesBytes[c][l] {
				t.Fatal("same seed videos differ")
			}
		}
	}
	c := SyntheticVideo(8, 10, 4)
	if a.SizesBytes[0][0] == c.SizesBytes[0][0] {
		t.Fatal("different seeds produced identical size")
	}
}

func TestVBRFactorSharedAcrossLevels(t *testing.T) {
	v := SyntheticVideo(3, 5, 4)
	for c, row := range v.SizesBytes {
		base := row[0] / (v.BitratesKbps[0] * 1000 / 8 * v.ChunkSec)
		for l := 1; l < len(row); l++ {
			f := row[l] / (v.BitratesKbps[l] * 1000 / 8 * v.ChunkSec)
			if math.Abs(f-base) > 1e-9 {
				t.Fatalf("chunk %d: VBR factors differ across levels", c)
			}
		}
	}
}

func TestRepeat(t *testing.T) {
	v := SyntheticVideo(1, 48, 4)
	r := v.Repeat(5)
	if r.NumChunks() != 240 {
		t.Fatalf("repeat chunks = %d, want 240", r.NumChunks())
	}
	for i := 0; i < 48; i++ {
		for l := range v.SizesBytes[i] {
			if r.SizesBytes[i][l] != v.SizesBytes[i][l] ||
				r.SizesBytes[i+48][l] != v.SizesBytes[i][l] ||
				r.SizesBytes[i+192][l] != v.SizesBytes[i][l] {
				t.Fatal("repeat did not copy chunk sizes")
			}
		}
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRepeatPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SyntheticVideo(1, 4, 4).Repeat(0)
}

func TestValidateCatchesBadVideos(t *testing.T) {
	good := SyntheticVideo(1, 4, 4)
	cases := map[string]func(v *Video){
		"empty ladder":   func(v *Video) { v.BitratesKbps = nil },
		"non-ascending":  func(v *Video) { v.BitratesKbps[1] = v.BitratesKbps[0] },
		"zero duration":  func(v *Video) { v.ChunkSec = 0 },
		"no chunks":      func(v *Video) { v.SizesBytes = nil },
		"short size row": func(v *Video) { v.SizesBytes[0] = v.SizesBytes[0][:2] },
		"negative size":  func(v *Video) { v.SizesBytes[1][1] = -5 },
	}
	for name, mutate := range cases {
		v := SyntheticVideo(1, 4, 4)
		mutate(v)
		if err := v.Validate(); err == nil {
			t.Errorf("%s: expected validation error", name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good video rejected: %v", err)
	}
}

func TestQoEKnownValues(t *testing.T) {
	// No rebuffer, no switch.
	if got := ChunkQoE(4.3, 4.3, 0); got != 4.3 {
		t.Errorf("steady QoE = %v, want 4.3", got)
	}
	// First chunk: no smoothness penalty.
	if got := ChunkQoE(1.2, -1, 0); got != 1.2 {
		t.Errorf("first-chunk QoE = %v, want 1.2", got)
	}
	// Rebuffering penalty μ=4.3 per second.
	if got := ChunkQoE(0.3, 0.3, 2); math.Abs(got-(0.3-8.6)) > 1e-12 {
		t.Errorf("rebuffer QoE = %v, want %v", got, 0.3-8.6)
	}
	// Switching penalty is symmetric.
	up := ChunkQoE(2.85, 1.2, 0)
	down := ChunkQoE(1.2, 2.85, 0)
	if math.Abs((2.85-1.65)-up) > 1e-12 {
		t.Errorf("upswitch QoE = %v", up)
	}
	if math.Abs((1.2-1.65)-down) > 1e-12 {
		t.Errorf("downswitch QoE = %v", down)
	}
}

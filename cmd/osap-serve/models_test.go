package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/mdp"
	"osap/internal/rl"
	"osap/internal/serve"
	"osap/internal/stats"
	"osap/internal/trace"
)

// microRecipe is the quick lab cut to a micro budget and calibrated
// under knobs neither the quick lab nor the rule for a set without a
// record would pick: 3 members with none discarded, and l = 2.
func microRecipe() experiments.Config {
	cfg := experiments.QuickConfig()
	cfg.Registry.TracesPer = 6
	cfg.Registry.DurationSec = 120
	cfg.Train.Epochs = 3
	cfg.Train.RolloutsPerEpoch = 2
	cfg.Value.Episodes = 2
	cfg.Value.Passes = 2
	cfg.Trim = core.EnsembleConfig{Discard: 0}
	cfg.TriggerL = 2
	cfg.CalibIters = 2
	cfg.CalibEpisodes = 1
	cfg.OCSVMEpisodes = 2
	cfg.SelectBestAgent = false
	return cfg
}

// savedMicroSet trains the micro recipe's Norway set and saves it into a
// fresh -models directory.
func savedMicroSet(t *testing.T) (*experiments.Lab, *experiments.Artifacts, string) {
	t.Helper()
	lab, err := experiments.NewLab(microRecipe())
	if err != nil {
		t.Fatal(err)
	}
	a, err := lab.Artifacts(trace.DatasetNorway)
	if err != nil {
		t.Fatal(err)
	}
	path, err := experiments.SaveArtifacts(t.TempDir(), a)
	if err != nil {
		t.Fatal(err)
	}
	return lab, a, filepath.Dir(path)
}

// loadModels loads the Norway set a -models directory holds and builds
// its guard factory, as osap-serve does.
func loadModels(t *testing.T, dir string) (*experiments.Artifacts, *serve.GuardFactory) {
	t.Helper()
	arts, err := loadArtifacts(trace.DatasetNorway, dir)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := serve.NewGuardFactory(arts, serve.GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return arts, factory
}

// guardTape records observations of the buffer-based policy streaming
// over Norway's test traces, then Belgium's, so the tape holds in- and
// out-of-distribution steps for the Norway-trained guards.
func guardTape(t *testing.T, lab *experiments.Lab) [][]float64 {
	t.Helper()
	video := microRecipe().EvalVideo
	bb := abr.NewBBPolicy(video.NumLevels())
	rng := stats.NewRNG(0x7a9e)
	var tape [][]float64
	for _, name := range []string{trace.DatasetNorway, trace.DatasetBelgium} {
		d, err := lab.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		env, err := abr.NewEnv(abr.DefaultEnvConfig(video, d.Test))
		if err != nil {
			t.Fatal(err)
		}
		obs := env.Reset(rng)
		for i := 0; i < 150; i++ {
			tape = append(tape, append([]float64(nil), obs...))
			next, _, done := env.Step(mdp.ArgmaxAction(bb.Probs(obs)))
			if obs = next; done {
				obs = env.Reset(rng)
			}
		}
	}
	return tape
}

// sameDecisions steps want and got over the tape and fails at the first
// step whose action, flags, step or score bits differ.
func sameDecisions(t *testing.T, scheme string, want, got *core.Guard, tape [][]float64) {
	t.Helper()
	var nonzero bool
	for i, obs := range tape {
		w, g := want.Decide(obs), got.Decide(obs)
		if mdp.ArgmaxAction(w.Probs) != mdp.ArgmaxAction(g.Probs) || w.UsedDefault != g.UsedDefault ||
			w.Fired != g.Fired || w.Step != g.Step || math.Float64bits(w.Score) != math.Float64bits(g.Score) {
			t.Fatalf("%s step %d: served %+v, lab %+v", scheme, i, g, w)
		}
		nonzero = nonzero || w.Score != 0
	}
	if !nonzero {
		t.Errorf("%s scored 0 on every step: the tape compares nothing", scheme)
	}
}

// TestModelsServeTheLabsGuard: a set calibrated under its own trim and
// l, saved and served through -models, decides bit for bit as the lab's
// guard over it, for every scheme.
func TestModelsServeTheLabsGuard(t *testing.T) {
	lab, a, dir := savedMicroSet(t)
	_, factory := loadModels(t, dir)
	frozen, err := rl.Freeze(a.Agents, a.ValueNets)
	if err != nil {
		t.Fatal(err)
	}
	tape := guardTape(t, lab)
	for _, scheme := range factory.Schemes() {
		want, err := experiments.NewGuard(&a.Calibration, scheme, frozen.NewScratch(), experiments.Probation{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := factory.NewGuard(scheme)
		if err != nil {
			t.Fatal(err)
		}
		sameDecisions(t, scheme, want, got, tape)
	}
}

// TestModelsServeV2File: a v2 file — the payload without a record —
// loads under the assumed record and serves as the server always served
// one, under the quick lab's knobs: l = 3, 1 of 3 members discarded,
// and the U_S window of its OC-SVM.
func TestModelsServeV2File(t *testing.T) {
	lab, a, dir := savedMicroSet(t)
	path := filepath.Join(dir, a.Dataset+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Artifacts json.RawMessage `json:"artifacts"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	cut := bytes.LastIndex(env.Artifacts, []byte(`,"record":`))
	payload := append(env.Artifacts[:cut:cut], '}')
	sum := sha256.Sum256(payload)
	v2 := `{"format":"osap-artifacts/v2","sha256":"` + hex.EncodeToString(sum[:]) + `","artifacts":` + string(payload) + `}`
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, factory := loadModels(t, dir)
	if !loaded.Record.Assumed {
		t.Errorf("v2 file loaded under %+v, want an assumed record", loaded.Record)
	}
	quick := experiments.QuickConfig()
	parent := *a
	parent.Record = experiments.Record{ThroughputWindow: quick.ThroughputWindow, K: a.OCSVM.Dim / 2,
		TriggerL: quick.TriggerL, Discard: quick.Trim.Discard}
	frozen, err := rl.Freeze(a.Agents, a.ValueNets)
	if err != nil {
		t.Fatal(err)
	}
	tape := guardTape(t, lab)
	for _, scheme := range factory.Schemes() {
		want, err := experiments.NewGuard(&parent.Calibration, scheme, frozen.NewScratch(), experiments.Probation{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := factory.NewGuard(scheme)
		if err != nil {
			t.Fatal(err)
		}
		sameDecisions(t, scheme, want, got, tape)
	}
}

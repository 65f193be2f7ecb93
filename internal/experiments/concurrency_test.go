package experiments

import (
	"sync"
	"testing"

	"osap/internal/core"
	"osap/internal/stats"
)

// freshLabWithArtifacts builds a new Lab sharing the package's
// quick-config artifacts (installed, not retrained), so concurrency
// tests start from a warm cache without paying for training again.
func freshLabWithArtifacts(t *testing.T, datasets ...string) *Lab {
	t.Helper()
	src := quickLab(t)
	l, err := NewLab(QuickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range datasets {
		a, err := src.Artifacts(ds)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.InstallArtifacts(a); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// TestConcurrentEvaluatePairMatchesSequential checks that hammering
// EvaluatePair from many goroutines returns exactly the sequential
// results: per-pair RNGs derive from the pair key, so scheduling must
// not matter.
func TestConcurrentEvaluatePairMatchesSequential(t *testing.T) {
	pairs := [][2]string{
		{"gamma22", "gamma22"},
		{"gamma22", "gamma12"},
		{"gamma22", "logistic"},
	}

	seq := freshLabWithArtifacts(t, "gamma22")
	want := make([]map[string]float64, len(pairs))
	for i, p := range pairs {
		r, err := seq.EvaluatePair(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}

	par := freshLabWithArtifacts(t, "gamma22")
	got := make([]map[string]float64, len(pairs))
	errs := make([]error, len(pairs))
	var wg sync.WaitGroup
	for i, p := range pairs {
		wg.Add(1)
		go func(i int, tr, te string) {
			defer wg.Done()
			got[i], errs[i] = par.EvaluatePair(tr, te)
		}(i, p[0], p[1])
	}
	wg.Wait()

	for i, p := range pairs {
		if errs[i] != nil {
			t.Fatalf("pair %v: %v", p, errs[i])
		}
		for _, s := range Schemes() {
			if got[i][s] != want[i][s] {
				t.Errorf("pair %v scheme %s: parallel %v, sequential %v", p, s, got[i][s], want[i][s])
			}
		}
	}
}

// TestEvaluatePairSingleFlight checks concurrent callers of one pair
// share a single evaluation (same result map, not equal copies).
func TestEvaluatePairSingleFlight(t *testing.T) {
	l := freshLabWithArtifacts(t, "gamma22")
	const callers = 8
	results := make([]map[string]float64, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = l.EvaluatePair("gamma22", "gamma12")
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !sameMap(results[i], results[0]) {
			t.Fatalf("caller %d got a different result map", i)
		}
	}
}

func sameMap(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

// TestConcurrentGuardsIndependent runs one guard per goroutine over
// shared artifacts — the supported concurrency model (workspaces are
// per-guard, artifacts immutable) — and checks every goroutine
// reproduces the sequential result. Each guard runs on a scratch of
// its own over the one packed copy of the artifacts.
func TestConcurrentGuardsIndependent(t *testing.T) {
	l := quickLab(t)
	a, frozen, err := l.trained("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	d, err := l.Dataset("gamma12")
	if err != nil {
		t.Fatal(err)
	}

	run := func(scheme string) float64 {
		g, err := NewGuard(&a.Calibration, scheme, frozen.NewScratch(), Probation{})
		if err != nil {
			t.Error(err)
			return 0
		}
		env := l.newEnv(l.cfg.EvalVideo, d.Test)
		rng := stats.NewRNG(99)
		return core.MeanQoE(core.EvaluateGuard(env, g, rng, 2))
	}

	for _, scheme := range GuardSchemes() {
		want := run(scheme)
		const workers = 4
		got := make([]float64, workers)
		var wg sync.WaitGroup
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = run(scheme)
			}(i)
		}
		wg.Wait()
		for i, q := range got {
			if q != want {
				t.Errorf("%s guard %d: QoE %v, sequential %v", scheme, i, q, want)
			}
		}
	}
}

// microConfig shrinks every budget far below QuickConfig so a full
// 6-dataset, 36-pair grid stays affordable in a unit test.
func microConfig() Config {
	cfg := QuickConfig()
	cfg.Registry.TracesPer = 6
	cfg.Registry.DurationSec = 120
	cfg.Train.Epochs = 3
	cfg.Train.RolloutsPerEpoch = 2
	cfg.Value.Episodes = 2
	cfg.Value.Passes = 2
	cfg.EnsembleSize = 2
	cfg.Trim = core.EnsembleConfig{Discard: 0}
	cfg.CalibIters = 2
	cfg.CalibEpisodes = 1
	cfg.EvalEpisodes = 1
	cfg.OCSVMEpisodes = 2
	cfg.SelectBestAgent = false
	return cfg
}

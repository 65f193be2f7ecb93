package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// sharedLab trains quick-config artifacts once for the whole test
// package.
var (
	labOnce sync.Once
	lab     *Lab
	labErr  error
)

func quickLab(t testing.TB) *Lab {
	t.Helper()
	labOnce.Do(func() {
		lab, labErr = NewLab(QuickConfig())
	})
	if labErr != nil {
		t.Fatal(labErr)
	}
	return lab
}

func TestConfigValidation(t *testing.T) {
	if err := QuickConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := PaperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
		want string // a substring of the error
	}{
		{"ensemble of 1", func(c *Config) { c.EnsembleSize = 1 }, "ensemble size"},
		{"discard > ensemble", func(c *Config) { c.Trim.Discard = 99 }, "discard"},
		{"nil video", func(c *Config) { c.TrainVideo = nil }, "TrainVideo"},
		{"zero value passes", func(c *Config) { c.Value.Passes = 0 }, "pass"},
		{"NaN gamma", func(c *Config) { c.Train.Gamma = math.NaN() }, "gamma"},
		{"value net differs", func(c *Config) { c.Value.Net.Hidden++ }, "Value.Net"},
		{"value gamma differs", func(c *Config) { c.Value.Gamma = 0.9 }, "Value.Gamma"},
		{"train seed", func(c *Config) { c.Train.Seed = 1 }, "Train.Seed"},
		{"value seed", func(c *Config) { c.Value.Seed = 1 }, "Value.Seed"},
		{"value init seed", func(c *Config) { c.Value.InitSeed = 1 }, "Value.InitSeed"},
		{"ocsvm seed", func(c *Config) { c.OCSVM.Seed = 1 }, "OCSVM.Seed"},
	} {
		bad := QuickConfig()
		tc.mut(&bad)
		if err := bad.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate() = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func TestStateCfgSelection(t *testing.T) {
	cfg := PaperConfig()
	if k := cfg.guardRecord("norway").K; k != 5 {
		t.Errorf("norway K = %d, want 5", k)
	}
	if k := cfg.guardRecord("gamma22").K; k != 30 {
		t.Errorf("gamma22 K = %d, want 30", k)
	}
}

func TestPairList(t *testing.T) {
	in := PairList(true)
	out := PairList(false)
	if len(in) != 6 {
		t.Errorf("in-distribution pairs = %d, want 6", len(in))
	}
	if len(out) != 30 {
		t.Errorf("OOD pairs = %d, want 30", len(out))
	}
	for _, p := range in {
		if p[0] != p[1] {
			t.Errorf("in-distribution pair %v mismatched", p)
		}
	}
	for _, p := range out {
		if p[0] == p[1] {
			t.Errorf("OOD pair %v matched", p)
		}
	}
}

func TestNormalize(t *testing.T) {
	if n := Normalize(5, 0, 10); n != 0.5 {
		t.Errorf("Normalize = %v", n)
	}
	if n := Normalize(-5, 0, 10); n != -0.5 {
		t.Errorf("Normalize = %v", n)
	}
	if n := Normalize(7, 3, 3); n != 0 {
		t.Errorf("degenerate Normalize = %v, want 0", n)
	}
	// BB itself normalizes to 1, Random to 0.
	pair := map[string]float64{SchemeBB: 42, SchemeRandom: -7, SchemePensieve: 42}
	if s := NormalizedScore(pair, SchemeBB); s != 1 {
		t.Errorf("BB score = %v", s)
	}
	if s := NormalizedScore(pair, SchemeRandom); s != 0 {
		t.Errorf("Random score = %v", s)
	}
}

func TestHashStringStable(t *testing.T) {
	if hashString("norway") != hashString("norway") {
		t.Error("hash not deterministic")
	}
	if hashString("norway") == hashString("belgium") {
		t.Error("hash collision on dataset names")
	}
}

func TestLabUnknownDataset(t *testing.T) {
	l := quickLab(t)
	if _, err := l.Dataset("nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := l.Artifacts("nope"); err == nil {
		t.Error("artifacts for unknown dataset accepted")
	}
	if _, err := l.EvaluatePair("nope", "norway"); err == nil {
		t.Error("pair with unknown dataset accepted")
	}
}

func TestArtifactsPipeline(t *testing.T) {
	l := quickLab(t)
	a, err := l.Artifacts("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Agents) != l.cfg.EnsembleSize {
		t.Errorf("agents = %d", len(a.Agents))
	}
	if len(a.ValueNets) != l.cfg.EnsembleSize {
		t.Errorf("value nets = %d", len(a.ValueNets))
	}
	if a.OCSVM == nil || a.OCSVM.NumSVs() == 0 {
		t.Error("no OC-SVM")
	}
	if a.AlphaPi <= 0 || a.AlphaV <= 0 {
		t.Errorf("thresholds not calibrated: %v %v", a.AlphaPi, a.AlphaV)
	}
	// Cached: same pointer on second call.
	b, err := l.Artifacts("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("artifacts not cached")
	}
}

func TestEvaluatePairCompleteAndCached(t *testing.T) {
	l := quickLab(t)
	r, err := l.EvaluatePair("gamma22", "gamma22")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range Schemes() {
		if _, ok := r[s]; !ok {
			t.Errorf("missing scheme %s", s)
		}
		if math.IsNaN(r[s]) || math.IsInf(r[s], 0) {
			t.Errorf("scheme %s QoE = %v", s, r[s])
		}
	}
	r2, err := l.EvaluatePair("gamma22", "gamma22")
	if err != nil {
		t.Fatal(err)
	}
	for s := range r {
		if r[s] != r2[s] {
			t.Error("pair evaluation not cached/deterministic")
		}
	}
}

func TestBuildGuardUnknownScheme(t *testing.T) {
	l := quickLab(t)
	a, frozen, err := l.trained("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGuard(&a.Calibration, SchemePensieve, frozen.NewScratch(), Probation{}); err == nil {
		t.Error("non-guard scheme accepted")
	}
}

func TestFigure2SingleTrain(t *testing.T) {
	l := quickLab(t)
	// Restrict to a single already-trained dataset to keep the quick
	// test fast: Figure2 needs artifacts only for the train dataset.
	f, err := l.Figure2("gamma22")
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 6 {
		t.Fatalf("rows = %d", len(f.Rows))
	}
	out := f.Render()
	for _, want := range []string{"Figure 2", "gamma22", "Pensieve", "BB", "Random"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRenderersSmoke(t *testing.T) {
	// Exercise renderers on synthetic results (no training).
	f1 := &Figure1Result{Order: []string{"a"}, Rows: map[string]map[string]float64{
		"a": {SchemePensieve: 1, SchemeND: 0.5, SchemeAEns: 0.4, SchemeVEns: 0.6, SchemeBB: 0.2},
	}}
	if !strings.Contains(f1.Render(), "Figure 1") {
		t.Error("figure 1 render")
	}
	f3 := &Figure3Result{Order: []string{"a"}, Score: map[string]map[string]float64{"a": {"a": 1.5}}}
	if !strings.Contains(f3.Render(), "1.50") {
		t.Error("figure 3 render")
	}
}

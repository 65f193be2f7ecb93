package learn

import (
	"math"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/nn"
	"osap/internal/ocsvm"
	"osap/internal/registry"
	"osap/internal/rl"
	"osap/internal/stats"
)

// thrSlot is the newest throughput-history slot in an ABR observation
// (row 2, last position); the gate's Extract reads Mbps from it.
const thrSlot = 3*abr.HistoryLen - 1

// learnArtifacts builds a baseline artifact set on an OC-SVM trained
// from a stationary 3±0.5 Mbps series, with freshly initialized
// (untrained) ensembles — inference cost and disagreement behavior are
// realistic, decision quality is irrelevant here — recorded under the
// paper's knobs (discard 2 of however many members).
func learnArtifacts(t testing.TB, ensemble int, alphaPi, alphaV float64) *experiments.Artifacts {
	t.Helper()
	netCfg := rl.DefaultNetConfig()
	agents := make([]*rl.ActorCritic, ensemble)
	for i := range agents {
		ac, err := rl.NewActorCritic(netCfg, 0x51ED+uint64(i)*0x9E37)
		if err != nil {
			t.Fatal(err)
		}
		agents[i] = ac
	}
	valueNets := make([]*nn.Network, ensemble)
	for i, a := range agents {
		valueNets[i] = a.Critic
	}
	rng := stats.NewRNG(0xFEED)
	series := make([]float64, 400)
	for i := range series {
		series[i] = 3 + 0.5*rng.NormFloat64()
	}
	feats := core.BuildStateFeatures(series, core.DefaultStateSignalConfig())
	model, err := ocsvm.Train(feats, ocsvm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return &experiments.Artifacts{
		Agents:    agents,
		ValueNets: valueNets,
		Calibration: experiments.Calibration{
			Dataset: "learntest",
			OCSVM:   model,
			AlphaPi: alphaPi,
			AlphaV:  alphaV,
			Record:  experiments.Record{ThroughputWindow: 10, K: 5, TriggerL: 3, Discard: 2},
		},
	}
}

func TestGateLifecycleInDistribution(t *testing.T) {
	arts := learnArtifacts(t, 4, 1e9, 1e9)
	l := newTestLearner(t, arts, func(c *Config) {
		c.RateEvery = 4
		c.RateBurst = 2
	})
	defer l.Stop() //nolint:errcheck
	g, err := l.NewGate(1)
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(1)
	obs := make([]float64, abr.ObsDim)
	counts := make(map[Verdict]int)
	const steps = 200
	for i := 0; i < steps; i++ {
		obs[thrSlot] = (3 + 0.5*rng.NormFloat64()) / 10
		counts[g.Check(obs)]++
	}

	if counts[VerdictWarmup] == 0 {
		t.Error("no warmup verdicts while the feature windows filled")
	}
	if counts[VerdictAdmit] == 0 {
		t.Error("no admissions on in-distribution traffic")
	}
	if counts[VerdictRate] == 0 {
		t.Error("rate limiter never engaged at RateEvery=4 RateBurst=2 over 200 steps")
	}
	c := l.Counters()
	if got, max := c.Admitted.Load(), uint64(steps/4+2); got > max {
		t.Errorf("admitted %d steps, rate limit allows at most %d", got, max)
	}
	if c.Checked.Load() != uint64(steps) {
		t.Errorf("Checked=%d, want %d", c.Checked.Load(), steps)
	}
	var rejected uint64
	for v := VerdictWarmup; v < numVerdicts; v++ {
		rejected += c.Rejected(v)
	}
	if c.Checked.Load() != c.Admitted.Load()+rejected {
		t.Errorf("conservation violated: checked=%d admitted=%d rejected=%d",
			c.Checked.Load(), c.Admitted.Load(), rejected)
	}
	if c.RingDropped.Load() != 0 {
		t.Errorf("ring dropped %d samples with an idle learner", c.RingDropped.Load())
	}

	// Everything admitted must land in the training window once the
	// learner drains (Stop drains synchronously).
	admitted := c.Admitted.Load()
	if err := l.Stop(); err != nil {
		t.Fatal(err)
	}
	if fill := l.Snapshot().WindowFill; uint64(fill) != admitted {
		t.Errorf("window holds %d samples, gate admitted %d", fill, admitted)
	}
}

func TestGateRejectsDistributionShift(t *testing.T) {
	arts := learnArtifacts(t, 4, 1e9, 1e9)
	l := newTestLearner(t, arts, func(c *Config) {
		c.RateEvery = 1
		c.RateBurst = 1 << 20
	})
	defer l.Stop() //nolint:errcheck
	g, err := l.NewGate(1)
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(2)
	obs := make([]float64, abr.ObsDim)
	for i := 0; i < 60; i++ {
		obs[thrSlot] = (3 + 0.5*rng.NormFloat64()) / 10
		g.Check(obs)
	}
	if l.Counters().Admitted.Load() == 0 {
		t.Fatal("no admissions during the honest warm phase")
	}

	// A 10× throughput shift: once the feature window has fully turned
	// over (ThroughputWindow + K steps), every step must be rejected as
	// out-of-distribution — this is the poisoning ratchet.
	sig := core.DefaultStateSignalConfig()
	turnover := sig.ThroughputWindow + sig.K
	for i := 0; i < turnover; i++ {
		obs[thrSlot] = (30 + 0.5*rng.NormFloat64()) / 10
		g.Check(obs)
	}
	for i := 0; i < 40; i++ {
		obs[thrSlot] = (30 + 0.5*rng.NormFloat64()) / 10
		if v := g.Check(obs); v != VerdictState {
			t.Fatalf("shifted step %d: verdict %v, want VerdictState", i, v)
		}
	}
	if l.Counters().Rejected(VerdictState) == 0 {
		t.Error("no state_ood rejections recorded")
	}
}

func TestGateRejectsNonFiniteThroughput(t *testing.T) {
	arts := learnArtifacts(t, 4, 1e9, 1e9)
	l := newTestLearner(t, arts, func(c *Config) {
		c.RateEvery = 1
		c.RateBurst = 1 << 20
	})
	defer l.Stop() //nolint:errcheck
	g, err := l.NewGate(1)
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRNG(3)
	obs := make([]float64, abr.ObsDim)
	for i := 0; i < 60; i++ {
		obs[thrSlot] = (3 + 0.5*rng.NormFloat64()) / 10
		g.Check(obs)
	}
	before := l.Counters().Admitted.Load()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 20; i++ {
			obs[thrSlot] = bad / 10
			if v := g.Check(obs); v == VerdictAdmit {
				t.Fatalf("admitted a step with %v throughput", bad)
			}
		}
	}
	if got := l.Counters().Admitted.Load(); got != before {
		t.Errorf("admissions grew from %d to %d during the non-finite feed", before, got)
	}
}

func TestGatePolicyAndValueVeto(t *testing.T) {
	// With an impossibly tight AlphaPi, every post-warmup in-distribution
	// step must be vetoed by U_π before U_V or the rate limit are even
	// consulted — and symmetrically for AlphaV.
	cases := []struct {
		name             string
		alphaPi, alphaV  float64
		want             Verdict
		wantZeroOfOthers Verdict
	}{
		{"policy veto", 1e-300, 1e9, VerdictPolicy, VerdictValue},
		{"value veto", 1e9, 1e-300, VerdictValue, VerdictPolicy},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arts := learnArtifacts(t, 5, tc.alphaPi, tc.alphaV)
			l := newTestLearner(t, arts, nil)
			defer l.Stop() //nolint:errcheck
			g, err := l.NewGate(1)
			if err != nil {
				t.Fatal(err)
			}
			rng := stats.NewRNG(4)
			obs := make([]float64, abr.ObsDim)
			for i := 0; i < 120; i++ {
				obs[thrSlot] = (3 + 0.5*rng.NormFloat64()) / 10
				g.Check(obs)
			}
			c := l.Counters()
			if c.Admitted.Load() != 0 {
				t.Errorf("admitted %d steps through a closed threshold", c.Admitted.Load())
			}
			if c.Rejected(tc.want) == 0 {
				t.Errorf("no %v rejections", tc.want)
			}
			if c.Rejected(tc.wantZeroOfOthers) != 0 {
				t.Errorf("%v rejections recorded although %v vetoes first", tc.wantZeroOfOthers, tc.want)
			}
		})
	}
}

func TestLearnerPersistsAndBootstrapsLog(t *testing.T) {
	arts := learnArtifacts(t, 4, 1e9, 1e9)
	dir := t.TempDir()
	l := newTestLearner(t, arts, func(c *Config) {
		c.RateEvery = 1
		c.RateBurst = 1 << 20
		c.LogDir = dir
	})
	g, err := l.NewGate(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(5)
	obs := make([]float64, abr.ObsDim)
	for i := 0; i < 150; i++ {
		obs[thrSlot] = (3 + 0.5*rng.NormFloat64()) / 10
		g.Check(obs)
	}
	admitted := l.Counters().Admitted.Load()
	if admitted == 0 {
		t.Fatal("nothing admitted")
	}
	if err := l.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := l.Counters().LogRecords.Load(); got != admitted {
		t.Fatalf("logged %d records, admitted %d", got, admitted)
	}

	// A restarted learner recovers the full admitted history as its
	// bootstrap window.
	l2 := newTestLearner(t, arts, func(c *Config) { c.LogDir = dir })
	defer l2.Stop() //nolint:errcheck
	if got := l2.Counters().BootstrapRecords.Load(); got != admitted {
		t.Fatalf("bootstrap recovered %d records, want %d", got, admitted)
	}
	if fill := l2.Snapshot().WindowFill; uint64(fill) != admitted {
		t.Fatalf("bootstrap window holds %d, want %d", fill, admitted)
	}
}

func TestRefitDeterministicFromSameLog(t *testing.T) {
	arts := learnArtifacts(t, 4, 1e9, 1e9)
	rng := stats.NewRNG(6)
	series := make([]float64, 300)
	for i := range series {
		series[i] = 3 + 0.5*rng.NormFloat64()
	}
	feats := core.BuildStateFeatures(series, core.DefaultStateSignalConfig())

	refit := func(dir string) *Proposal {
		if _, err := ExportBootstrap(dir, feats, LogConfig{}); err != nil {
			t.Fatal(err)
		}
		l := newTestLearner(t, arts, func(c *Config) {
			c.LogDir = dir
			c.MinRefitSamples = 64
			c.OCSVM = ocsvm.Config{Nu: 0.05, Seed: 42}
		})
		defer l.Stop() //nolint:errcheck
		prop, err := l.Refit()
		if err != nil {
			t.Fatal(err)
		}
		return prop
	}
	a := refit(t.TempDir())
	b := refit(t.TempDir())
	if a.Samples != b.Samples || a.NumSVs != b.NumSVs {
		t.Fatalf("refit shape differs: %+v vs %+v", a, b)
	}
	if math.Float64bits(a.Rho) != math.Float64bits(b.Rho) {
		t.Fatalf("refit rho not bit-identical: %v vs %v", a.Rho, b.Rho)
	}
	if a.AlphaPi != b.AlphaPi || a.AlphaV != b.AlphaV {
		t.Fatalf("recalibrated thresholds differ: %+v vs %+v", a, b)
	}
}

func TestRefitPublishesProposedVersion(t *testing.T) {
	arts := learnArtifacts(t, 4, 1e9, 1e9)
	root := t.TempDir()
	logDir := t.TempDir()
	rng := stats.NewRNG(7)
	series := make([]float64, 300)
	for i := range series {
		series[i] = 3 + 0.5*rng.NormFloat64()
	}
	feats := core.BuildStateFeatures(series, core.DefaultStateSignalConfig())
	if _, err := ExportBootstrap(logDir, feats, LogConfig{}); err != nil {
		t.Fatal(err)
	}

	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	l := newTestLearner(t, arts, func(c *Config) {
		c.LogDir = logDir
		c.MinRefitSamples = 64
		c.RegistryRoot = root
		c.ParentVersion = "v7"
		c.Now = func() time.Time { return fixed }
	})
	defer l.Stop() //nolint:errcheck

	prop, err := l.Refit()
	if err != nil {
		t.Fatal(err)
	}
	if !prop.Published || prop.Version != "v7-refit-001" || prop.Parent != "v7" {
		t.Fatalf("unexpected proposal: %+v", prop)
	}

	reg, err := registry.Open(root)
	if err != nil {
		t.Fatal(err)
	}
	promoted, proposed, err := reg.Partition()
	if err != nil {
		t.Fatal(err)
	}
	if len(promoted) != 0 {
		t.Fatalf("proposal leaked into the promoted set: %v", promoted)
	}
	if len(proposed) != 1 || proposed[0] != "v7-refit-001" {
		t.Fatalf("proposed = %v, want [v7-refit-001]", proposed)
	}
	m, err := reg.Manifest("v7-refit-001")
	if err != nil {
		t.Fatal(err)
	}
	if !m.Proposed || m.Parent != "v7" || m.CreatedAt != fixed.Format(time.RFC3339) {
		t.Fatalf("manifest %+v: want Proposed lineage of v7 at the seamed clock", m)
	}
	gen, err := reg.Load("v7-refit-001", arts.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	if gen.Artifacts.OCSVM.NumSVs() != prop.NumSVs {
		t.Fatalf("published OC-SVM has %d SVs, proposal says %d", gen.Artifacts.OCSVM.NumSVs(), prop.NumSVs)
	}
	if gen.Artifacts.AlphaPi != prop.AlphaPi || gen.Artifacts.AlphaV != prop.AlphaV {
		t.Fatal("published thresholds differ from the proposal")
	}

	// Sequence numbering: the next refit proposes -002.
	prop2, err := l.Refit()
	if err != nil {
		t.Fatal(err)
	}
	if prop2.Version != "v7-refit-002" {
		t.Fatalf("second proposal is %q, want v7-refit-002", prop2.Version)
	}
}

func TestRefitRequiresMinimumWindow(t *testing.T) {
	arts := learnArtifacts(t, 4, 1e9, 1e9)
	l := newTestLearner(t, arts, nil)
	defer l.Stop() //nolint:errcheck
	if _, err := l.Refit(); err == nil {
		t.Fatal("refit succeeded on an empty window")
	}
	if l.Counters().RefitFailures.Load() == 0 {
		t.Error("refit failure not counted")
	}
}

func TestRefitRecalibratesThresholds(t *testing.T) {
	arts := learnArtifacts(t, 5, 1e9, 1e9)
	l := newTestLearner(t, arts, func(c *Config) {
		c.RateEvery = 1
		c.RateBurst = 1 << 20
		c.MinRefitSamples = 64
	})
	defer l.Stop() //nolint:errcheck
	g, err := l.NewGate(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(8)
	obs := make([]float64, abr.ObsDim)
	for i := 0; i < 200; i++ {
		obs[thrSlot] = (3 + 0.5*rng.NormFloat64()) / 10
		g.Check(obs)
	}
	prop, err := l.Refit()
	if err != nil {
		t.Fatal(err)
	}
	// The admitted traffic's disagreement scores are tiny compared to
	// the 1e9 placeholder thresholds: recalibration must tighten both
	// to the observed quantile, and never to a non-positive value.
	if !(prop.AlphaPi > 0) || prop.AlphaPi >= 1e9 {
		t.Errorf("AlphaPi not recalibrated: %v", prop.AlphaPi)
	}
	if !(prop.AlphaV > 0) || prop.AlphaV >= 1e9 {
		t.Errorf("AlphaV not recalibrated: %v", prop.AlphaV)
	}
	// Each recalibrated threshold records its own rule, not the
	// baseline's; the knobs it holds under are the baseline's.
	for _, p := range []experiments.Provenance{prop.Record.AlphaPi, prop.Record.AlphaV} {
		if p.Rule != experiments.RuleQuantile || p.Target != 0.95 || p.Evals < 64 {
			t.Errorf("recalibrated threshold's provenance %+v, want the 0.95 quantile of ≥ 64 samples", p)
		}
	}
	if want := arts.Record; prop.Record.K != want.K || prop.Record.Discard != want.Discard {
		t.Errorf("refit record %+v, want the baseline's knobs %+v", prop.Record, want)
	}
}

// TestLearnerPinsTheRecord: the gate's calibration knobs are the
// baseline's record; a config asking for others is refused.
func TestLearnerPinsTheRecord(t *testing.T) {
	arts := learnArtifacts(t, 4, 1e9, 1e9)
	for _, cfg := range []Config{
		{SignalConfig: core.StateSignalConfig{ThroughputWindow: 10, K: 10}},
		{Trim: core.EnsembleConfig{Discard: 1}},
	} {
		cfg.Artifacts, cfg.Extract = arts, abr.LastThroughputMbps
		if l, err := New(cfg); err == nil {
			l.Stop() //nolint:errcheck
			t.Errorf("%+v %+v accepted against the record %+v", cfg.SignalConfig, cfg.Trim, arts.Record)
		}
	}
}

// newTestLearner builds a learner over the shared test substrate with
// a quiescent background goroutine (hour-scale flush), applying mut to
// the config first.
func newTestLearner(t testing.TB, arts *experiments.Artifacts, mut func(*Config)) *Learner {
	t.Helper()
	cfg := Config{
		Artifacts:     arts,
		Extract:       abr.LastThroughputMbps,
		FlushInterval: time.Hour,
	}
	if mut != nil {
		mut(&cfg)
	}
	l, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

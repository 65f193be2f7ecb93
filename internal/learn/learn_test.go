package learn

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/mdp"
	"osap/internal/registry"
	"osap/internal/rl"
	"osap/internal/stats"
	"osap/internal/trace"
)

// thrSlot is the newest throughput-history slot in an ABR observation
// (row 2, last position), the sample the gate's U_S reads.
const thrSlot = 3*abr.HistoryLen - 1

// servedSet is the committed paper-scale Norway set osap-serve serves
// (`make models-check` rebuilds it): the baseline every gate here
// judges against.
const servedSet = "../../cmd/osap-serve/testdata/norway.json"

var (
	servedOnce sync.Once
	served     *experiments.Artifacts
	servedErr  error
)

// sharedArtifacts loads the served set once per test binary. Tests
// only read it; one that needs other thresholds edits a copy of its
// own (a := *sharedArtifacts(t)).
func sharedArtifacts(t testing.TB) *experiments.Artifacts {
	t.Helper()
	servedOnce.Do(func() { served, servedErr = experiments.LoadArtifacts(servedSet) })
	if servedErr != nil {
		t.Fatal(servedErr)
	}
	return served
}

// viewerTape records n observations of the buffer-based policy
// streaming the paper-scale evaluation video over a Norway trace drawn
// under seed: the in-distribution traffic the served set was
// calibrated on. Episodes follow one another on the tape, as a fleet
// client streams them into one session.
func viewerTape(t testing.TB, seed uint64, n int) [][]float64 {
	t.Helper()
	video := experiments.PaperConfig().EvalVideo
	rng := stats.NewRNG(seed)
	env, err := abr.NewEnv(abr.DefaultEnvConfig(video, []*trace.Trace{trace.Norway3G().Generate(rng, 200)}))
	if err != nil {
		t.Fatal(err)
	}
	bb := abr.NewBBPolicy(video.NumLevels())
	tape := make([][]float64, 0, n)
	obs := env.Reset(rng)
	for len(tape) < n {
		tape = append(tape, slices.Clone(obs))
		next, _, done := env.Step(mdp.ArgmaxAction(bb.Probs(obs)))
		if obs = next; done {
			obs = env.Reset(rng)
		}
	}
	return tape
}

// tapeFeatures is the U_S feature vectors of a tape's throughput
// samples, windowed as the set's record says: what a gate admitting
// every step would log.
func tapeFeatures(arts *experiments.Artifacts, tape [][]float64) [][]float64 {
	thr := make([]float64, len(tape))
	for i, obs := range tape {
		thr[i] = abr.LastThroughputMbps(obs)
	}
	return core.BuildStateFeatures(thr, arts.Record.StateSignal())
}

func TestGateLifecycleInDistribution(t *testing.T) {
	l := newTestLearner(t, sharedArtifacts(t), nil)
	defer l.Stop() //nolint:errcheck
	g, err := l.NewGate(1)
	if err != nil {
		t.Fatal(err)
	}

	counts := make(map[Verdict]int)
	const steps = 200
	for _, obs := range viewerTape(t, 1, steps) {
		counts[g.Check(obs)]++
	}

	if counts[VerdictWarmup] == 0 {
		t.Error("no warmup verdicts while the feature windows filled")
	}
	if counts[VerdictAdmit] == 0 {
		t.Error("no admissions on in-distribution traffic")
	}
	if counts[VerdictRate] == 0 {
		t.Errorf("rate limiter never engaged at rateEvery=%d rateBurst=%d over %d steps", rateEvery, rateBurst, steps)
	}
	c := l.Counters()
	if got, max := c.Admitted.Load(), uint64(steps/rateEvery+rateBurst); got > max {
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
	arts := sharedArtifacts(t)
	l := newTestLearner(t, arts, nil)
	defer l.Stop() //nolint:errcheck
	g := unlimitedGate(t, l)

	// A 10× throughput shift: once the feature window has fully turned
	// over (ThroughputWindow + K steps), every step must be rejected as
	// out-of-distribution — this is the poisoning ratchet.
	const warm = 60
	turnover := arts.Record.ThroughputWindow + arts.Record.K
	tape := viewerTape(t, 2, warm+turnover+40)
	for _, obs := range tape[:warm] {
		g.Check(obs)
	}
	if l.Counters().Admitted.Load() == 0 {
		t.Fatal("no admissions during the honest warm phase")
	}
	for i, obs := range tape[warm:] {
		obs = slices.Clone(obs)
		abr.ScaleThroughputHistory(obs, 10)
		if v := g.Check(obs); i >= turnover && v != VerdictState {
			t.Fatalf("shifted step %d: verdict %v, want VerdictState", i-turnover, v)
		}
	}
	if l.Counters().Rejected(VerdictState) == 0 {
		t.Error("no state_ood rejections recorded")
	}
}

// TestGateRefusesDrift: a viewer whose reported throughput drifts
// 0.1% per step, compounded as loadgen's adversary reports it, is
// refused more often as state_ood and admitted less often than its
// honest twin on the same tape, with no rate limit to level the two.
func TestGateRefusesDrift(t *testing.T) {
	l := newTestLearner(t, sharedArtifacts(t), nil)
	defer l.Stop() //nolint:errcheck
	const drift = 1.001
	for seed := uint64(1); seed <= 4; seed++ {
		honest, drifting := unlimitedGate(t, l), unlimitedGate(t, l)
		var hv, dv [numVerdicts]int
		factor := 1.0
		for _, obs := range viewerTape(t, seed, 320) {
			hv[honest.Check(obs)]++
			factor *= drift
			obs = slices.Clone(obs)
			abr.ScaleThroughputHistory(obs, factor)
			dv[drifting.Check(obs)]++
		}
		t.Logf("seed %d: state_ood %d honest vs %d drifting, admitted %d vs %d",
			seed, hv[VerdictState], dv[VerdictState], hv[VerdictAdmit], dv[VerdictAdmit])
		if dv[VerdictState] <= hv[VerdictState] {
			t.Errorf("seed %d: the drifting viewer drew %d state_ood rejections, its honest twin %d", seed, dv[VerdictState], hv[VerdictState])
		}
		if dv[VerdictAdmit] >= hv[VerdictAdmit] {
			t.Errorf("seed %d: the drifting viewer was admitted %d times, its honest twin %d", seed, dv[VerdictAdmit], hv[VerdictAdmit])
		}
	}
}

func TestGateRejectsNonFiniteThroughput(t *testing.T) {
	l := newTestLearner(t, sharedArtifacts(t), nil)
	defer l.Stop() //nolint:errcheck
	g := unlimitedGate(t, l)

	tape := viewerTape(t, 3, 60)
	for _, obs := range tape {
		g.Check(obs)
	}
	before := l.Counters().Admitted.Load()
	obs := slices.Clone(tape[len(tape)-1])
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 20; i++ {
			obs[thrSlot] = bad
			if v := g.Check(obs); v != VerdictState {
				t.Fatalf("a step with %v throughput: verdict %v, want VerdictState", bad, v)
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
	// consulted — and symmetrically for AlphaV, with AlphaPi opened so
	// that U_π passes every step. Each case edits a copy of the set.
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
			arts := *sharedArtifacts(t)
			arts.AlphaPi, arts.AlphaV = tc.alphaPi, tc.alphaV
			l := newTestLearner(t, &arts, nil)
			defer l.Stop() //nolint:errcheck
			g, err := l.NewGate(1)
			if err != nil {
				t.Fatal(err)
			}
			for _, obs := range viewerTape(t, 4, 120) {
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
	arts := sharedArtifacts(t)
	dir := t.TempDir()
	l := newTestLearner(t, arts, func(c *Config) { c.LogDir = dir })
	g := unlimitedGate(t, l)
	for _, obs := range viewerTape(t, 5, 150) {
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
	arts := sharedArtifacts(t)
	feats := tapeFeatures(arts, viewerTape(t, 6, 300))

	refit := func(dir string) *Proposal {
		if _, err := ExportBootstrap(dir, feats); err != nil {
			t.Fatal(err)
		}
		l := newTestLearner(t, arts, func(c *Config) { c.LogDir = dir })
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
	arts := sharedArtifacts(t)
	root := t.TempDir()
	logDir := t.TempDir()
	feats := tapeFeatures(arts, viewerTape(t, 7, 300))
	if _, err := ExportBootstrap(logDir, feats); err != nil {
		t.Fatal(err)
	}

	fixed := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	l := newTestLearner(t, arts, func(c *Config) {
		c.LogDir = logDir
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

	// A learner restarted over the same registry and parent numbers on
	// instead of colliding with -001.
	if err := l.Stop(); err != nil {
		t.Fatal(err)
	}
	l2 := newTestLearner(t, arts, func(c *Config) {
		c.LogDir = logDir
		c.RegistryRoot = root
		c.ParentVersion = "v7"
		c.Now = func() time.Time { return fixed }
	})
	defer l2.Stop() //nolint:errcheck
	prop3, err := l2.Refit()
	if err != nil {
		t.Fatal(err)
	}
	if prop3.Version != "v7-refit-003" {
		t.Fatalf("restarted learner proposed %q, want v7-refit-003", prop3.Version)
	}
}

func TestRefitRequiresMinimumWindow(t *testing.T) {
	l := newTestLearner(t, sharedArtifacts(t), nil)
	defer l.Stop() //nolint:errcheck
	if _, err := l.Refit(); err == nil {
		t.Fatal("refit succeeded on an empty window")
	}
	if l.Counters().RefitFailures.Load() == 0 {
		t.Error("refit failure not counted")
	}
}

func TestRefitRecalibratesThresholds(t *testing.T) {
	arts := sharedArtifacts(t)
	l := newTestLearner(t, arts, nil)
	defer l.Stop() //nolint:errcheck
	g := unlimitedGate(t, l)
	for _, obs := range viewerTape(t, 8, 200) {
		g.Check(obs)
	}
	prop, err := l.Refit()
	if err != nil {
		t.Fatal(err)
	}
	// Every admitted step's statistic is at most the baseline's α:
	// recalibration to their quantile must tighten both thresholds,
	// and never to a non-positive value.
	if !(prop.AlphaPi > 0) || prop.AlphaPi > arts.AlphaPi {
		t.Errorf("AlphaPi not recalibrated: %v (baseline %v)", prop.AlphaPi, arts.AlphaPi)
	}
	if !(prop.AlphaV > 0) || prop.AlphaV > arts.AlphaV {
		t.Errorf("AlphaV not recalibrated: %v (baseline %v)", prop.AlphaV, arts.AlphaV)
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
	arts := sharedArtifacts(t)
	for _, cfg := range []Config{
		{SignalConfig: core.StateSignalConfig{ThroughputWindow: 10, K: 10}},
		{Trim: core.EnsembleConfig{Discard: 1}},
	} {
		cfg.Artifacts = arts
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

// unlimitedGate is session 1's gate with the rate limit lifted, so
// every step the three signals pass is admitted.
func unlimitedGate(t testing.TB, l *Learner) *Gate {
	t.Helper()
	g, err := l.NewGate(1)
	if err != nil {
		t.Fatal(err)
	}
	g.rateEvery, g.rateBurst = 1, 1<<20
	return g
}

// guardStatistics replays traffic through scheme's signal and trigger
// exactly as a served guard over c builds them (experiments.Signal),
// and returns the trigger's statistic on every step after its variance
// window has filled, with the threshold it is compared with.
func guardStatistics(t *testing.T, arts *experiments.Artifacts, c *experiments.Calibration, scheme string, traffic [][]float64) ([]float64, float64) {
	t.Helper()
	frozen, err := rl.Freeze(arts.Agents, arts.ValueNets)
	if err != nil {
		t.Fatal(err)
	}
	sig, tc, err := experiments.Signal(c, scheme, frozen.NewScratch())
	if err != nil {
		t.Fatal(err)
	}
	tr := core.NewTrigger(tc)
	var out []float64
	for i, obs := range traffic {
		tr.Step(sig.Observe(obs))
		if i >= tc.K-1 {
			out = append(out, tr.Statistic())
		}
	}
	return out, tc.Threshold
}

// binomialCDF is P(X ≤ k) for X ~ Binomial(n, p).
func binomialCDF(k, n int, p float64) float64 {
	var sum float64
	for i := 0; i <= k; i++ {
		lc, _ := math.Lgamma(float64(n + 1))
		li, _ := math.Lgamma(float64(i + 1))
		lr, _ := math.Lgamma(float64(n - i + 1))
		sum += math.Exp(lc - li - lr + float64(i)*math.Log(p) + float64(n-i)*math.Log1p(-p))
	}
	return sum
}

// checkShare fails unless p lies in the 99% Clopper–Pearson interval of
// k successes in n trials: neither binomial tail at p is below 0.005.
func checkShare(t *testing.T, what string, k, n int, p float64) {
	t.Helper()
	lower := 1.0
	if k > 0 {
		lower = 1 - binomialCDF(k-1, n, p)
	}
	t.Logf("%s: %d of %d", what, k, n)
	if upper := binomialCDF(k, n, p); lower < 0.005 || upper < 0.005 {
		t.Errorf("%s: %d of %d (%.4f); %.3f is outside the 99%% Clopper–Pearson interval", what, k, n, float64(k)/float64(n), p)
	}
}

// TestRefitThresholdsInGuardUnits: a refit's α_π and α_V are the
// alphaQuantile of the statistic the next version's guard thresholds,
// so on the traffic the gate admitted that guard's statistic exceeds
// α on 1 − alphaQuantile of steps.
func TestRefitThresholdsInGuardUnits(t *testing.T) {
	arts := sharedArtifacts(t)
	l := newTestLearner(t, arts, nil)
	defer l.Stop() //nolint:errcheck
	g := unlimitedGate(t, l)
	traffic := viewerTape(t, 11, 2000)
	admitted := make([]bool, len(traffic))
	for i, obs := range traffic {
		admitted[i] = g.Check(obs) == VerdictAdmit
	}
	prop, err := l.Refit()
	if err != nil {
		t.Fatal(err)
	}
	next := arts.Calibration
	next.AlphaPi, next.AlphaV, next.Record = prop.AlphaPi, prop.AlphaV, prop.Record
	for _, scheme := range []string{experiments.SchemeAEns, experiments.SchemeVEns} {
		stat, alpha := guardStatistics(t, arts, &next, scheme, traffic)
		// stat begins at the step the variance window fills, before
		// the gate's first admission.
		first := len(traffic) - len(stat)
		over, n := 0, 0
		for i, s := range stat {
			if admitted[first+i] {
				n++
				if s > alpha {
					over++
				}
			}
		}
		checkShare(t, scheme+" admitted steps over the refit's α", over, n, 1-alphaQuantile)
	}
}

// TestGateThresholdInGuardUnits: with α_π at the q95 of the guard's own
// U_π statistic on in-distribution traffic, the gate admits that
// traffic and rejects about 5% of the steps U_S passes as
// policy_disagree — the gate thresholds the statistic the guard does.
func TestGateThresholdInGuardUnits(t *testing.T) {
	arts := *sharedArtifacts(t)
	traffic := viewerTape(t, 12, 2000)
	stat, _ := guardStatistics(t, &arts, &arts.Calibration, experiments.SchemeAEns, traffic)
	sorted := append([]float64(nil), stat...)
	slices.Sort(sorted)
	arts.AlphaPi = sorted[int(0.95*float64(len(sorted)-1))]

	l := newTestLearner(t, &arts, nil)
	defer l.Stop() //nolint:errcheck
	g := unlimitedGate(t, l)
	for _, obs := range traffic {
		g.Check(obs)
	}
	c := l.Counters()
	policy := int(c.Rejected(VerdictPolicy))
	passed := int(c.Admitted.Load()) + policy + int(c.Rejected(VerdictValue)) + int(c.Rejected(VerdictRate))
	if c.Admitted.Load() == 0 {
		t.Fatalf("admitted nothing; %d of %d state-passing steps rejected as policy_disagree", policy, passed)
	}
	checkShare(t, "state-passing steps rejected as policy_disagree", policy, passed, 0.05)
}

// TestHandoffOverflowDrops: with no drain in between, admissions past
// one batch's capacity are dropped and counted, and the log and the
// window then hold exactly the admitted samples that were not, in
// order.
func TestHandoffOverflowDrops(t *testing.T) {
	dir := t.TempDir()
	l := newTestLearner(t, sharedArtifacts(t), func(c *Config) { c.LogDir = dir })
	g := unlimitedGate(t, l)
	var kept []Record
	for _, obs := range viewerTape(t, 13, 3*batchSize) {
		if g.Check(obs) == VerdictAdmit && len(kept) < batchSize {
			kept = append(kept, Record{Session: 1, Step: g.steps - 1, Feat: slices.Clone(g.state.Features())})
		}
	}
	c := l.Counters()
	admitted := c.Admitted.Load()
	if admitted <= batchSize {
		t.Fatalf("admitted %d samples, want more than one batch of %d", admitted, batchSize)
	}
	if got := c.RingDropped.Load(); got != admitted-batchSize {
		t.Errorf("dropped %d of %d admitted samples, want %d", got, admitted, admitted-batchSize)
	}
	if err := l.Stop(); err != nil {
		t.Fatal(err)
	}
	if got := c.LogRecords.Load(); got != batchSize {
		t.Errorf("logged %d records, want %d", got, batchSize)
	}
	x, logged := readLog(t, dir)
	defer x.Close() //nolint:errcheck
	sameRecords(t, logged, kept)
	l.mu.Lock()
	window := l.window.snapshot()
	l.mu.Unlock()
	if len(window) != len(kept) {
		t.Fatalf("window holds %d samples, want %d", len(window), len(kept))
	}
	for i, f := range window {
		if !slices.EqualFunc(f, kept[i].Feat, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("window slot %d is not admitted sample %d", i, i)
		}
	}
}

// TestDrainZeroAlloc: taking a batch and folding its samples into the
// log, the window and the sketches allocates nothing per sample.
func TestDrainZeroAlloc(t *testing.T) {
	arts := sharedArtifacts(t)
	l := newTestLearner(t, arts, func(c *Config) { c.LogDir = t.TempDir() })
	defer l.Stop() //nolint:errcheck
	feat := make([]float64, arts.OCSVM.Dim)
	const n = 1000
	fill := func() {
		for i := range n {
			feat[0] = float64(i)
			if !l.handoff.offer(1, uint64(i), feat, 0.5, 0.25) {
				t.Fatal("handoff full")
			}
		}
	}
	logged := l.Counters().LogRecords.Load()
	allocs := testing.AllocsPerRun(3, func() {
		fill()
		l.mu.Lock()
		l.drainLocked()
		l.mu.Unlock()
	})
	if allocs != 0 {
		t.Errorf("offering and draining %d samples with a log open allocates %.1f times, want 0", n, allocs)
	}
	if got := l.Counters().LogRecords.Load() - logged; got != 4*n {
		t.Errorf("logged %d records, want %d: the drain went unmeasured", got, 4*n)
	}
}

// TestHandoffConcurrentGates: gates on several goroutines offer while
// the learner drains every millisecond; every admitted sample is then
// either logged and windowed or counted as dropped. Run it under -race.
func TestHandoffConcurrentGates(t *testing.T) {
	l := newTestLearner(t, sharedArtifacts(t), func(c *Config) {
		c.LogDir = t.TempDir()
		c.FlushInterval = time.Millisecond
	})
	var wg sync.WaitGroup
	for s := range 4 {
		g, err := l.NewGate(uint64(s))
		if err != nil {
			t.Fatal(err)
		}
		g.rateEvery, g.rateBurst = 1, 1<<20
		tape := viewerTape(t, uint64(20+s), 1500)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, obs := range tape {
				g.Check(obs)
			}
		}()
	}
	wg.Wait()
	if err := l.Stop(); err != nil {
		t.Fatal(err)
	}
	c := l.Counters()
	kept := c.Admitted.Load() - c.RingDropped.Load()
	if c.Admitted.Load() == 0 || c.LogRecords.Load() != kept || l.Snapshot().WindowTotal != kept {
		t.Errorf("admitted %d, dropped %d, logged %d, windowed %d", c.Admitted.Load(), c.RingDropped.Load(), c.LogRecords.Load(), l.Snapshot().WindowTotal)
	}
}

package trace

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"osap/internal/stats"
)

func TestBandwidthAtWraps(t *testing.T) {
	tr := &Trace{Mbps: []float64{1, 2, 3}}
	cases := []struct{ at, want float64 }{
		{0, 1}, {0.9, 1}, {1, 2}, {2.5, 3}, {3, 1}, {7.2, 2},
	}
	for _, c := range cases {
		if got := tr.BandwidthAt(c.at); got != c.want {
			t.Errorf("BandwidthAt(%v) = %v, want %v", c.at, got, c.want)
		}
	}
}

func TestBandwidthAtEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	(&Trace{}).BandwidthAt(0)
}

func TestCookedRoundTrip(t *testing.T) {
	tr := &Trace{Name: "x", Mbps: []float64{1.5, 0, 3.25}}
	var buf bytes.Buffer
	if err := tr.WriteCooked(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCooked(&buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Mbps) != 3 {
		t.Fatalf("round trip length %d", len(back.Mbps))
	}
	for i := range tr.Mbps {
		if math.Abs(back.Mbps[i]-tr.Mbps[i]) > 1e-6 {
			t.Errorf("sample %d: %v != %v", i, back.Mbps[i], tr.Mbps[i])
		}
	}
}

func TestReadCookedSingleColumnAndComments(t *testing.T) {
	in := "# comment\n2.5\n\n3.5\n"
	tr, err := ReadCooked(strings.NewReader(in), "t")
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Mbps) != 2 || tr.Mbps[0] != 2.5 || tr.Mbps[1] != 3.5 {
		t.Errorf("parsed %v", tr.Mbps)
	}
}

func TestReadCookedErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":  "1\tabc\n",
		"negative": "0\t-1\n",
		"3 fields": "1 2 3\n",
		"empty":    "",
	}
	for name, in := range cases {
		if _, err := ReadCooked(strings.NewReader(in), name); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestMahiMahiRoundTrip(t *testing.T) {
	tr := &Trace{Name: "m", Mbps: []float64{1.2, 0, 4.8, 2.4}}
	var buf bytes.Buffer
	if err := tr.WriteMahiMahi(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMahiMahi(&buf, "m", 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Mbps) != 4 {
		t.Fatalf("length %d, want 4", len(back.Mbps))
	}
	// Quantization to whole packets: 1.2 Mbps = 100 pkt/s exactly.
	for i := range tr.Mbps {
		if math.Abs(back.Mbps[i]-tr.Mbps[i]) > 0.012 { // one packet tolerance
			t.Errorf("second %d: %v vs %v", i, back.Mbps[i], tr.Mbps[i])
		}
	}
}

func TestMahiMahiZeroSecondPreserved(t *testing.T) {
	tr := &Trace{Mbps: []float64{0, 1.2}}
	var buf bytes.Buffer
	if err := tr.WriteMahiMahi(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMahiMahi(&buf, "z", 2)
	if err != nil {
		t.Fatal(err)
	}
	if back.Mbps[0] != 0 {
		t.Errorf("outage second lost: %v", back.Mbps)
	}
}

func TestReadMahiMahiErrors(t *testing.T) {
	if _, err := ReadMahiMahi(strings.NewReader("5\n3\n"), "x", 0); err == nil {
		t.Error("non-monotone timestamps: expected error")
	}
	if _, err := ReadMahiMahi(strings.NewReader("abc\n"), "x", 0); err == nil {
		t.Error("garbage: expected error")
	}
	if _, err := ReadMahiMahi(strings.NewReader(""), "x", 0); err == nil {
		t.Error("empty: expected error")
	}
	// Timestamps are 1-based: one below 1 ms is refused, naming its line
	// and value, before the monotonicity check could take it for a packet.
	for _, c := range []struct{ in, line, ts string }{
		{"0\n", "line 1", "timestamp 0 ms"},
		{"-1\n", "line 1", "timestamp -1 ms"},
		{"-5\n", "line 1", "timestamp -5 ms"},
		{"-1\n0\n", "line 1", "timestamp -1 ms"},
		{"1\n2\n0\n", "line 3", "timestamp 0 ms"},
	} {
		_, err := ReadMahiMahi(strings.NewReader(c.in), "x", 0)
		if err == nil || !strings.Contains(err.Error(), c.line) || !strings.Contains(err.Error(), c.ts) {
			t.Errorf("%q: err = %v, want one naming %s and %s", c.in, err, c.line, c.ts)
		}
	}
	// Past one day: refused before the per-second counts grow to it. The
	// bound is checked first and fatally, so a reader without it never
	// reaches the line that would exhaust memory.
	if _, err := ReadMahiMahi(strings.NewReader("86400000\n"), "x", 0); err != nil {
		t.Errorf("timestamp at one day: %v", err)
	}
	if _, err := ReadMahiMahi(strings.NewReader("86400001\n"), "x", 0); err == nil {
		t.Fatal("timestamp 1 ms past one day accepted")
	}
	_, err := ReadMahiMahi(strings.NewReader("1\n99999999999999\n"), "x", 0)
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("timestamp past one day: err = %v, want an error naming line 2", err)
	}
}

func TestIIDGeneratorMatchesDistribution(t *testing.T) {
	gen := IIDGenerator{Name: "g", Dist: stats.Gamma{Shape: 2, Scale: 2}}
	tr := gen.Generate(stats.NewRNG(1), 50000)
	if math.Abs(tr.Mean()-4) > 0.1 {
		t.Errorf("mean = %v, want ~4", tr.Mean())
	}
	for _, v := range tr.Mbps {
		if v < 0 {
			t.Fatal("negative capacity")
		}
	}
}

func TestIIDGeneratorClamps(t *testing.T) {
	gen := IIDGenerator{Name: "g", Dist: stats.Normal{Mu: 0, Sigma: 5}, MaxMbps: 3}
	tr := gen.Generate(stats.NewRNG(2), 10000)
	for _, v := range tr.Mbps {
		if v < 0 || v > 3 {
			t.Fatalf("sample %v outside [0,3]", v)
		}
	}
}

func TestMarkovGeneratorValidate(t *testing.T) {
	bad := MarkovGenerator{
		Name:    "bad",
		Regimes: []Regime{{1, 0.1}, {2, 0.1}},
		P:       [][]float64{{0.5, 0.4}, {0.5, 0.5}}, // row 0 sums to 0.9
	}
	if err := bad.Validate(); err == nil {
		t.Error("expected row-sum validation error")
	}
	if err := Norway3G().Validate(); err != nil {
		t.Errorf("Norway3G invalid: %v", err)
	}
	if err := Belgium4G().Validate(); err != nil {
		t.Errorf("Belgium4G invalid: %v", err)
	}
}

func TestNorwayBelgiumDiffer(t *testing.T) {
	rng := stats.NewRNG(3)
	no := Norway3G().Generate(rng, 5000)
	be := Belgium4G().Generate(rng, 5000)
	if no.Mean() >= be.Mean() {
		t.Errorf("norway mean %v should be below belgium mean %v", no.Mean(), be.Mean())
	}
	// Belgium is smoother: compare lag-1 autocorrelation-ish via mean
	// absolute successive difference relative to std.
	rough := func(tr *Trace) float64 {
		var s float64
		for i := 1; i < len(tr.Mbps); i++ {
			s += math.Abs(tr.Mbps[i] - tr.Mbps[i-1])
		}
		return s / float64(len(tr.Mbps)-1) / (tr.Std() + 1e-9)
	}
	if rough(be) >= rough(no) {
		t.Errorf("belgium roughness %v should be below norway %v", rough(be), rough(no))
	}
}

func TestSplitProportions(t *testing.T) {
	traces := make([]*Trace, 20)
	for i := range traces {
		traces[i] = &Trace{Name: "t", Mbps: []float64{1}}
	}
	d := Split("x", traces)
	if len(d.Train) != 14 || len(d.Test) != 6 {
		t.Errorf("split %d/%d, want 14/6", len(d.Train), len(d.Test))
	}
	if len(d.Val) != 4 { // 30% of 14
		t.Errorf("val %d, want 4", len(d.Val))
	}
	// Val must be a subset of Train.
	trainSet := map[*Trace]bool{}
	for _, tr := range d.Train {
		trainSet[tr] = true
	}
	for _, tr := range d.Val {
		if !trainSet[tr] {
			t.Fatal("val trace not in train")
		}
	}
	// Train/test disjoint.
	for _, tr := range d.Test {
		if trainSet[tr] {
			t.Fatal("test trace in train")
		}
	}
}

func TestSplitPanicsOnTiny(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Split("x", []*Trace{{}, {}})
}

func TestGeneratorFor(t *testing.T) {
	for _, name := range DatasetNames() {
		gen, err := GeneratorFor(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr := gen.Generate(stats.NewRNG(1), 100)
		if len(tr.Mbps) != 100 {
			t.Fatalf("%s: bad duration", name)
		}
	}
	if _, err := GeneratorFor("nope"); err == nil {
		t.Error("unknown dataset: expected error")
	}
}

func TestIsEmpirical(t *testing.T) {
	if !IsEmpirical(DatasetNorway) || !IsEmpirical(DatasetBelgium) {
		t.Error("norway/belgium should be empirical")
	}
	if IsEmpirical(DatasetGamma12) || IsEmpirical(DatasetExponential) {
		t.Error("synthetic datasets misclassified as empirical")
	}
}

func TestBuildRegistryDeterministic(t *testing.T) {
	cfg := RegistryConfig{Seed: 7, TracesPer: 10, DurationSec: 50}
	a, err := BuildRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 6 {
		t.Fatalf("registry has %d datasets, want 6", len(a))
	}
	for name, da := range a {
		db := b[name]
		for i := range da.Train {
			for j := range da.Train[i].Mbps {
				if da.Train[i].Mbps[j] != db.Train[i].Mbps[j] {
					t.Fatalf("%s: registry not deterministic", name)
				}
			}
		}
	}
}

func TestRegistryDatasetsDistinct(t *testing.T) {
	cfg := RegistryConfig{Seed: 7, TracesPer: 10, DurationSec: 200}
	reg, err := BuildRegistry(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Gamma(1,2) mean 2 vs Gamma(2,2) mean 4: dataset means must differ.
	m := func(d *Dataset) float64 {
		var all []float64
		for _, tr := range d.Train {
			all = append(all, tr.Mean())
		}
		return stats.Mean(all)
	}
	g1 := m(reg[DatasetGamma12])
	g2 := m(reg[DatasetGamma22])
	if math.Abs(g1-2) > 0.5 || math.Abs(g2-4) > 0.7 {
		t.Errorf("gamma dataset means %v / %v, want ~2 / ~4", g1, g2)
	}
}

func TestGenerateDatasetNames(t *testing.T) {
	gen, _ := GeneratorFor(DatasetExponential)
	d := GenerateDataset(gen, 1, 10, 20)
	if d.Name != DatasetExponential {
		t.Errorf("dataset name = %q", d.Name)
	}
	if d.Train[0].Name != "exponential/000" {
		t.Errorf("trace name = %q", d.Train[0].Name)
	}
}

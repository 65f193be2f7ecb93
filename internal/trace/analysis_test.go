package trace

import (
	"math"
	"strings"
	"testing"

	"osap/internal/stats"
)

func TestAnalyzeBasics(t *testing.T) {
	tr := &Trace{Name: "x", Mbps: []float64{1, 2, 3, 4}}
	a := Analyze(tr)
	if a.DurationSec != 4 || a.MeanMbps != 2.5 || a.MinMbps != 1 || a.MaxMbps != 4 {
		t.Errorf("analysis = %+v", a)
	}
	if math.Abs(a.CV-a.StdMbps/2.5) > 1e-12 {
		t.Errorf("CV = %v", a.CV)
	}
	if a.P50 != 2.5 {
		t.Errorf("P50 = %v", a.P50)
	}
	if !strings.Contains(a.String(), "mean 2.50 Mbps") {
		t.Errorf("String() = %q", a.String())
	}
}

func TestAnalyzeOutageFraction(t *testing.T) {
	tr := &Trace{Mbps: []float64{0.1, 0.2, 1, 2}}
	a := Analyze(tr)
	if a.OutageFraction != 0.5 {
		t.Errorf("outage fraction = %v, want 0.5", a.OutageFraction)
	}
}

func TestAutocorrelationIIDNearZero(t *testing.T) {
	rng := stats.NewRNG(1)
	xs := make([]float64, 20000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	if ac := Autocorrelation(xs, 1); math.Abs(ac) > 0.05 {
		t.Errorf("iid lag-1 autocorr = %v, want ~0", ac)
	}
}

func TestAutocorrelationSmoothNearOne(t *testing.T) {
	// AR(1) with coefficient 0.95.
	rng := stats.NewRNG(2)
	xs := make([]float64, 20000)
	for i := 1; i < len(xs); i++ {
		xs[i] = 0.95*xs[i-1] + rng.NormFloat64()
	}
	if ac := Autocorrelation(xs, 1); ac < 0.9 {
		t.Errorf("AR(1) lag-1 autocorr = %v, want > 0.9", ac)
	}
}

func TestAutocorrelationDegenerate(t *testing.T) {
	if Autocorrelation([]float64{1, 1, 1}, 1) != 0 {
		t.Error("constant series autocorr should be 0")
	}
	if Autocorrelation([]float64{1}, 1) != 0 || Autocorrelation(nil, 0) != 0 {
		t.Error("degenerate inputs should be 0")
	}
}

func TestDatasetsAutocorrelationOrdering(t *testing.T) {
	// Belgium (smooth) > Norway (bursty) > synthetic i.i.d. (≈0).
	rng := stats.NewRNG(3)
	be := Belgium4G().Generate(rng, 5000)
	no := Norway3G().Generate(rng, 5000)
	g, _ := GeneratorFor(DatasetGamma22)
	iid := g.Generate(rng, 5000)
	acBe, acNo, acIID := Analyze(be).AutocorrLag1, Analyze(no).AutocorrLag1, Analyze(iid).AutocorrLag1
	if !(acBe > acNo && acNo > acIID+0.2) {
		t.Errorf("autocorr ordering violated: belgium %.2f, norway %.2f, iid %.2f", acBe, acNo, acIID)
	}
	if math.Abs(acIID) > 0.1 {
		t.Errorf("iid dataset autocorr = %v, want ~0", acIID)
	}
}

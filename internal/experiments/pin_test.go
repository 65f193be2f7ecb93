package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// microLab is one micro-budget lab shared by the tests below, so the
// datasets they need train once.
var (
	microOnce sync.Once
	microL    *Lab
	microErr  error
)

func sharedMicroLab(t testing.TB) *Lab {
	t.Helper()
	microOnce.Do(func() { microL, microErr = NewLab(microConfig()) })
	if microErr != nil {
		t.Fatal(microErr)
	}
	return microL
}

// pinnedTrain are the training datasets whose numbers are pinned: one
// empirical (U_S window k = 5) and one synthetic (k = StateKSynthetic).
var pinnedTrain = []string{"norway", "gamma22"}

// microNumbers lists, one "key = bits" line each, every number the guard
// builder feeds at the micro budget: the calibrated thresholds, every
// EvaluatePair scheme result and every cell of the four guard
// extensions, for each pinned training dataset.
func microNumbers(t *testing.T, l *Lab) []string {
	t.Helper()
	var out []string
	put := func(v float64, key ...any) {
		out = append(out, fmt.Sprintf("%s = %016x", fmt.Sprint(key...), math.Float64bits(v)))
	}
	for _, tr := range pinnedTrain {
		a, err := l.Artifacts(tr)
		if err != nil {
			t.Fatal(err)
		}
		put(a.NDValQoE, tr, "/nd_val_qoe")
		put(a.AlphaPi, tr, "/alpha_pi")
		put(a.AlphaV, tr, "/alpha_v")
		for _, te := range datasetOrder() {
			r, err := l.EvaluatePair(tr, te)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range Schemes() {
				put(r[s], tr, "→", te, "/", s)
			}
		}

		trig, err := l.ExtensionTriggers(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range TriggerStrategyNames() {
			put(trig.Params[s], tr, "/trig/", s, "/param")
			for _, te := range trig.Tests {
				put(trig.Norm[s][te], tr, "/trig/", s, "/", te)
			}
		}

		rec, err := l.ExtensionRecovery(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range RecoveryVariantNames() {
			put(rec.Params[v], tr, "/recov/", v, "/param")
			for _, te := range rec.Tests {
				put(rec.Norm[v][te], tr, "/recov/", v, "/", te, "/norm")
				put(rec.Defaulted[v][te], tr, "/recov/", v, "/", te, "/defaulted")
				put(rec.Readmits[v][te], tr, "/recov/", v, "/", te, "/readmits")
			}
		}

		sig, err := l.ExtensionSignals(tr)
		if err != nil {
			t.Fatal(err)
		}
		put(sig.AlphaRND, tr, "/signals/alpha_rnd")
		for _, s := range []string{"Pensieve", "ND", "RND"} {
			for _, te := range sig.Tests {
				put(sig.Norm[s][te], tr, "/signals/", s, "/", te)
			}
		}

		def, err := l.ExtensionDefaults(tr)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range DefaultPolicyNames() {
			for _, te := range def.Tests {
				put(def.Norm[d][te], tr, "/defaults/", d, "/", te, "/guarded")
				put(def.RawDefault[d][te], tr, "/defaults/", d, "/", te, "/bare")
			}
		}
	}
	return out
}

// TestMicroNumbersPinned holds every guard-built number at the micro
// budget to its Float64bits as recorded before the offline figures,
// calibration and extensions shared one guard builder on one packed
// inference path: that move may not change a bit. Bits are per
// platform (DESIGN §10), so they are checked where they were recorded:
// amd64. On a mismatch the full listing is logged; it is the file's
// new content if the change is meant to move numbers.
func TestMicroNumbersPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("micro numbers are pinned on amd64")
	}
	got := microNumbers(t, sharedMicroLab(t))
	raw, err := os.ReadFile(filepath.Join("testdata", "micro_pins.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(got) != len(want) {
		t.Errorf("%d pinned numbers, want %d", len(got), len(want))
	}
	bad := 0
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			bad++
			if bad <= 10 {
				t.Errorf("got %q, want %q", got[i], want[i])
			}
		}
	}
	if bad > 0 || len(got) != len(want) {
		t.Logf("%d mismatches; full listing:\n%s", bad, strings.Join(got, "\n"))
	}
}

// TestFigure4Reproducible: the bootstrap CIs of Figure 4 are drawn from
// one RNG in scheme order, so the same lab renders the same numbers
// every time. Ranging over the per-scheme map let map order pick which
// scheme drew which resamples.
func TestFigure4Reproducible(t *testing.T) {
	l := sharedMicroLab(t)
	first, err := l.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		f, err := l.Figure4()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range ood4Schemes() {
			if f.MeanCI[s] != first.MeanCI[s] {
				t.Fatalf("run %d: %s mean CI %v, first run %v", i, s, f.MeanCI[s], first.MeanCI[s])
			}
		}
	}
}

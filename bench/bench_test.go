package main

import (
	"fmt"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the harness re-executes it as the server child.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == childFlag {
		if err := serveChild(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(m.Run())
}

// miniScale is a one-second miniature of a run: 32 sessions on short
// tapes, a tenth of the frozen rates, one set-up.
var miniScale = scale{
	tapes: 8, tapeLen: 24, sessions: 32, loneSessions: 2, loneThink: 100 * time.Microsecond, standing: 48, viewerSlots: 64,
	viewerRate: 400, viewerHalf: 4, satViewers: 4, warmup: 50 * time.Millisecond, setupReps: 1,
	ladderSlice: 200 * time.Microsecond, probeSteps: 24, rateScale: 0.1,
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMiniatureWorkloads runs each workload traced for one second and
// checks what must hold at any scale: nothing fails, every decision
// the client saw answered is one the server counted, and every metric
// BENCHMARK.json names is reported under a valid name and unit.
func TestMiniatureWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := runWorkload(w, miniScale, 7, 1, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || !res.Correct || res.FailedShare != 0 {
				t.Fatalf("failed %d of %d (share %v), correct=%v: %s", res.Failed, res.Attempted, res.FailedShare, res.Correct, res.FirstBad)
			}
			if d, ok := res.Metrics["serve.decisions"], res.Metrics["client.ok_steps"]; d.Value != ok.Value || d.Value == 0 {
				t.Errorf("server counted %v decisions, client saw %v steps answered", d.Value, ok.Value)
			}
			// Two players rarely step in the same instant (more often on
			// a slow machine); nothing may hold their steps back to
			// make that the rule.
			if share := res.Metrics["serve.batch_singleton_share"].Value; w.kind == kindLone && share < 0.9 {
				t.Errorf("lone_http: only %v of the flushes were singletons", share)
			}
			for _, m := range append(append([]specMetric(nil), spec.EndToEnd...), spec.PerLayer...) {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("metric %s is in BENCHMARK.json but was not reported", m.Name)
				case got.Unit != m.Unit:
					t.Errorf("metric %s reported in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
				}
			}
			for name, m := range res.Metrics {
				if !nameRE.MatchString(name) || !unitRE.MatchString(m.Unit) {
					t.Errorf("metric %q with unit %q is not a valid name and unit", name, m.Unit)
				}
			}
			for _, m := range spec.EndToEnd {
				if res.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, res.Metrics[m.Name].Value)
				}
			}
		})
	}
}

// TestTrafficFactsRepeat pins that the inputs are a function of the
// seed alone: same seed, same tapes, same reference decisions and so
// the same fallback shares and trigger firings, to the unit.
func TestTrafficFactsRepeat(t *testing.T) {
	arts, err := trainArtifacts()
	if err != nil {
		t.Fatal(err)
	}
	build := func(seed uint64) ([]tape, *oracle) {
		f, err := newFactory(arts)
		if err != nil {
			t.Fatal(err)
		}
		tapes, err := makeTapes(seed, miniScale.tapes, miniScale.tapeLen)
		if err != nil {
			t.Fatal(err)
		}
		orc, err := buildOracle(f, tapes, schemeNames[:])
		if err != nil {
			t.Fatal(err)
		}
		orc.decideNs = [3]float64{} // a timing, not a fact
		return tapes, orc
	}
	tapesA, a := build(11)
	tapesB, b := build(11)
	if !reflect.DeepEqual(tapesA, tapesB) || !reflect.DeepEqual(a, b) {
		t.Fatal("two builds from one seed differ")
	}
	if tapesC, _ := build(12); reflect.DeepEqual(tapesA, tapesC) {
		t.Fatal("a different seed gave the same tapes")
	}
	if a.decisions[0][kindIn] == 0 || a.decisions[0][kindOOD] == 0 {
		t.Fatalf("tapes do not cover both trace kinds: %v", a.decisions)
	}
}

// TestCorruptedOracleIsAFailure flips the lowest bit of every
// reference score and expects the run to say so.
func TestCorruptedOracleIsAFailure(t *testing.T) {
	w, _ := findWorkload("nd_steady")
	h, err := setUp(w, miniScale, 7, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer h.tearDown()
	if h.cnt.failed() != 0 {
		t.Fatalf("warm-up already failed: %s", h.cnt.firstBad)
	}
	nd := schemeIndex(w.schemes[0])
	for ti := range h.orc.ref[nd] {
		for s := range h.orc.ref[nd][ti] {
			h.orc.ref[nd][ti][s].scoreBits ^= 1
		}
	}
	if _, err := h.gated("corrupted", 100*time.Millisecond, -1); err != nil {
		t.Fatal(err)
	}
	if h.cnt.mismatches == 0 || h.cnt.failed() == 0 {
		t.Fatalf("corrupted reference went unnoticed: %+v", *h.cnt)
	}
}

// TestJudge pins the comparison rule: a difference counts only when
// the runs resolve it.
func TestJudge(t *testing.T) {
	tight := func(v float64) side { return summarise([]float64{v * 0.99, v, v * 1.01}) }
	for _, c := range []struct {
		name   string
		a, b   side
		better string
		want   string
	}{
		{"same", tight(100), tight(101), "lower", verdictUnchanged},
		{"slower", tight(100), tight(130), "lower", verdictRegressed},
		{"faster", tight(100), tight(70), "lower", verdictImproved},
		{"less capacity", tight(100), tight(70), "higher", verdictRegressed},
		{"noisy overlap", summarise([]float64{80, 100, 140}), summarise([]float64{90, 125, 150}), "lower", verdictUnresolved},
		{"noisy but separated", summarise([]float64{80, 100, 140}), summarise([]float64{150, 200, 260}), "lower", verdictRegressed},
	} {
		if got := judge(c.a, c.b, c.better, 0.1); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

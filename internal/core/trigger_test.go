package core

import (
	"math"
	"testing"
	"unsafe"
)

// ewma and cusum build triggers over the two running statistics.
func ewma(w, threshold float64, warmup int, latched bool) *Trigger {
	return NewTrigger(TriggerConfig{K: warmup, Threshold: threshold, L: 1, Latched: latched, Running: &Running{Weight: w}})
}

func cusum(ref, slack, bar float64, latched bool) *Trigger {
	return NewTrigger(TriggerConfig{Threshold: bar, L: 1, Latched: latched, Running: &Running{CUSUM: true, Ref: ref, Slack: slack}})
}

func TestEWMATriggerFiresOnLevelShift(t *testing.T) {
	tr := ewma(0.3, 0.5, 3, true)
	// Quiet phase.
	for i := 0; i < 20; i++ {
		if tr.Step(0.1) {
			t.Fatalf("fired during quiet phase at step %d", i)
		}
	}
	// Sustained shift.
	fired := false
	for i := 0; i < 20; i++ {
		if tr.Step(1.0) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("EWMA never fired on sustained shift")
	}
	if tr.FiredAt < 20 {
		t.Errorf("FiredAt = %d, want ≥ 20", tr.FiredAt)
	}
}

func TestEWMATriggerIgnoresSingleSpike(t *testing.T) {
	tr := ewma(0.2, 0.5, 0, true)
	for i := 0; i < 10; i++ {
		tr.Step(0.05)
	}
	// One big spike: EWMA with w=0.2 rises to ~0.05·0.8 + 2·0.2 ≈ 0.44 < 0.5.
	if tr.Step(2.0) {
		t.Error("EWMA fired on a single spike")
	}
}

func TestEWMATriggerWarmup(t *testing.T) {
	tr := ewma(1, 0.5, 5, true)
	for i := 0; i < 5; i++ {
		if tr.Step(10) {
			t.Fatalf("fired during warmup at step %d", i)
		}
	}
	if !tr.Step(10) {
		t.Error("did not fire after warmup")
	}
}

func TestEWMATriggerResetAndUnlatched(t *testing.T) {
	tr := ewma(1, 0.5, 0, false)
	tr.Step(1)
	if !tr.Fired() {
		t.Fatal("did not fire")
	}
	// Unlatched: drops back when the score falls.
	if tr.Step(0) {
		t.Error("unlatched EWMA stayed active")
	}
	tr.Reset()
	if tr.Fired() || tr.FiredAt != -1 || tr.Statistic() != 0 {
		t.Error("reset incomplete")
	}
}

func TestEWMAConfigValidation(t *testing.T) {
	for _, cfg := range []TriggerConfig{
		{Threshold: 1, L: 1, Running: &Running{Weight: 0}},
		{Threshold: 1, L: 1, Running: &Running{Weight: 1.5}},
		{L: 1, K: -1, Running: &Running{Weight: 0.5}},
	} {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v (running %+v) accepted", cfg, *cfg.Running)
		}
	}
}

func TestCUSUMDetectsSlowDrift(t *testing.T) {
	// A drift of +0.3 per step over the reference: the l-consecutive
	// binary rule would never see it (each step looks individually
	// plausible), but CUSUM accumulates it.
	tr := cusum(1.0, 0.1, 2.0, true)
	for i := 0; i < 30; i++ {
		if tr.Step(1.0) {
			t.Fatalf("fired at reference level, step %d", i)
		}
	}
	fired := -1
	for i := 0; i < 30; i++ {
		if tr.Step(1.3) {
			fired = i
			break
		}
	}
	// Evidence per step = 1.3 − 1.0 − 0.1 = 0.2; bar 2.0 → ~10 steps.
	if fired < 0 {
		t.Fatal("CUSUM never fired on drift")
	}
	if fired < 8 || fired > 12 {
		t.Errorf("fired after %d drift steps, want ~10", fired+1)
	}
}

func TestCUSUMStatisticResetsOnQuiet(t *testing.T) {
	tr := cusum(0, 0.5, 10, true)
	tr.Step(3) // S = 2.5
	tr.Step(-5)
	if tr.Statistic() != 0 {
		t.Errorf("statistic = %v, want clamp to 0", tr.Statistic())
	}
}

func TestCalibrateCUSUM(t *testing.T) {
	scores := []float64{1, 1.2, 0.8, 1.1, 0.9}
	cfg := CalibrateCUSUM(scores, 5, true)
	if cfg.Running.Ref < 0.9 || cfg.Running.Ref > 1.1 {
		t.Errorf("ref = %v", cfg.Running.Ref)
	}
	if cfg.Running.Slack <= 0 || cfg.Threshold <= cfg.Running.Slack {
		t.Errorf("slack %v / decision %v", cfg.Running.Slack, cfg.Threshold)
	}
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	// Degenerate (constant) scores must still produce a valid config.
	flat := CalibrateCUSUM([]float64{2, 2, 2}, 0, false)
	if err := flat.Validate(); err != nil {
		t.Errorf("degenerate calibration invalid: %v", err)
	}
}

func TestCUSUMConfigValidation(t *testing.T) {
	if err := (TriggerConfig{Threshold: 1, L: 1, Running: &Running{CUSUM: true, Slack: -1}}).Validate(); err == nil {
		t.Error("negative slack accepted")
	}
	if err := (TriggerConfig{L: 1, Running: &Running{CUSUM: true}}).Validate(); err == nil {
		t.Error("zero decision bar accepted")
	}
}

func TestGuardWorksWithAlternativeTriggers(t *testing.T) {
	sig := &scriptedSignal{scores: []float64{0, 0, 0, 5, 5, 5, 5}}
	for name, trig := range map[string]*Trigger{
		"ewma":  ewma(0.5, 1, 0, true),
		"cusum": cusum(0, 0.5, 5, true),
	} {
		sig.Reset()
		g, err := NewGuard(fixedPolicy{1, 0}, fixedPolicy{0, 1}, sig, trig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		defaulted := false
		for i := 0; i < 7; i++ {
			if p := g.Probs(nil); p[1] == 1 {
				defaulted = true
			}
		}
		if !defaulted {
			t.Errorf("%s: guard never defaulted", name)
		}
		if g.SwitchStep() < 0 {
			t.Errorf("%s: SwitchStep = %d", name, g.SwitchStep())
		}
	}
}

// TestTriggerSize keeps a Trigger, which every session and learn gate
// allocates, in the 128 B size class: the running statistic's
// parameters sit behind a pointer, not inline in the config.
func TestTriggerSize(t *testing.T) {
	if n := unsafe.Sizeof(Trigger{}); n > 128 {
		t.Errorf("Trigger is %d B, want ≤ 128", n)
	}
	t.Logf("Trigger is %d B", unsafe.Sizeof(Trigger{}))
}

// statistics are the four statistics of the one Trigger, each with a
// script that turns a pattern of uncertain ('^') and calm ('.') steps
// into scores that cross Threshold 1 on exactly the '^' steps. A
// pattern starts calm: the variance window is not full until its
// second score. next maps the script's state s to the step's score
// and the next state.
var statistics = []struct {
	name string
	cfg  TriggerConfig
	next func(s float64, up bool) (score, s2 float64)
}{
	{"raw", TriggerConfig{Threshold: 1}, func(s float64, up bool) (float64, float64) {
		if up {
			return 5, s
		}
		return 0, s
	}},
	// s is the previous score: a step crosses when it differs from it.
	{"variance", TriggerConfig{K: 2, Threshold: 1}, func(s float64, up bool) (float64, float64) {
		if up {
			return 10 - s, 10 - s
		}
		return s, s
	}},
	// s is the EWMA (w = ½): steer it to 2 or back to 0.
	{"ewma", TriggerConfig{Threshold: 1, Running: &Running{Weight: 0.5}}, func(s float64, up bool) (float64, float64) {
		if up {
			return 4 - s, 2
		}
		return -s, 0
	}},
	{"cusum", TriggerConfig{Threshold: 1, Running: &Running{CUSUM: true, Ref: 1, Slack: 0.5}}, func(s float64, up bool) (float64, float64) {
		if up {
			return 5, s
		}
		return -1000, s
	}},
}

func script(pattern string, next func(float64, bool) (float64, float64)) []float64 {
	out := make([]float64, len(pattern))
	s := 0.0
	for i := range pattern {
		out[i], s = next(s, pattern[i] == '^')
	}
	return out
}

// steps feeds scores to tr and renders what each step returned: '#'
// for the default policy, '.' for the learned one.
func steps(tr *Trigger, scores []float64) string {
	b := make([]byte, len(scores))
	for i, x := range scores {
		b[i] = '.'
		if tr.Step(x) {
			b[i] = '#'
		}
	}
	return string(b)
}

// TestTriggerStatistics checks that the l-streak, the latch, probation
// and the non-finite skip behave the same over all four statistics.
func TestTriggerStatistics(t *testing.T) {
	for _, st := range statistics {
		latched := func(l, readmitL, readmitCap int) *Trigger {
			c := st.cfg
			c.L, c.Latched, c.ReadmitL, c.ReadmitCap = l, true, readmitL, readmitCap
			return NewTrigger(c)
		}
		t.Run(st.name+"/streak", func(t *testing.T) {
			tr := latched(3, 0, 0)
			if got, want := steps(tr, script(".^^.^^^..", st.next)), "......###"; got != want {
				t.Errorf("steps %s, want %s", got, want)
			}
			if tr.FiredAt != 6 {
				t.Errorf("FiredAt %d, want 6", tr.FiredAt)
			}
		})
		t.Run(st.name+"/probation", func(t *testing.T) {
			// Fire, re-admit after two calm steps, fire again and latch
			// for good: the one re-admission is spent.
			tr := latched(1, 2, 1)
			if got, want := steps(tr, script(".^..^....", st.next)), ".##.#####"; got != want {
				t.Errorf("steps %s, want %s", got, want)
			}
			if tr.Readmissions() != 1 || tr.ReadmittedAt != 3 || tr.FiredAt != 1 {
				t.Errorf("readmissions %d at %d, FiredAt %d; want 1 at 3, FiredAt 1",
					tr.Readmissions(), tr.ReadmittedAt, tr.FiredAt)
			}
		})
		t.Run(st.name+"/non-finite", func(t *testing.T) {
			clean := script(".^^.^^^", st.next)
			want := steps(latched(3, 0, 0), clean)
			for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				for at := 0; at <= len(clean); at++ {
					tr := latched(3, 0, 0)
					got := steps(tr, clean[:at])
					stat, fired, firedAt := tr.Statistic(), tr.Fired(), tr.FiredAt
					if !tr.Step(bad) {
						t.Errorf("%v at %d: Step returned false", bad, at)
					}
					if math.Float64bits(tr.Statistic()) != math.Float64bits(stat) || tr.Fired() != fired || tr.FiredAt != firedAt {
						t.Errorf("%v at %d: state moved: statistic %v→%v fired %v→%v FiredAt %d→%d",
							bad, at, stat, tr.Statistic(), fired, tr.Fired(), firedAt, tr.FiredAt)
					}
					if got += steps(tr, clean[at:]); got != want || tr.FiredAt != 6 {
						t.Errorf("%v at %d: steps %s FiredAt %d, want %s FiredAt 6", bad, at, got, tr.FiredAt, want)
					}
				}
			}
		})
	}
}

// FuzzTriggerStatistic drives the EWMA and CUSUM statistics of the
// one Trigger (L = 1) over score streams with NaN and ±Inf in them and
// compares every step with a plain reference recurrence. Each stream
// byte is a score: 0xFF NaN, 0xFE +Inf, 0xFD −Inf, else (b−128)/16.
func FuzzTriggerStatistic(f *testing.F) {
	f.Add(false, true, 0.2, 0.5, 0.0, 0.0, uint8(5), []byte{128, 140, 0xFF, 160, 200, 0xFE, 90, 250})
	f.Add(false, false, 1.0, 0.0, 0.0, 0.0, uint8(0), []byte{130, 0xFD, 120, 140, 100})
	f.Add(true, true, 0.0, 2.0, 1.0, 0.1, uint8(0), []byte{144, 0xFF, 150, 150, 150, 150, 0xFE, 150, 150})
	f.Add(true, false, 0.0, 1.0, -1.0, 0.5, uint8(3), []byte{0, 255, 254, 253, 200, 200, 10, 200})
	f.Fuzz(func(t *testing.T, isCUSUM, latched bool, w, th, ref, slack float64, k uint8, stream []byte) {
		for _, v := range []float64{w, th, ref, slack} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		cfg := TriggerConfig{K: int(k), Threshold: th, L: 1, Latched: latched,
			Running: &Running{CUSUM: isCUSUM, Weight: w, Ref: ref, Slack: slack}}
		if cfg.Validate() != nil {
			t.Skip()
		}
		tr := NewTrigger(cfg)
		s, n, fired, firedAt := 0.0, 0, false, -1
		for i, b := range stream {
			x := float64(int(b)-128) / 16
			switch b {
			case 0xFF:
				x = math.NaN()
			case 0xFE:
				x = math.Inf(1)
			case 0xFD:
				x = math.Inf(-1)
			}
			want := true
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				switch {
				case isCUSUM:
					s = math.Max(0, s+x-ref-slack)
				case n == 0:
					s = x
				default:
					s = w*x + (1-w)*s
				}
				active := n >= int(k) && s > th
				if active && !fired {
					fired, firedAt = true, n
				}
				n++
				want = active || (latched && fired)
			}
			if got := tr.Step(x); got != want {
				t.Fatalf("step %d (score %v): Step %v, want %v", i, x, got, want)
			}
			if math.Float64bits(tr.Statistic()) != math.Float64bits(s) || tr.Fired() != fired || tr.FiredAt != firedAt {
				t.Fatalf("step %d (score %v): statistic %v fired %v FiredAt %d, want %v %v %d",
					i, x, tr.Statistic(), tr.Fired(), tr.FiredAt, s, fired, firedAt)
			}
		}
	})
}

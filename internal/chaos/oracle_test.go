package chaos

import (
	"math"
	"testing"
)

func testRecoveryScript(t *testing.T) *Schedule {
	t.Helper()
	s, err := RecoveryScript(1, 48, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// flags replays one session and returns its full demoted-flag vector.
func flags(s *Schedule, idx uint64) []bool {
	out := make([]bool, s.Steps())
	s.replay(s.SessionPlan(idx).Faults, func(step int, d bool) { out[step] = d })
	return out
}

// wantFlags builds a flag vector from half-open demoted ranges.
func wantFlags(steps int, ranges ...[2]int) []bool {
	out := make([]bool, steps)
	for _, r := range ranges {
		for i := r[0]; i < r[1]; i++ {
			out[i] = true
		}
	}
	return out
}

func eqFlags(t *testing.T, name string, got, want []bool) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: step %d demoted = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestRecoveryPatternFlags pins the exact per-step demoted flags of
// every pattern under the standard config (S=48, l′=4, cap=2): the
// demotion fires at the fault step, the flag holds for exactly l′
// steps, and the re-admission serves live at fault+l′.
func TestRecoveryPatternFlags(t *testing.T) {
	s := testRecoveryScript(t)
	const S = 48
	eqFlags(t, "clean", flags(s, patClean), wantFlags(S))
	// NaN@6: demoted 6..9, recovered at 10.
	eqFlags(t, "recover", flags(s, patRecover), wantFlags(S, [2]int{6, 10}))
	eqFlags(t, "recover-inf", flags(s, patRecoverIn), wantFlags(S, [2]int{6, 10}))
	// NaN@6,14,22: two recoveries, then the cap latches at 22.
	eqFlags(t, "exhaust", flags(s, patExhaust),
		wantFlags(S, [2]int{6, 10}, [2]int{14, 18}, [2]int{22, S}))
	// panic@6: permanent from the fault on.
	eqFlags(t, "panic", flags(s, patPanic), wantFlags(S, [2]int{6, S}))
	// NaN@46: the run ends mid-probation.
	eqFlags(t, "tail", flags(s, patTail), wantFlags(S, [2]int{46, S}))
}

// TestRecoveryExpectedTotals checks the closed-form aggregates over a
// whole number of pattern cycles.
func TestRecoveryExpectedTotals(t *testing.T) {
	s := testRecoveryScript(t)
	const cycles = 10
	ex := s.Expected(cycles * recoveryPatterns)
	want := Expectation{
		Steps:          48 * cycles * recoveryPatterns, // no client aborts
		FirstDemotions: 5 * cycles,                     // every pattern but clean
		Demotions:      (1 + 3 + 1 + 1 + 1) * cycles,
		Redemotions:    2 * cycles, // exhaust re-demotes twice
		Recoveries:     (1 + 2 + 1) * cycles,
		Latched:        2 * cycles, // exhaust + panic
		Panics:         cycles,
		NonFinite:      (1 + 3 + 1 + 1) * cycles,
		EndDemoted:     3 * cycles, // exhaust, panic, tail
		EndProbation:   cycles,     // tail only
		DemotedSteps:   (4 + 34 + 42 + 4 + 2) * cycles,
	}
	if ex != want {
		t.Fatalf("Expected(%d) = %+v, want %+v", cycles*recoveryPatterns, ex, want)
	}
}

// TestReplayEscalationsAndStreaks walks the transitions no script
// pattern reaches: a panic during probation latches without being a
// demotion, a non-finite score during probation restarts the streak,
// and probation off latches every non-finite demotion.
func TestReplayEscalationsAndStreaks(t *testing.T) {
	replayOf := func(l, cap int, faults ...Fault) ([]bool, sessionOutcome) {
		out := make([]bool, 16)
		s := &Schedule{steps: 16, readmitL: l, readmitCap: cap}
		o := s.replay(faults, func(step int, d bool) { out[step] = d })
		return out, o
	}
	// NaN@2 then panic@3: one demotion, escalated to a latch.
	fs, o := replayOf(4, 2, Fault{2, NaNScore}, Fault{3, PanicObserve})
	eqFlags(t, "shadow-panic", fs, wantFlags(16, [2]int{2, 16}))
	if o.demotions != 1 || o.panics != 1 || o.nonFinite != 1 || o.latches != 1 || o.end != replayLatched {
		t.Fatalf("shadow-panic outcome %+v", o)
	}
	// NaN@2, NaN@4: the streak restarts at 4, recovery at 4+l′.
	fs, o = replayOf(3, 2, Fault{2, NaNScore}, Fault{4, NaNScore})
	eqFlags(t, "shadow-nan", fs, wantFlags(16, [2]int{2, 7}))
	if o.demotions != 1 || o.nonFinite != 1 || o.recoveries != 1 || o.latches != 0 {
		t.Fatalf("shadow-nan outcome %+v", o)
	}
	// Probation off: the first NaN latches, and the second is never read.
	fs, o = replayOf(0, 0, Fault{2, NaNScore}, Fault{4, PanicObserve})
	eqFlags(t, "probation-off", fs, wantFlags(16, [2]int{2, 16}))
	if o.demotions != 1 || o.panics != 0 || o.latches != 1 {
		t.Fatalf("probation-off outcome %+v", o)
	}
}

// TestRecoveryDemotedAtMatchesReplay cross-checks the per-step oracle
// against the replay vectors for every pattern.
func TestRecoveryDemotedAtMatchesReplay(t *testing.T) {
	s := testRecoveryScript(t)
	for idx := uint64(0); idx < recoveryPatterns; idx++ {
		fs := flags(s, idx)
		for step, want := range fs {
			if got := s.DemotedAt(idx, step); got != want {
				t.Fatalf("DemotedAt(%d, %d) = %v, want %v", idx, step, got, want)
			}
		}
	}
}

func TestRecoveryConfigValidate(t *testing.T) {
	for _, bad := range [][3]int{
		{48, 1, 2}, // tail pattern cannot end in probation
		{48, 4, 0}, // chain pattern needs a re-admission
	} {
		if _, err := RecoveryScript(1, bad[0], bad[1], bad[2]); err == nil {
			t.Errorf("RecoveryScript(steps %d, l′ %d, cap %d) accepted", bad[0], bad[1], bad[2])
		}
	}
	// RecoveryScript raises an undersized budget to the minimum: the
	// cap-exhaustion chain ends at 6 + 2·(4+4) = 22, plus a margin of 4.
	s, err := RecoveryScript(1, 8, 4, 2)
	if err != nil {
		t.Fatalf("RecoveryScript(8, 4, 2): %v", err)
	}
	if got := s.Steps(); got != 26 {
		t.Errorf("RecoveryScript(8, 4, 2) budget = %d, want 26", got)
	}
}

// TestRecoverySignalScript drives the fault wrapper with every recovery
// pattern's plan: each planned step answers with its fault (NaN, +Inf
// or a panic), every other step with a confident 0, never the inner
// signal's score.
func TestRecoverySignalScript(t *testing.T) {
	s := testRecoveryScript(t)
	for idx := uint64(0); idx < recoveryPatterns; idx++ {
		plan := s.SessionPlan(idx)
		sig := WrapSignal(constSignal{0.5}, plan)
		if sig.Name() != "const" {
			t.Fatalf("pattern %d: wrapper changed signal name to %q", idx, sig.Name())
		}
		want := make(map[int]Kind, len(plan.Faults))
		for _, f := range plan.Faults {
			want[f.Step] = f.Kind
		}
		for step := 0; step < s.Steps(); step++ {
			if want[step] == PanicObserve {
				// A panic latches the session: it stops observing here.
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("pattern %d step %d: panic kind did not panic", idx, step)
						}
					}()
					sig.Observe(nil)
				}()
				break
			}
			v := sig.Observe(nil)
			switch want[step] {
			case NaNScore:
				if !math.IsNaN(v) {
					t.Fatalf("pattern %d step %d: score %v, want NaN", idx, step, v)
				}
			case InfScore:
				if !math.IsInf(v, 1) {
					t.Fatalf("pattern %d step %d: score %v, want +Inf", idx, step, v)
				}
			default:
				if v != 0 {
					t.Fatalf("pattern %d step %d: score %v, want confident 0 (never the inner signal)", idx, step, v)
				}
			}
		}
	}
}

// TestRecoveryFaultsPrecedeLatch checks the alignment invariant the
// signal wrapper depends on: every scheduled fault fires while the
// session still consults its guard (live or probation), never after a
// permanent latch stopped the Observe stream.
func TestRecoveryFaultsPrecedeLatch(t *testing.T) {
	s := testRecoveryScript(t)
	for idx := uint64(0); idx < recoveryPatterns; idx++ {
		p := s.SessionPlan(idx)
		if p.Clean() {
			continue
		}
		last := p.Faults[len(p.Faults)-1].Step
		fs := flags(s, idx)
		// Before the last fault there must be no latched run: a latched
		// session never flips back, so check no demoted stretch before
		// `last` extends to the end of the episode.
		for start := 0; start < last; start++ {
			if !fs[start] {
				continue
			}
			end := start
			for end < len(fs) && fs[end] {
				end++
			}
			if end == len(fs) && last > start {
				t.Fatalf("pattern %d: fault at %d scheduled inside a permanent latch starting at %d", idx, last, start)
			}
			start = end
		}
	}
}

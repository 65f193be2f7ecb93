package chaos

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// constSignal is a minimal core.Signal for wrapper tests.
type constSignal struct{ v float64 }

func (c constSignal) Observe([]float64) float64 { return c.v }
func (c constSignal) Reset()                    {}
func (c constSignal) Name() string              { return "const" }

func TestScheduleDeterminism(t *testing.T) {
	a := ServeScript(42, 48, 0, 0)
	b := ServeScript(42, 48, 0, 0)
	for i := 0; i < 500; i++ {
		if !reflect.DeepEqual(a.SessionPlan(uint64(i)), b.SessionPlan(uint64(i))) {
			t.Fatalf("session plan %d differs between identical schedules", i)
		}
		if a.ClientPlan(i) != b.ClientPlan(i) {
			t.Fatalf("client plan %d differs between identical schedules", i)
		}
	}
	// A different seed must produce a different schedule.
	c := ServeScript(43, 48, 0, 0)
	same := 0
	for i := 0; i < 500; i++ {
		if reflect.DeepEqual(a.SessionPlan(uint64(i)), c.SessionPlan(uint64(i))) {
			same++
		}
	}
	if same == 500 {
		t.Fatal("seed change did not change the schedule")
	}
}

func TestScheduleBoundsAndCounts(t *testing.T) {
	s := ServeScript(7, 48, 0, 0)
	// Probation off: faults fill the first half, aborts the second.
	if lo, hi, abort := faultStepMin, s.faultStepMax(), s.abortStepMin(); lo != 2 || hi != 24 || abort != 25 {
		t.Fatalf("fault steps [%d, %d], aborts from %d; want [2, 24] and 25", lo, hi, abort)
	}
	const n = 1000
	faulted := 0
	for i := 0; i < n; i++ {
		p := s.SessionPlan(uint64(i))
		if len(p.Faults) > 1 {
			t.Fatalf("session %d has %d faults, the seeded script plans at most one", i, len(p.Faults))
		}
		for _, f := range p.Faults {
			faulted++
			if f.Kind == None || f.Step < faultStepMin || f.Step > s.faultStepMax() {
				t.Fatalf("fault %+v outside [%d, %d]", f, faultStepMin, s.faultStepMax())
			}
		}
		cp := s.ClientPlan(i)
		if cp.AbortStep != 0 && (cp.AbortStep < s.abortStepMin() || cp.AbortStep > s.Steps()) {
			t.Fatalf("abort step %d outside [%d, %d]", cp.AbortStep, s.abortStepMin(), s.Steps())
		}
	}
	// With probation off every fault demotes its session once, for good.
	ex := s.Expected(n)
	if ex.FirstDemotions != faulted || ex.Demotions != faulted || ex.Latched != faulted || ex.EndDemoted != faulted {
		t.Fatalf("Expected = %+v, counted %d faulted sessions", ex, faulted)
	}
	if ex.Panics+ex.NonFinite != faulted || ex.Recoveries != 0 || ex.EndProbation != 0 {
		t.Fatalf("Expected = %+v: causes must sum to the %d faults, with nothing recovering", ex, faulted)
	}
	// ~1 in 8 sessions faulted; allow wide slack around the rate.
	if faulted < n/16 || faulted > n/4 {
		t.Fatalf("faulted %d of %d sessions, want roughly 1 in %d", faulted, n, faultEvery)
	}
	var manual int64
	for i := 0; i < n; i++ {
		steps := 48
		if p := s.ClientPlan(i); p.AbortStep > 0 && p.AbortStep < steps {
			steps = p.AbortStep
		}
		manual += int64(steps)
	}
	if ex.Steps != manual {
		t.Fatalf("Expected.Steps = %d, manual sum %d", ex.Steps, manual)
	}
}

// TestServeScriptUnderProbation: the seeded script under l′ = 4 keeps
// its faulted sessions but draws their fault steps low enough that
// every non-finite demotion re-admits before the first client abort,
// and the oracle says so — each recovers exactly once, ReadmitL steps
// after its fault, and only the panics end demoted.
func TestServeScriptUnderProbation(t *testing.T) {
	const n = 1000
	off := ServeScript(7, 48, 0, 0)
	on := ServeScript(7, 48, 4, 2)
	// Under l′ = 4 the fault range shrinks by l′; aborts stay at 25.
	if hi, abort := on.faultStepMax(), on.abortStepMin(); hi != 20 || abort != 25 {
		t.Fatalf("fault steps reach %d, recoveries 4 steps later, aborts from %d; want 20 and 25", hi, abort)
	}
	exOff, exOn := off.Expected(n), on.Expected(n)
	if exOn.FirstDemotions != exOff.FirstDemotions || exOn.Panics != exOff.Panics || exOn.NonFinite != exOff.NonFinite {
		t.Fatalf("probation changed which sessions fault: off %+v, on %+v", exOff, exOn)
	}
	if exOn.Recoveries != exOn.NonFinite || exOn.Latched != exOn.Panics || exOn.EndDemoted != exOn.Panics || exOn.EndProbation != 0 {
		t.Fatalf("Expected under probation = %+v, want every non-finite demotion recovered and every panic latched", exOn)
	}
	for i := uint64(0); i < n; i++ {
		p := on.SessionPlan(i)
		if len(p.Faults) == 0 || p.Faults[0].Kind == PanicObserve {
			continue
		}
		f := p.Faults[0].Step
		for step := 0; step < on.Steps(); step++ {
			if got, want := on.DemotedAt(i, step), step >= f && step < f+4; got != want {
				t.Fatalf("session %d (fault at %d): DemotedAt(%d) = %v, want %v", i, f, step, got, want)
			}
		}
	}
}

// TestConfigValidate: ServeScript's bounds hold the invariant every
// exact total rests on, whatever its arguments — each transition a
// seeded fault schedules (the demotion, and under probation the
// re-admission l′ steps later) lands before any client can abort, and
// both ranges are non-empty.
func TestConfigValidate(t *testing.T) {
	for steps := 0; steps <= 96; steps++ {
		for _, l := range []int{0, 1, 2, 4, 8, 30} {
			for _, cap := range []int{-1, 0, 1, 2} {
				s := ServeScript(1, steps, l, cap)
				settle := 0
				if l > 0 && cap != 0 {
					settle = l
				}
				lo, hi, abort := faultStepMin, s.faultStepMax(), s.abortStepMin()
				if s.Steps() < steps || lo > hi || hi+settle >= abort || abort > s.Steps() {
					t.Fatalf("ServeScript(steps %d, l′ %d, cap %d): budget %d, faults [%d, %d] settle by %d, aborts from %d",
						steps, l, cap, s.Steps(), lo, hi, hi+settle, abort)
				}
			}
		}
	}
}

// TestWrapSignalInjectsNonFinite: the wrapper answers every step of a
// plan from the plan — the planned value at each fault step, a confident
// 0 everywhere else — and never the inner signal's score.
func TestWrapSignalInjectsNonFinite(t *testing.T) {
	sig := WrapSignal(constSignal{0.5}, SessionPlan{Faults: []Fault{{2, NaNScore}, {5, InfScore}, {6, NaNScore}}})
	for step := 0; step < 9; step++ {
		v := sig.Observe(nil)
		switch step {
		case 2, 6:
			if !math.IsNaN(v) {
				t.Fatalf("step %d: score %v, want NaN", step, v)
			}
		case 5:
			if !math.IsInf(v, 1) {
				t.Fatalf("step %d: score %v, want +Inf", step, v)
			}
		default:
			if v != 0 {
				t.Fatalf("step %d: score %v, want a confident 0 (never the inner signal)", step, v)
			}
		}
	}
	if sig.Name() != "const" {
		t.Fatalf("wrapper changed signal name to %q", sig.Name())
	}
}

func TestWrapSignalPanics(t *testing.T) {
	sig := WrapSignal(constSignal{0}, SessionPlan{Faults: []Fault{{1, PanicObserve}}})
	if v := sig.Observe(nil); v != 0 {
		t.Fatalf("score before the panic = %v, want 0", v)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("PanicObserve did not panic")
		}
	}()
	sig.Observe(nil)
}

func TestWrapSignalSpikes(t *testing.T) {
	slept := 0
	sig := &faultSignal{
		inner: constSignal{0},
		plan:  SessionPlan{SpikeEvery: 4, SpikePhase: 1, SpikeDelay: time.Millisecond},
		sleep: func(d time.Duration) {
			if d != time.Millisecond {
				t.Fatalf("spike delay = %v", d)
			}
			slept++
		},
	}
	for i := 0; i < 12; i++ {
		sig.Observe(nil)
	}
	if slept != 3 {
		t.Fatalf("spiked %d of 12 steps, want 3 (every 4th, phase 1)", slept)
	}
}

func TestRequestFaultsRejectsAndDelays(t *testing.T) {
	fault := ServeScript(1, 48, 0, 0).RequestFaults()
	rejected, delayed := 0, 0
	for n := 1; n <= rejectEvery*delayEvery; n++ {
		reject, delay := fault()
		switch {
		case reject && delay != 0:
			t.Fatalf("request %d rejected and delayed %v", n, delay)
		case reject:
			rejected++
		case delay == requestDelay:
			delayed++
		case delay != 0:
			t.Fatalf("request %d delayed %v, want %v", n, delay, requestDelay)
		}
	}
	// The last request is due both a rejection and a delay; it is only
	// rejected.
	if rejected != delayEvery || delayed != rejectEvery-1 {
		t.Fatalf("rejected %d and delayed %d of %d, want %d and %d",
			rejected, delayed, rejectEvery*delayEvery, delayEvery, rejectEvery-1)
	}
	if s, err := RecoveryScript(1, 48, 4, 2); err != nil || s.RequestFaults() != nil {
		t.Fatalf("the recovery script returned a request fault function (err %v)", err)
	}
}

func TestCorruptFileFlipsOneBit(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	orig := []byte("the quick brown fox jumps over the lazy dog")
	if err := os.WriteFile(path, orig, 0o644); err != nil {
		t.Fatal(err)
	}
	off, bit, err := CorruptFile(path, 99)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	diff := 0
	for i := range orig {
		if orig[i] != got[i] {
			diff++
			if i != off || orig[i]^got[i] != 1<<bit {
				t.Fatalf("byte %d changed %08b→%08b, reported (%d, %d)", i, orig[i], got[i], off, bit)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes changed, want exactly 1", diff)
	}
	// Same seed → same bit: a second flip restores the original.
	if _, _, err := CorruptFile(path, 99); err != nil {
		t.Fatal(err)
	}
	back, _ := os.ReadFile(path)
	if !bytes.Equal(back, orig) {
		t.Fatal("double flip with one seed did not restore the file")
	}
}

func TestTruncateFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, make([]byte, 100), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := TruncateFile(path, 0.5); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 50 {
		t.Fatalf("size after truncate = %d, want 50", info.Size())
	}
	if err := TruncateFile(path, 1.5); err == nil {
		t.Fatal("fraction 1.5 accepted")
	}
}

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

func testSchedule(t *testing.T, cfg Config) *Schedule {
	t.Helper()
	s, err := NewSchedule(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func serveScript(t *testing.T, seed uint64, steps, readmitL, readmitCap int) *Schedule {
	t.Helper()
	s, err := ServeScript(seed, steps, readmitL, readmitCap)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScheduleDeterminism(t *testing.T) {
	a := serveScript(t, 42, 48, 0, 0)
	b := serveScript(t, 42, 48, 0, 0)
	for i := 0; i < 500; i++ {
		if !reflect.DeepEqual(a.SessionPlan(uint64(i)), b.SessionPlan(uint64(i))) {
			t.Fatalf("session plan %d differs between identical schedules", i)
		}
		if a.ClientPlan(i) != b.ClientPlan(i) {
			t.Fatalf("client plan %d differs between identical schedules", i)
		}
	}
	// A different seed must produce a different schedule.
	c := serveScript(t, 43, 48, 0, 0)
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
	s := serveScript(t, 7, 48, 0, 0)
	cfg := s.Config()
	const n = 1000
	faulted := 0
	for i := 0; i < n; i++ {
		p := s.SessionPlan(uint64(i))
		if len(p.Faults) > 1 {
			t.Fatalf("session %d has %d faults, the seeded script plans at most one", i, len(p.Faults))
		}
		for _, f := range p.Faults {
			faulted++
			if f.Kind == None || f.Step < cfg.FaultStepMin || f.Step > cfg.FaultStepMax {
				t.Fatalf("fault %+v outside [%d, %d]", f, cfg.FaultStepMin, cfg.FaultStepMax)
			}
		}
		cp := s.ClientPlan(i)
		if cp.AbortStep != 0 && (cp.AbortStep < cfg.AbortStepMin || cp.AbortStep > cfg.Steps) {
			t.Fatalf("abort step %d outside [%d, %d]", cp.AbortStep, cfg.AbortStepMin, cfg.Steps)
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
		t.Fatalf("faulted %d of %d sessions, want roughly 1 in %d", faulted, n, cfg.FaultEvery)
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
	off := serveScript(t, 7, 48, 0, 0)
	on := serveScript(t, 7, 48, 4, 2)
	cfg := on.Config()
	if cfg.FaultStepMax+cfg.ReadmitL >= cfg.AbortStepMin {
		t.Fatalf("fault steps reach %d, recoveries %d steps later, aborts from %d", cfg.FaultStepMax, cfg.ReadmitL, cfg.AbortStepMin)
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
		for step := 0; step < cfg.Steps; step++ {
			if got, want := on.DemotedAt(i, step), step >= f && step < f+cfg.ReadmitL; got != want {
				t.Fatalf("session %d (fault at %d): DemotedAt(%d) = %v, want %v", i, f, step, got, want)
			}
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{FaultEvery: 2, FaultStepMin: 5, FaultStepMax: 3},
		{SpikeSessionEvery: 2},
		{Steps: 4, AbortEvery: 2, AbortStepMin: 0},
		{Steps: 4, AbortEvery: 2, AbortStepMin: 5},
		// Faults may fire after aborts begin: the exactness invariant breaks.
		{Steps: 12, FaultEvery: 2, FaultStepMin: 1, FaultStepMax: 10, AbortEvery: 3, AbortStepMin: 8},
		// The faults land first, but their re-admissions may not.
		{Steps: 12, ReadmitL: 4, ReadmitCap: 1, FaultEvery: 2, FaultStepMin: 1, FaultStepMax: 5, AbortEvery: 3, AbortStepMin: 8},
		{RejectEvery: -1},
		{Steps: -1},
	}
	for i, cfg := range bad {
		if _, err := NewSchedule(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	// With the re-admission budget at 0 nothing recovers, so only the
	// demotion itself must precede the aborts.
	if _, err := NewSchedule(Config{Steps: 12, ReadmitL: 4, FaultEvery: 2, FaultStepMin: 1, FaultStepMax: 5, AbortEvery: 3, AbortStepMin: 8}); err != nil {
		t.Errorf("cap-0 config rejected: %v", err)
	}
	for _, l := range []int{0, 4, 30} {
		if _, err := ServeScript(1, 48, l, 2); err != nil {
			t.Errorf("ServeScript under l′ = %d rejected: %v", l, err)
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
	sched := testSchedule(t, Config{Seed: 1, RejectEvery: 3, DelayEvery: 4, Delay: time.Millisecond})
	fault := sched.RequestFaults()
	var rejected, delayed []int
	for n := 1; n <= 12; n++ {
		reject, delay := fault()
		if reject {
			rejected = append(rejected, n)
		}
		if delay > 0 {
			delayed = append(delayed, n)
		}
	}
	// A request due both a rejection and a delay is only rejected.
	if !reflect.DeepEqual(rejected, []int{3, 6, 9, 12}) || !reflect.DeepEqual(delayed, []int{4, 8}) {
		t.Fatalf("rejected %v delayed %v of 12, want [3 6 9 12] and [4 8]", rejected, delayed)
	}
	if testSchedule(t, Config{Seed: 1}).RequestFaults() != nil {
		t.Fatal("a schedule without request faults returned a fault function")
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

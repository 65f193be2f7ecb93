package serve

import (
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/learn"
	"osap/internal/stats"
	"osap/internal/trace"
)

// TestHotHelpersZeroAlloc pins the //osap:hotpath contracts of the
// small helpers the step path leans on: the canary router hash, the
// latency histogram, and a shard's drift sketches.
func TestHotHelpersZeroAlloc(t *testing.T) {
	t.Run("mix64", func(t *testing.T) {
		var h uint64
		allocs := testing.AllocsPerRun(1000, func() {
			h = stats.Mix64(h + 12345)
		})
		if allocs != 0 {
			t.Fatalf("stats.Mix64 allocated %.1f times per run, want 0", allocs)
		}
	})
	t.Run("histogram-observe", func(t *testing.T) {
		h := NewHistogram()
		allocs := testing.AllocsPerRun(1000, func() {
			h.Observe(0.0042)
		})
		if allocs != 0 {
			t.Fatalf("Histogram.Observe allocated %.1f times per run, want 0", allocs)
		}
		if h.Count() == 0 {
			t.Fatal("Histogram.Observe recorded nothing")
		}
	})
	t.Run("drift-observe", func(t *testing.T) {
		f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
		if err != nil {
			t.Fatal(err)
		}
		shards := newShards(f)
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			sh := shards[i%len(shards)]
			sh.mu.Lock()
			sh.drift[i%driftSignals].Add(float64(i) * 0.25)
			sh.mu.Unlock()
			i++
		})
		if allocs != 0 {
			t.Fatalf("a shard's drift sketch Add allocated %.1f times per run, want 0", allocs)
		}
	})
}

// TestGateStepZeroAlloc pins the online-learning trust gate's
// //osap:hotpath contract: a gated Session.Step — including admissions,
// which copy the feature vector into the handoff ring — allocates
// nothing. The learner's flush interval is an hour so its background
// goroutine stays quiescent during measurement (AllocsPerRun counts
// process-wide mallocs), and the alphas of a copy of the served set are
// relaxed so ensemble disagreement never vetoes: admission is decided
// by U_S alone, on a Norway trace's throughput, the distribution the
// set's OC-SVM was fit on.
func TestGateStepZeroAlloc(t *testing.T) {
	relaxed := *sharedArtifacts(t)
	arts := &relaxed
	arts.AlphaPi, arts.AlphaV = 1e9, 1e9
	f, err := NewGuardFactory(arts, GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	learner, err := learn.New(learn.Config{
		Artifacts:     arts,
		FlushInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Stop() //nolint:errcheck // no log configured
	g, err := f.NewGuard(SchemeND)
	if err != nil {
		t.Fatal(err)
	}
	s := newSession("gate-alloc", SchemeND, g, time.Now())
	s.gate, err = learner.NewGate(0)
	if err != nil {
		t.Fatal(err)
	}

	// Throughput samples from the OC-SVM's training distribution,
	// precomputed so the step loop only writes one obs slot.
	samples := trace.Norway3G().Generate(stats.NewRNG(42), 4096).Mbps
	const thrIdx = 3*abr.HistoryLen - 1 // throughput row (2), newest slot
	obs := make([]float64, abr.ObsDim)
	now := time.Now()
	i := 0
	step := func() {
		obs[thrIdx] = samples[i%len(samples)] / 10 // obs stores Mbps/10
		i++
		if _, err := s.Step(obs, now); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < 200; j++ {
		step() // warm: fill feature windows past the gate's warmup verdicts
	}
	if learner.Counters().Admitted.Load() == 0 {
		t.Fatal("gate admitted nothing during warmup; the zero-alloc run would not cover the admission path")
	}
	// The gate admits at most one step in four at steady state, so a
	// per-step average would round the admissions' allocations down to
	// 0: one measured run of many steps counts every malloc.
	const steps = 4000
	admitted := learner.Counters().Admitted.Load()
	allocs := testing.AllocsPerRun(1, func() {
		for j := 0; j < steps; j++ {
			step()
		}
	})
	if allocs != 0 {
		t.Errorf("%d gated Session.Steps allocate %.0f times on the clean path, want 0", steps, allocs)
	}
	// AllocsPerRun runs the loop twice: a warm-up and the measured run.
	if got := learner.Counters().Admitted.Load() - admitted; got < steps/4 {
		t.Errorf("gate admitted %d of %d steps, want at least %d: the admission path went unmeasured", got, 2*steps, steps/4)
	}
	if learner.Counters().RingDropped.Load() != 0 {
		t.Error("handoff ring overflowed during the measurement window")
	}
}

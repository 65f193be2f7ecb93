package netem

import (
	"math"
	"testing"

	"osap/internal/abr"
	"osap/internal/trace"
)

func constTrace(mbps float64, secs int) *trace.Trace {
	tr := &trace.Trace{Name: "const"}
	for i := 0; i < secs; i++ {
		tr.Mbps = append(tr.Mbps, mbps)
	}
	return tr
}

func newEm(t *testing.T, cfg LinkConfig, start float64) *Emulator {
	t.Helper()
	em, err := NewEmulator(cfg, start)
	if err != nil {
		t.Fatal(err)
	}
	return em
}

func TestNewEmulatorValidation(t *testing.T) {
	if _, err := NewEmulator(LinkConfig{}, 0); err == nil {
		t.Error("nil trace accepted")
	}
	if _, err := NewEmulator(LinkConfig{Trace: constTrace(0, 5)}, 0); err == nil {
		t.Error("all-zero trace accepted")
	}
	if _, err := NewEmulator(LinkConfig{Trace: constTrace(1, 5), PropDelaySec: -1}, 0); err == nil {
		t.Error("negative delay accepted")
	}
	if _, err := NewEmulator(LinkConfig{Trace: constTrace(1, 5), InitialCwnd: 50, MaxCwnd: 10}, 0); err == nil {
		t.Error("MaxCwnd < InitialCwnd accepted")
	}
}

// TestNewEmulatorRefusesNonFinite: a NaN propagation delay used to pass
// and stall the first episode forever, so each case must fail the
// constructor, directly and through abr.NewEnv's packet link; nothing
// is fetched.
func TestNewEmulatorRefusesNonFinite(t *testing.T) {
	cases := []struct {
		name  string
		delay float64
		start float64
	}{
		{"NaN delay", math.NaN(), 0},
		{"+Inf delay", math.Inf(1), 0},
		{"-Inf delay", math.Inf(-1), 0},
		{"NaN start", 0.04, math.NaN()},
		{"+Inf start", 0.04, math.Inf(1)},
		{"-Inf start", 0.04, math.Inf(-1)},
	}
	for _, c := range cases {
		cfg := DefaultLinkConfig(constTrace(2, 10))
		cfg.PropDelaySec = c.delay
		if _, err := NewEmulator(cfg, c.start); err == nil {
			t.Errorf("%s: NewEmulator accepted", c.name)
		}
		if c.start != 0 {
			continue
		}
		env := abr.DefaultEnvConfig(abr.SyntheticVideo(1, 8, 4), []*trace.Trace{cfg.Trace})
		env.Link = PacketLink(cfg)
		if _, err := abr.NewEnv(env); err == nil {
			t.Errorf("%s: abr.NewEnv accepted the packet link", c.name)
		}
	}
}

func TestFetchLinkLimitedExact(t *testing.T) {
	// 1.2 Mbps = 100 packets/s. 150000 B = 100 packets. Opportunities at
	// k/100 for k=0..99; last delivery at 0.99 s.
	cfg := LinkConfig{Trace: constTrace(1.2, 100), SlowStart: false}
	em := newEm(t, cfg, 0)
	dur := em.FetchBytes(150000)
	if math.Abs(dur-0.99) > 1e-9 {
		t.Errorf("duration = %v, want 0.99", dur)
	}
	if em.pktsDelivered != 100 {
		t.Errorf("packets = %d, want 100", em.pktsDelivered)
	}
}

func TestFetchAddsPropagationDelay(t *testing.T) {
	base := LinkConfig{Trace: constTrace(1.2, 100), SlowStart: false}
	withDelay := base
	withDelay.PropDelaySec = 0.04
	d0 := newEm(t, base, 0).FetchBytes(150000)
	d1 := newEm(t, withDelay, 0).FetchBytes(150000)
	// Request delay + final-packet delay = 2 × 40 ms, plus delivery
	// opportunities shifting by up to one slot.
	if d1-d0 < 0.08-1e-9 || d1-d0 > 0.08+0.011 {
		t.Errorf("prop-delay delta = %v, want ≈ 0.08", d1-d0)
	}
}

func TestFetchSpansSeconds(t *testing.T) {
	// 0.6 Mbps = 50 pkt/s; 100 packets need two full seconds of
	// opportunities: last at 1 + 49/50 = 1.98.
	cfg := LinkConfig{Trace: constTrace(0.6, 100), SlowStart: false}
	em := newEm(t, cfg, 0)
	dur := em.FetchBytes(150000)
	if math.Abs(dur-1.98) > 1e-9 {
		t.Errorf("duration = %v, want 1.98", dur)
	}
}

func TestFetchSkipsOutageSeconds(t *testing.T) {
	// Second 0 is dead; delivery starts at second 1.
	tr := &trace.Trace{Name: "outage", Mbps: []float64{0, 1.2, 1.2, 1.2}}
	cfg := LinkConfig{Trace: tr, SlowStart: false}
	em := newEm(t, cfg, 0)
	dur := em.FetchBytes(1500) // one packet, first opportunity at t=1
	if math.Abs(dur-1.0) > 1e-9 {
		t.Errorf("duration = %v, want 1.0", dur)
	}
}

func TestTraceWrapsAround(t *testing.T) {
	tr := constTrace(1.2, 2) // 2-second trace
	cfg := LinkConfig{Trace: tr, SlowStart: false}
	em := newEm(t, cfg, 0)
	// 300 packets need 3 seconds of opportunities; trace wraps.
	dur := em.FetchBytes(450000)
	if math.Abs(dur-2.99) > 1e-9 {
		t.Errorf("duration = %v, want 2.99", dur)
	}
}

func TestSlowStartSlowerOnShortFlows(t *testing.T) {
	// Fast link (12 Mbps = 1000 pkt/s), non-trivial RTT: a 100-packet
	// flow is window-limited under slow start.
	mk := func(ss bool) float64 {
		cfg := LinkConfig{Trace: constTrace(12, 100), PropDelaySec: 0.04, SlowStart: ss, InitialCwnd: 10, MaxCwnd: 1024}
		return newEm(t, cfg, 0).FetchBytes(150000)
	}
	noSS, withSS := mk(false), mk(true)
	if withSS <= noSS {
		t.Errorf("slow start (%v) should be slower than link-limited (%v)", withSS, noSS)
	}
	// But bounded: it shouldn't add more than ~log2(100/10)+2 RTTs.
	if withSS > noSS+0.08*8 {
		t.Errorf("slow start too slow: %v vs %v", withSS, noSS)
	}
}

func TestSlowStartConvergesToLinkLimited(t *testing.T) {
	// For a long flow the window opens and the transfer becomes
	// link-limited: durations should be within a few RTTs.
	mk := func(ss bool) float64 {
		cfg := LinkConfig{Trace: constTrace(2.4, 1000), PropDelaySec: 0.04, SlowStart: ss, InitialCwnd: 10, MaxCwnd: 4096}
		return newEm(t, cfg, 0).FetchBytes(3e6) // 2000 packets, ~10 s
	}
	noSS, withSS := mk(false), mk(true)
	if withSS < noSS {
		t.Fatalf("slow start faster than link-limited: %v < %v", withSS, noSS)
	}
	if withSS-noSS > 0.5 {
		t.Errorf("slow-start overhead %v too large on a long flow", withSS-noSS)
	}
}

func TestFetchAdvancesClockMonotonically(t *testing.T) {
	cfg := LinkConfig{Trace: constTrace(1.2, 100), PropDelaySec: 0.04, SlowStart: true, InitialCwnd: 10, MaxCwnd: 100}
	em := newEm(t, cfg, 0)
	prev := em.now
	for i := 0; i < 5; i++ {
		em.FetchBytes(30000)
		if em.now <= prev {
			t.Fatal("clock did not advance")
		}
		prev = em.now
	}
}

func TestBackToBackFetchesConsumeDistinctOpportunities(t *testing.T) {
	// Two consecutive 50-packet fetches over a 100 pkt/s link must take
	// the same total time as one 100-packet fetch.
	cfg := LinkConfig{Trace: constTrace(1.2, 100), SlowStart: false}
	em1 := newEm(t, cfg, 0)
	d := em1.FetchBytes(75000)
	d += em1.FetchBytes(75000)
	em2 := newEm(t, cfg, 0)
	whole := em2.FetchBytes(150000)
	if math.Abs(em1.now-em2.now) > 1e-9 {
		t.Errorf("split fetches end at %v, whole at %v", em1.now, em2.now)
	}
	_ = d
	_ = whole
}

func TestAdvanceToAndBy(t *testing.T) {
	em := newEm(t, LinkConfig{Trace: constTrace(1, 10)}, 0)
	em.AdvanceBy(2.5)
	if em.now != 2.5 {
		t.Errorf("Now = %v", em.now)
	}
	em.AdvanceBy(-1)
	if em.now != 2.5 {
		t.Error("AdvanceBy went backwards")
	}
}

func TestFetchZeroBytes(t *testing.T) {
	cfg := LinkConfig{Trace: constTrace(1, 10), PropDelaySec: 0.04}
	em := newEm(t, cfg, 0)
	if d := em.FetchBytes(0); math.Abs(d-0.08) > 1e-12 {
		t.Errorf("zero-byte fetch = %v, want RTT", d)
	}
}

func TestStartOffsetRespected(t *testing.T) {
	// Ramp trace: second 0 slow, second 5 fast. Starting at 5 must be
	// faster.
	tr := &trace.Trace{Name: "ramp", Mbps: []float64{0.12, 0.12, 0.12, 0.12, 0.12, 12, 12, 12}}
	cfg := LinkConfig{Trace: tr, SlowStart: false}
	slow := newEm(t, cfg, 0).FetchBytes(150000)
	fast := newEm(t, cfg, 5).FetchBytes(150000)
	if fast >= slow {
		t.Errorf("start at fast second (%v) not faster than slow (%v)", fast, slow)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := DefaultLinkConfig(constTrace(2.4, 50))
	a := newEm(t, cfg, 3.3)
	b := newEm(t, cfg, 3.3)
	for i := 0; i < 10; i++ {
		if a.FetchBytes(40000) != b.FetchBytes(40000) {
			t.Fatal("emulator not deterministic")
		}
	}
}

func TestFetchStats(t *testing.T) {
	// 1.2 Mbps = 100 pkt/s, prop 40 ms, link-limited 10-packet fetch
	// starting at t=0: first delivery at opportunity 0 (server start
	// 0.04 → first opp at 0.04? opportunities are at k/100 within each
	// second, so the first at or after 0.04 is 0.04).
	cfg := LinkConfig{Trace: constTrace(1.2, 100), PropDelaySec: 0.04, SlowStart: false}
	em := newEm(t, cfg, 0)
	dur := em.FetchBytes(15000)
	st := em.lastStats
	if st.Packets != 10 {
		t.Errorf("packets = %d, want 10", st.Packets)
	}
	if math.Abs(st.DurationSec-dur) > 1e-12 {
		t.Errorf("stats duration %v != returned %v", st.DurationSec, dur)
	}
	if st.FirstByteSec <= 0.04 || st.FirstByteSec > 0.12 {
		t.Errorf("first byte at %v, want ≈ 2×prop", st.FirstByteSec)
	}
	// Inter-packet gap ≈ 1/100 s on a 100 pkt/s link.
	if math.Abs(st.MeanGapSec-0.01) > 1e-9 {
		t.Errorf("mean gap = %v, want 0.01", st.MeanGapSec)
	}
}

func TestFetchStatsSinglePacket(t *testing.T) {
	cfg := LinkConfig{Trace: constTrace(1.2, 100), SlowStart: false}
	em := newEm(t, cfg, 0)
	em.FetchBytes(100)
	st := em.lastStats
	if st.Packets != 1 || st.MeanGapSec != 0 {
		t.Errorf("single packet stats = %+v", st)
	}
	if st.FirstByteSec != st.DurationSec {
		t.Error("single-packet first byte should equal duration")
	}
}

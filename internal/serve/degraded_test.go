package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/chaos"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/serve/proto"
)

// faultedSession builds a session whose inference stack is scripted to
// fault at the given step via the chaos signal wrapper — the same seam
// the chaos selftest uses, driven deterministically here.
func faultedSession(t *testing.T, kind chaos.Kind, step int) *Session {
	t.Helper()
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.NewGuard(SchemeND)
	if err != nil {
		t.Fatal(err)
	}
	script(g, chaos.Fault{Step: step, Kind: kind})
	return newSession("faulted", SchemeND, g, time.Now())
}

// TestSessionStepPanicRecovery drives a session across an injected
// inference panic: the panic must not escape Step, the faulting step is
// still answered (from the safe policy), and the session stays demoted
// for the rest of its life.
func TestSessionStepPanicRecovery(t *testing.T) {
	for _, tc := range []struct {
		kind      chaos.Kind
		wantPanic bool
	}{
		{chaos.PanicObserve, true},
		{chaos.NaNScore, false},
		{chaos.InfScore, false},
	} {
		const faultStep = 3
		s := faultedSession(t, tc.kind, faultStep)
		obs := make([]float64, abr.ObsDim)
		for i := 0; i < 2*faultStep; i++ {
			res, err := s.Step(obs, time.Now())
			if err != nil {
				t.Fatalf("%v step %d: %v", tc.kind, i, err)
			}
			if got, want := res.Demoted(), i >= faultStep; got != want {
				t.Fatalf("%v step %d: Demoted = %v, want %v", tc.kind, i, got, want)
			}
			if got, want := res.FirstDemotion, i == faultStep; got != want {
				t.Fatalf("%v step %d: FirstDemotion = %v, want %v", tc.kind, i, got, want)
			}
			if res.FirstDemotion && res.Panicked != tc.wantPanic {
				t.Fatalf("%v: PanicRecovered = %v, want %v", tc.kind, res.Panicked, tc.wantPanic)
			}
			if res.Demoted() {
				if !res.Decision.UsedDefault {
					t.Fatalf("%v step %d: degraded step served the learned policy", tc.kind, i)
				}
				if math.IsNaN(res.Decision.Score) || math.IsInf(res.Decision.Score, 0) {
					t.Fatalf("%v step %d: degraded step leaked score %v", tc.kind, i, res.Decision.Score)
				}
			}
			// Demotions are infrastructure faults, not uncertainty
			// triggers: the firings counter must never see them.
			if res.FirstFiring {
				t.Fatalf("%v step %d: demotion reported as a trigger firing", tc.kind, i)
			}
		}
		info := s.Snapshot(time.Now())
		if !info.Demoted || info.DemoteReason == "" {
			t.Fatalf("%v: snapshot missing demotion state: %+v", tc.kind, info)
		}
		if info.Steps != 2*faultStep {
			t.Fatalf("%v: %d steps recorded, want %d (no step may be dropped)", tc.kind, info.Steps, 2*faultStep)
		}
	}
}

// TestDegradedModeHTTP exercises the whole degraded-mode story over the
// wire: a chaos-wrapped session demotes mid-flight, the step response
// carries the demoted flag, /metrics counts the demotion exactly once,
// /healthz flips to "degraded", and deleting the demoted session
// returns the fleet to "ok".
func TestDegradedModeHTTP(t *testing.T) {
	const faultStep = 2
	srv, ts := newTestServer(t, Config{
		// Fault only the first session created; the second stays clean.
		WrapGuard: func(idx uint64, g *core.Guard) {
			if idx == 0 {
				script(g, nanAt(faultStep))
			}
		},
	})
	bad := createSession(t, ts.URL, SchemeND)
	good := createSession(t, ts.URL, SchemeND)

	obs := make([]float64, abr.ObsDim)
	const steps = 5
	for i := 0; i < steps; i++ {
		resp, body := postJSON(t, ts.URL+"/v1/sessions/"+bad.ID+"/step", map[string][]float64{"obs": obs})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("step %d: status %d: %s", i, resp.StatusCode, body)
		}
		var sr stepResponse
		if err := json.Unmarshal(body, &sr); err != nil {
			t.Fatalf("step %d: %v (body %s)", i, err, body)
		}
		if got, want := sr.Demoted, i >= faultStep; got != want {
			t.Fatalf("step %d: demoted = %v, want %v", i, got, want)
		}
		if sr.Demoted && (!sr.Fallback || sr.Policy != "default") {
			t.Fatalf("step %d: degraded response not on the default policy: %+v", i, sr)
		}
	}
	// The clean session is untouched.
	resp, body := postJSON(t, ts.URL+"/v1/sessions/"+good.ID+"/step", map[string][]float64{"obs": obs})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("clean step: status %d", resp.StatusCode)
	}
	var sr stepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Demoted {
		t.Fatal("clean session reported demoted")
	}

	// /healthz reports the impairment; the fleet is degraded, not down.
	resp, body = get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var hz struct {
		Status          string `json:"status"`
		DemotedLive     int64  `json:"demoted_live"`
		Demotions       uint64 `json:"demotions_total"`        // demotion events
		SessionsDemoted uint64 `json:"sessions_demoted_total"` // first demotions
	}
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "degraded" || hz.DemotedLive != 1 || hz.Demotions != 1 || hz.SessionsDemoted != 1 {
		t.Fatalf("healthz = %+v, want degraded/1/1/1", hz)
	}

	// /metrics carries the new series.
	_, body = get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"osap_sessions_demoted_total 1\n", // counted exactly once
		"osap_sessions_demoted_live 1\n",
		"osap_step_nonfinite_total 1\n",
		"osap_step_panics_recovered_total 0\n",
		fmt.Sprintf("osap_decisions_degraded_total %d\n", steps-faultStep),
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	// Deleting the demoted session drops the live gauge and health
	// returns to ok; the cumulative counter keeps its history.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+bad.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d", dresp.StatusCode)
	}
	if got := promCounter(t, srv, "osap_sessions_demoted_live"); got != 0 {
		t.Fatalf("osap_sessions_demoted_live = %d after delete, want 0", got)
	}
	resp, body = get(t, ts.URL+"/healthz")
	if err := json.Unmarshal(body, &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.DemotedLive != 0 || hz.Demotions != 1 || hz.SessionsDemoted != 1 {
		t.Fatalf("healthz after delete = %+v, want ok/0/1/1", hz)
	}
	_ = resp
}

// TestSessionStepZeroAlloc pins the un-faulted Step path at zero
// allocations — the empirical guarantee the panic-containment wrapper
// (Session.decide) promises in place of an //osap:hotpath annotation.
func TestSessionStepZeroAlloc(t *testing.T) {
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []string{SchemeND, SchemeAEns, SchemeVEns} {
		g, err := f.NewGuard(scheme)
		if err != nil {
			t.Fatal(err)
		}
		s := newSession("alloc", scheme, g, time.Now())
		obs := make([]float64, abr.ObsDim)
		now := time.Now()
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := s.Step(obs, now); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Session.Step allocates %.1f/op on the clean path, want 0", scheme, allocs)
		}
	}
}

// TestTableChurnRacingSweeper races session creation, stepping and
// deletion against an aggressive TTL sweeper (cutoff barely in the
// past, so idle sessions are genuinely evicted mid-churn) and checks
// the close accounting: every admitted session is closed, whether it
// left by delete, sweep or the final clear, and the live count ends at
// zero.
func TestTableChurnRacingSweeper(t *testing.T) {
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	tb := NewTable(0)
	var mu sync.Mutex
	var created []*Session

	stop := make(chan struct{})
	var sweeps sync.WaitGroup
	sweeps.Add(1)
	go func() {
		defer sweeps.Done()
		for {
			select {
			case <-stop:
				return
			default:
				// Evict anything idle for even a millisecond.
				tb.Sweep(time.Now().Add(-time.Millisecond))
			}
		}
	}()

	var wg sync.WaitGroup
	const workers, perWorker = 8, 40
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			obs := make([]float64, abr.ObsDim)
			for i := 0; i < perWorker; i++ {
				g, err := f.NewGuard(SchemeND)
				if err != nil {
					t.Error(err)
					return
				}
				id := fmt.Sprintf("w%d-%d", w, i)
				sess := newSession(id, SchemeND, g, time.Now())
				if err := tb.Put(sess); err != nil {
					t.Errorf("put %s: %v", id, err)
					return
				}
				mu.Lock()
				created = append(created, sess)
				mu.Unlock()
				for k := 0; k < 3; k++ {
					sess, ok := tb.Get(id)
					if !ok {
						break // swept between steps — legitimate churn
					}
					if _, err := sess.Step(obs, time.Now()); err != nil && err != ErrSessionClosed {
						t.Errorf("step %s: %v", id, err)
						return
					}
				}
				if i%3 == 0 {
					tb.Delete(id)
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	sweeps.Wait()

	if n, cleared := tb.Len(), tb.Clear(); cleared != n {
		t.Fatalf("Clear removed %d sessions, Len reported %d", cleared, n)
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d after Clear, want 0", tb.Len())
	}
	for _, sess := range created {
		if _, open := sess.liveMode(); open {
			t.Fatalf("session %s still open after Clear — it leaked", sess.id)
		}
	}
}

// TestNonFiniteThroughputDemotesND: U_S scores the OC-SVM margin, so
// a NaN, infinite or overflowing throughput reaching a served ND
// session over the binary transport scores non-finite and demotes the
// session on that very step, counted once as a non-finite step; the
// session lands on probation or latches as its probation policy says.
func TestNonFiniteThroughputDemotesND(t *testing.T) {
	const thrSlot = 3*abr.HistoryLen - 1 // the slot abr.LastThroughputMbps reads
	for _, pc := range []struct {
		name      string
		probation experiments.Probation
	}{
		{"latched", experiments.Probation{}},
		{"probation", experiments.Probation{ReadmitL: 4, ReadmitCap: 1}},
	} {
		t.Run(pc.name, func(t *testing.T) {
			f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{Probation: pc.probation})
			if err != nil {
				t.Fatal(err)
			}
			s, err := NewServer(f, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
			c := pipeBinary(t, s)
			for i, bad := range []float64{math.NaN(), math.Inf(1), 1e200} {
				cid := uint32(i)
				sess, ok := s.table.Get(c.open(cid, SchemeND))
				if !ok {
					t.Fatal("opened session not in the table")
				}
				stream := obsStream(uint64(60+i), f.ObsDim(), 13)
				stream[12][thrSlot] = bad
				before := promCounter(t, s, "osap_step_nonfinite_total")
				for seq, obs := range stream {
					d, err := c.step(cid, uint32(seq), obs)
					if err != nil {
						t.Fatal(err)
					}
					if demoted := d.Flags&proto.FlagDemoted != 0; demoted != (seq == 12) {
						t.Fatalf("throughput %v step %d: demoted %v", bad, seq, demoted)
					}
				}
				if got := promCounter(t, s, "osap_step_nonfinite_total"); got != before+1 {
					t.Errorf("throughput %v: osap_step_nonfinite_total %d → %d, want one more", bad, before, got)
				}
				info := sess.Snapshot(time.Now())
				if info.Probation != (pc.probation.ReadmitL > 0) || info.Latched == info.Probation {
					t.Errorf("throughput %v: snapshot %+v, want the %s mode", bad, info, pc.name)
				}
			}
		})
	}
}

// TestNonFiniteObservationDemotes: a NaN or +Inf in an observation slot
// no signal reads as throughput can leave every score and distribution
// finite (the forwards' ReLU maps NaN to +0), and the step must still
// demote the session: a binary Step frame carrying one is answered by
// the default policy, counted in osap_step_nonfinite_total, and the
// session is latched from then on.
func TestNonFiniteObservationDemotes(t *testing.T) {
	f, err := NewGuardFactory(sharedArtifacts(t), GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	c := pipeBinary(t, s)
	cid := uint32(0)
	for _, scheme := range []string{SchemeND, SchemeAEns, SchemeVEns} {
		for _, bad := range []float64{math.NaN(), math.Inf(1)} {
			cid++
			sess, ok := s.table.Get(c.open(cid, scheme))
			if !ok {
				t.Fatal("opened session not in the table")
			}
			stream := obsStream(uint64(70+cid), f.ObsDim(), 6)
			stream[1][0] = bad
			before := promCounter(t, s, "osap_step_nonfinite_total")
			for seq, obs := range stream {
				d, err := c.step(cid, uint32(seq), obs)
				if err != nil {
					t.Fatal(err)
				}
				if demoted := d.Flags&proto.FlagDemoted != 0; demoted != (seq >= 1) {
					t.Errorf("%s, obs[0] = %v at step 1: step %d demoted %v", scheme, bad, seq, demoted)
					break
				}
			}
			if got := promCounter(t, s, "osap_step_nonfinite_total"); got != before+1 {
				t.Errorf("%s, obs[0] = %v: osap_step_nonfinite_total %d → %d, want one more", scheme, bad, before, got)
			}
			if info := sess.Snapshot(time.Now()); !info.Latched || !strings.Contains(info.DemoteReason, "non-finite observation") {
				t.Errorf("%s, obs[0] = %v: snapshot %+v, want latched for a non-finite observation", scheme, bad, info)
			}
		}
	}
}

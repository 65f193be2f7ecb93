package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/chaos"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/learn"
	"osap/internal/serve/proto"
)

// latchOnFirstStep makes every session's first guard decision
// non-finite: with probation off, the session latches (modeLatchedScore)
// on that step, the demotion a Reset clears.
func latchOnFirstStep(_ uint64, g *core.Guard) { script(g, nanAt(0)) }

// checkUntouched requires the session to still be where one step left
// it: one step taken, latched, not closed.
func checkUntouched(t *testing.T, sess *Session) {
	t.Helper()
	if info := sess.Snapshot(time.Now()); info.Steps != 1 || !info.Latched {
		t.Fatalf("session after a refused operation = %+v, want 1 step and still latched", info)
	}
	if _, open := sess.liveMode(); !open {
		t.Fatal("a refused operation closed the session")
	}
}

// drainingFleet boots a server for the door's drain rows: a staged
// candidate, a learner, and sessions that latch on their first step.
// state renders what a refused operation must leave alone: the session
// count, the rollout state and the learner's refits.
func drainingFleet(t *testing.T) (srv *Server, state func() string) {
	t.Helper()
	learner, err := learn.New(learn.Config{Artifacts: sharedArtifacts(t), FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { learner.Stop() }) //nolint:errcheck // no log configured
	srv, _ = testRolloutServer(t, GuardConfig{}, Config{WrapGuard: latchOnFirstStep, Learner: learner})
	gen, err := srv.loadGeneration("v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.rollout.Stage(gen, 0.5, time.Now()); err != nil {
		t.Fatal(err)
	}
	return srv, func() string {
		r, c := srv.rollout, learner.Counters()
		return fmt.Sprintf("%d sessions, active %s, candidate %v, %d rollout events, %d refits, %d refit failures",
			srv.Sessions(), r.Active().Version(), r.Candidate() != nil, len(r.Events()), c.Refits.Load(), c.RefitFailures.Load())
	}
}

// TestResetRefusedWhileDraining: once Drain has raised its flag, every
// operation that goes through the door is refused on either transport
// — 503 + Retry-After, or GoAway — counted once in
// osap_drain_rejected_total, and leaves the session, the rollout state
// and the learner alone. The flag is raised by hand so the session is
// still in the table for the operation to find, as it is in the window
// before Drain's barrier and Clear.
func TestResetRefusedWhileDraining(t *testing.T) {
	obs := make([]float64, abr.ObsDim)
	refused := func(t *testing.T, srv *Server, sess *Session, state, before string) {
		t.Helper()
		checkUntouched(t, sess)
		if state != before {
			t.Fatalf("a refused operation moved the fleet: %s, was %s", state, before)
		}
		if got := promCounter(t, srv, "osap_drain_rejected_total"); got != 1 {
			t.Fatalf("osap_drain_rejected_total = %d, want 1", got)
		}
	}
	t.Run("http", func(t *testing.T) {
		for _, tc := range []struct {
			name, path string
			body       any
		}{
			{"reset", "/v1/sessions/{id}/reset", nil},
			{"create", "/v1/sessions", map[string]string{"scheme": SchemeND}},
			{"step", "/v1/sessions/{id}/step", map[string][]float64{"obs": obs}},
			{"promote", "/admin/rollout", map[string]string{"action": "promote"}},
			{"rollback", "/admin/rollout", map[string]string{"action": "rollback"}},
			{"refit", "/admin/learn", map[string]string{"action": "refit"}},
		} {
			t.Run(tc.name, func(t *testing.T) {
				srv, state := drainingFleet(t)
				ts := httptest.NewServer(srv)
				defer ts.Close()
				cr := createSession(t, ts.URL, SchemeND)
				if resp, body := postJSON(t, ts.URL+"/v1/sessions/"+cr.ID+"/step", map[string][]float64{"obs": obs}); resp.StatusCode != http.StatusOK {
					t.Fatalf("step: status %d: %s", resp.StatusCode, body)
				}
				before := state()
				srv.draining.Store(true)
				resp, body := postJSON(t, ts.URL+strings.ReplaceAll(tc.path, "{id}", cr.ID), tc.body)
				if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
					t.Fatalf("%s while draining: status %d, Retry-After %q (%s); want 503 with a hint",
						tc.name, resp.StatusCode, resp.Header.Get("Retry-After"), body)
				}
				sess, _ := srv.table.Get(cr.ID)
				refused(t, srv, sess, state(), before)
			})
		}
	})
	t.Run("binary", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			send func(c *binClient) error
		}{
			{"reset", func(c *binClient) error { return c.pc.WriteSessionControl(proto.TypeReset, 0) }},
			{"open", func(c *binClient) error { return c.pc.WriteOpen(1, SchemeND) }},
			{"step", func(c *binClient) error { return c.pc.WriteStep(0, 2, obs) }},
		} {
			t.Run(tc.name, func(t *testing.T) {
				srv, state := drainingFleet(t)
				c := pipeBinary(t, srv)
				id := c.open(0, SchemeND)
				if _, err := c.step(0, 1, obs); err != nil {
					t.Fatal(err)
				}
				before := state()
				srv.draining.Store(true)
				if err := tc.send(c); err != nil {
					t.Fatal(err)
				}
				if typ, _, err := c.pc.ReadFrame(); err != nil || typ != proto.TypeGoAway {
					t.Fatalf("%s while draining answered with frame type %d (%v), want GoAway", tc.name, typ, err)
				}
				sess, _ := srv.table.Get(id)
				refused(t, srv, sess, state(), before)
			})
		}
	})
}

// parseProm reads every sample of a Prometheus text body into a map
// keyed by the sample's name and labels as rendered.
func parseProm(t *testing.T, body string) map[string]uint64 {
	t.Helper()
	out := make(map[string]uint64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseUint(line[i+1:], 10, 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// family sums a labelled family's samples over every label set.
func family(samples map[string]uint64, name string) uint64 {
	var sum uint64
	for k, v := range samples {
		if strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// TestFleetTotalsAcrossGenerations checks that every counter in the
// counters table reads the same on /metrics, /healthz and /dashboard,
// as the generations' sum, and that the live gauges are what the
// sessions themselves report. A candidate takes half of the new sessions; each
// session follows one of six scripted uncertainty streams (clean,
// probation recovery, re-demotion that spends the cap, fault, shadow-
// step panic escalating a probation, ending in probation), so both
// generations see every kind of outcome. Some sessions are then
// deleted, reset or left to age out through Sweep before one scrape.
func TestFleetTotalsAcrossGenerations(t *testing.T) {
	patterns := [][]chaos.Fault{
		nil,
		{nanAt(1)},
		{nanAt(1), nanAt(5)},
		{panicAt(1)},
		{nanAt(1), panicAt(2)},
		{nanAt(6)},
	}
	const sessions, steps = 24, 8
	var clock atomic.Int64
	t0 := time.Unix(1_700_000_000, 0)
	clock.Store(t0.UnixNano())
	srv, _ := testRolloutServer(t, GuardConfig{Probation: experiments.Probation{ReadmitL: 2, ReadmitCap: 1}}, Config{
		Now: func() time.Time { return time.Unix(0, clock.Load()) },
		WrapGuard: func(idx uint64, g *core.Guard) {
			script(g, patterns[idx%uint64(len(patterns))]...)
		},
	})
	v2, err := srv.loadGeneration("v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.rollout.Stage(v2, 0.5, t0); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	ids := make([]string, sessions)
	for i := range ids {
		ids[i] = createSession(t, ts.URL, SchemeND).ID
	}
	const aging = 17 // ends in probation, then ages out
	obs := map[string][]float64{"obs": make([]float64, srv.factory.ObsDim())}
	stepAll := func(i int) {
		for n := 0; n < steps; n++ {
			if resp, body := postJSON(t, ts.URL+"/v1/sessions/"+ids[i]+"/step", obs); resp.StatusCode != http.StatusOK {
				t.Fatalf("session %d step %d: status %d: %s", i, n, resp.StatusCode, body)
			}
		}
	}
	stepAll(aging)
	clock.Store(t0.Add(time.Hour).UnixNano())
	for i := range ids {
		if i != aging {
			stepAll(i)
		}
	}

	gone := map[int]bool{aging: true}
	for _, i := range []int{6, 7, 9} { // clean, recovered, fault
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/sessions/"+ids[i], nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		gone[i] = true
	}
	for _, i := range []int{8, 11, 15} { // cap-latched and in probation: cleared; fault: survives
		if resp, body := postJSON(t, ts.URL+"/v1/sessions/"+ids[i]+"/reset", nil); resp.StatusCode != http.StatusNoContent {
			t.Fatalf("reset %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if n := srv.table.Sweep(t0.Add(30 * time.Minute)); n != 1 {
		t.Fatalf("Sweep evicted %d sessions, want the one aging session", n)
	}

	_, body := get(t, ts.URL+"/metrics")
	m := parseProm(t, string(body))
	var hz map[string]any
	if _, body := get(t, ts.URL+"/healthz"); json.Unmarshal(body, &hz) != nil {
		t.Fatalf("healthz is not JSON: %s", body)
	}
	var dash struct{ Versions []map[string]any }
	if _, body := get(t, ts.URL+"/dashboard"); json.Unmarshal(body, &dash) != nil {
		t.Fatalf("dashboard is not JSON: %s", body)
	}

	// Every counter in the table reads the same on every surface: the
	// fleet family is the sum of its per-version family, the /healthz
	// key and the sum of the /dashboard rows' keys.
	for _, c := range counters {
		fleet := m[c.fleet]
		if sum := family(m, "osap_version_"+c.key); fleet != sum {
			t.Errorf("%s = %d, want the sum of osap_version_%s = %d", c.fleet, fleet, c.key, sum)
		}
		if got, ok := hz[c.key].(float64); !ok || uint64(got) != fleet {
			t.Errorf("/healthz %s = %v, want %s = %d", c.key, hz[c.key], c.fleet, fleet)
		}
		var rows uint64
		for _, row := range dash.Versions {
			v, _ := row[c.key].(float64)
			rows += uint64(v)
		}
		if rows != fleet {
			t.Errorf("/dashboard rows sum %s to %d, want %s = %d", c.key, rows, c.fleet, fleet)
		}
	}
	if got, want := m["osap_sessions_live"], family(m, "osap_version_sessions_live"); got != want {
		t.Errorf("osap_sessions_live = %d, want the sum of osap_version_sessions_live = %d", got, want)
	}
	if got, want := m["osap_sessions_demoted_total"]+m["osap_sessions_redemoted_total"], m["osap_demotions_total"]; got != want {
		t.Errorf("first demotions + re-demotions = %d, want osap_demotions_total = %d", got, want)
	}
	// And they are the scripted totals: 4 sessions per pattern.
	for name, want := range map[string]uint64{
		"osap_sessions_created_total":      sessions,
		"osap_decisions_total":             sessions * steps,
		"osap_demotions_total":             24,
		"osap_sessions_demoted_total":      20,
		"osap_sessions_recovered_total":    8,
		"osap_sessions_redemoted_total":    4,
		"osap_sessions_latched_total":      12,
		"osap_step_panics_recovered_total": 8,
		"osap_step_nonfinite_total":        20,
	} {
		if m[name] != want {
			t.Errorf("%s = %d, want %d", name, m[name], want)
		}
	}
	for _, v := range []string{"v1", "v2"} {
		if m[fmt.Sprintf("osap_version_latched_total{version=%q}", v)] == 0 ||
			m[fmt.Sprintf("osap_version_recovered_total{version=%q}", v)] == 0 {
			t.Errorf("version %s saw no latch or no recovery; the split does not exercise both generations", v)
		}
	}

	// The gauges are what the sessions report about themselves.
	var demoted, probation uint64
	perVersion := map[string]uint64{}
	for i, id := range ids {
		resp, body := get(t, ts.URL+"/v1/sessions/"+id)
		if gone[i] {
			if resp.StatusCode != http.StatusNotFound {
				t.Fatalf("session %d: status %d after it left, want 404", i, resp.StatusCode)
			}
			continue
		}
		var info Info
		if err := json.Unmarshal(body, &info); err != nil {
			t.Fatal(err)
		}
		if info.Demoted {
			demoted++
		}
		if info.Probation {
			probation++
		}
		perVersion[info.Version]++
	}
	if demoted == 0 || probation == 0 {
		t.Fatalf("%d demoted and %d on probation: the script leaves both nonzero", demoted, probation)
	}
	if m["osap_sessions_demoted_live"] != demoted || m["osap_sessions_probation_live"] != probation {
		t.Errorf("gauges demoted %d probation %d, sessions report %d and %d",
			m["osap_sessions_demoted_live"], m["osap_sessions_probation_live"], demoted, probation)
	}
	for v, n := range perVersion {
		if got := m[fmt.Sprintf("osap_version_sessions_live{version=%q}", v)]; got != n {
			t.Errorf("osap_version_sessions_live{version=%q} = %d, sessions report %d", v, got, n)
		}
	}

	// After Drain every live gauge reads 0.
	var snap bytes.Buffer
	if err := srv.Drain(t.Context(), &snap); err != nil {
		t.Fatal(err)
	}
	after := parseProm(t, snap.String())
	for _, name := range []string{"osap_sessions_live", "osap_sessions_demoted_live", "osap_sessions_probation_live"} {
		if v, ok := after[name]; !ok || v != 0 {
			t.Errorf("%s after drain = %d (present %v), want 0", name, v, ok)
		}
	}
	if n := family(after, "osap_version_sessions_live"); n != 0 {
		t.Errorf("osap_version_sessions_live sums to %d after drain, want 0", n)
	}
	if after["osap_sessions_created_total"] != sessions {
		t.Errorf("drain snapshot osap_sessions_created_total = %d, want %d", after["osap_sessions_created_total"], sessions)
	}
}

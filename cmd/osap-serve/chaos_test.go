package main

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/chaos"
	"osap/internal/experiments"
	"osap/internal/serve"
	"osap/internal/serve/loadgen"
	"osap/internal/trace"
)

// The fault scripts runChaos plays.
const (
	scriptChaos    = "chaos"
	scriptRecovery = "recovery"
)

// TestChaosSmallScale is the fault-injection selftest, for both scripts
// over both transports: chaos.ServeScript (seeded inference panics and
// NaN/Inf scores, injected 503s and delays, slow and aborting clients),
// the same script under probation, and chaos.RecoveryScript (the
// demote → recover → re-demote → latch pattern cycle). Each run asserts
// every demoted flag against the schedule's replay, exact totals on
// /metrics, /healthz and /dashboard, and a clean drain. By default it
// runs 60 clients × 24 steps; `make chaos` runs the chaos and recovery
// cells at 1000 clients × 48 steps under the race detector.
func TestChaosSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a loopback viewer fleet")
	}
	for _, tc := range []struct {
		name, script         string
		readmitL, readmitCap int
	}{
		{"chaos", scriptChaos, 0, 0},
		{"chaos-probation", scriptChaos, 4, 2},
		{"recovery", scriptRecovery, 4, 2},
	} {
		for _, transport := range []string{loadgen.ProtocolHTTP, loadgen.ProtocolBinary} {
			t.Run(tc.name+"-"+transport, func(t *testing.T) {
				cfg := serve.Config{MaxSessions: 100, SessionTTL: time.Minute}
				runChaos(t, cfg, tc.script, transport, tc.readmitL, tc.readmitCap)
			})
		}
	}
}

// runChaos plays one fault script against a loopback server with the
// schedule wired into both injection seams — the guard hook and the
// request-fault hook — drives the synthetic
// viewers through the schedule's step budget, and asserts the run's
// safety contract exactly, every expected value taken from the
// schedule's replay of the session state machine
// (chaos.Schedule.Expected, DemotedAt):
//
//   - the process never crashes (a panic escaping a handler kills the
//     test binary), and no step is dropped: every client receives
//     exactly its scheduled decisions despite injected 503s and delays,
//   - every session's demoted flag matches the replay at every step,
//     and no degraded step is served by a learned policy,
//   - the client tallies, one /metrics scrape, /healthz and /dashboard
//     report the replay's demotions, recoveries, latches and causes,
//   - the fleet drains cleanly to zero.
//
// The schedule alone demotes: a faulted session's scores are pinned to
// its plan, and a clean session's finite networks never demote it, so
// the totals do not depend on the networks. The run serves the
// committed set on Norway, its default dataset, and a quick lab's build
// on any other.
//
// With transport "binary" the step traffic rides the persistent binary
// protocol instead of HTTP, while the health and metrics scrapes stay
// on the HTTP listener. Request-level faults are injected by the
// server's RequestFault seam, per binary frame and per HTTP request
// alike: a middleware around the server would leave its connections to
// net/http, and the HTTP cells are to run on the connections the
// server owns.
func runChaos(t *testing.T, cfg serve.Config, script, transport string, readmitL, readmitCap int) {
	clients, steps, seed := scaled(*flagClients, 60), scaled(*flagSteps, 24), scaled(*flagSeed, 7)
	dataset := scaled(*flagDataset, trace.DatasetNorway)
	var sched *chaos.Schedule
	if script == scriptRecovery {
		var err error
		if sched, err = chaos.RecoveryScript(seed, steps, readmitL, readmitCap); err != nil {
			t.Fatal(err)
		}
	} else {
		sched = chaos.ServeScript(seed, steps, readmitL, readmitCap)
	}
	steps = sched.Steps() // the script raises a budget below its minimum
	factory, err := serve.NewGuardFactory(servedArtifactsFor(t, dataset, seed), serve.GuardConfig{Probation: experiments.Probation{ReadmitL: readmitL, ReadmitCap: readmitCap}})
	if err != nil {
		t.Fatal(err)
	}
	cfg.WrapGuard = sched.WrapGuard
	cfg.RequestFault = sched.RequestFaults()
	binary := transport == loadgen.ProtocolBinary
	h := bootLoopback(t, factory, cfg, clients, binary)

	ex := sched.Expected(clients)
	t.Logf("%s: %d clients × %d steps against %s (seed %d, l′=%d cap=%d): expecting %d steps, %d demotions (%d repeat), %d recoveries, %d permanent latches",
		script, clients, steps, h.stepTarget(), seed, readmitL, readmitCap,
		ex.Steps, ex.Demotions, ex.Redemotions, ex.Recoveries, ex.Latched)

	lgCfg := h.target(loadgen.Config{
		Clients:        clients,
		StepsPerClient: steps,
		Schemes:        factory.Schemes(),
		Video:          abr.SyntheticVideo(seed, 24, 4),
		Traces:         tracePool(t, dataset, seed),
		Seed:           seed,
		Retry:          true,
		ClientDelay:    func(i int) time.Duration { return sched.ClientPlan(i).SlowDelay },
		AbortStep:      func(i int) int { return sched.ClientPlan(i).AbortStep },
		ExpectDemoted:  sched.DemotedAt,
	})
	start := time.Now()
	res, err := loadgen.Run(context.Background(), lgCfg)
	if err != nil {
		t.Fatalf("loadgen: %v", err)
	}

	// The fleet is quiescent but not yet drained: the steady state the
	// health and metrics endpoints must report.
	checkCount(t, "sessions created", res.SessionsCreated, int64(clients))
	checkCount(t, "steps dropped", res.StepsDropped, 0)
	checkCount(t, "steps served", res.StepsOK, ex.Steps)
	checkCount(t, "demoted-flag mismatches", res.FlagMismatches, 0)
	checkCount(t, "degraded decisions not from the safe policy", res.DemotionViolations, 0)
	checkCount(t, "client-observed demoted sessions", res.SessionsDemoted, int64(ex.FirstDemotions))
	checkCount(t, "client-observed recoveries", res.Recoveries, int64(ex.Recoveries))
	checkCount(t, "client-observed re-demotions", res.Redemotions, int64(ex.Redemotions))
	checkCount(t, "client sessions ending demoted", res.SessionsEndDemoted, int64(ex.EndDemoted))
	if script == scriptRecovery { // no client aborts
		checkCount(t, "client-observed degraded steps", res.StepsDemoted, ex.DemotedSteps)
	}

	if body, err := h.scrape("/healthz"); err != nil {
		t.Errorf("healthz: %v", err)
	} else {
		if ex.EndDemoted > 0 && !strings.Contains(body, `"status":"degraded"`) {
			t.Errorf("healthz did not report degraded: %s", strings.TrimSpace(body))
		}
		if want := fmt.Sprintf(`"recovered_total":%d`, ex.Recoveries); !strings.Contains(body, want) {
			t.Errorf("healthz missing %s", want)
		}
	}
	// Every server-side count comes from one /metrics scrape, the
	// surface an operator reads.
	body, err := h.scrape("/metrics")
	if err != nil {
		t.Errorf("metrics: %v", err)
	}
	prom := func(name string) int64 { return promValue(t, body, name) }
	demoted, redemoted := prom("osap_sessions_demoted_total"), prom("osap_sessions_redemoted_total")
	recovered, latched := prom("osap_sessions_recovered_total"), prom("osap_sessions_latched_total")
	panics, nonFinite := prom("osap_step_panics_recovered_total"), prom("osap_step_nonfinite_total")
	checkCount(t, "server sessions demoted", demoted, int64(ex.FirstDemotions))
	checkCount(t, "server re-demotions", redemoted, int64(ex.Redemotions))
	checkCount(t, "server recoveries", recovered, int64(ex.Recoveries))
	checkCount(t, "server permanent latches", latched, int64(ex.Latched))
	checkCount(t, "server panics recovered", panics, int64(ex.Panics))
	checkCount(t, "server non-finite scores", nonFinite, int64(ex.NonFinite))
	checkCount(t, "server decisions", prom("osap_decisions_total"), res.StepsOK)
	checkCount(t, "demoted-live gauge before drain", prom("osap_sessions_demoted_live"), int64(ex.EndDemoted))
	checkCount(t, "probation-live gauge before drain", prom("osap_sessions_probation_live"), int64(ex.EndProbation))
	// The per-version recovery counters summed across versions (a chaos
	// run has one, but the sum is the honest fleet total either way).
	var dashRecovered, dashRedemoted, dashLatched int64
	for _, v := range h.dashboard(t).Versions {
		dashRecovered += int64(v.Recovered)
		dashRedemoted += int64(v.Redemoted)
		dashLatched += int64(v.Latched)
	}
	checkCount(t, "dashboard recovered_total", dashRecovered, int64(ex.Recoveries))
	checkCount(t, "dashboard redemoted_total", dashRedemoted, int64(ex.Redemotions))
	checkCount(t, "dashboard latched_total", dashLatched, int64(ex.Latched))

	if err := h.drain(); err != nil {
		t.Error(err)
	}
	checkCount(t, "demoted-live gauge after drain", promValue(t, h.final, "osap_sessions_demoted_live"), 0)
	checkCount(t, "probation-live gauge after drain", promValue(t, h.final, "osap_sessions_probation_live"), 0)
	checkCount(t, "drained sessions", promValue(t, h.final, "osap_sessions_drained_total"), int64(clients))

	t.Logf("%s: %d steps ok, %d dropped, %d retries, %d/%d sessions demoted (%d panics, %d non-finite, %d re-demotions), %d recovered, %d latched permanently, %d degraded decisions, %d flag mismatches across %d flips, drained clean in %v",
		script, res.StepsOK, res.StepsDropped, res.Retries, demoted, clients, panics, nonFinite, redemoted,
		recovered, latched, prom("osap_decisions_degraded_total"), res.FlagMismatches,
		ex.Demotions+ex.Recoveries, time.Since(start).Round(time.Millisecond))
}

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"osap/internal/abr"
	"osap/internal/chaos"
	"osap/internal/experiments"
	"osap/internal/serve"
	"osap/internal/serve/loadgen"
)

// The fault scripts runChaos plays: -chaos and -recovery.
const (
	scriptChaos    = "chaos"
	scriptRecovery = "recovery"
)

// Defaults for the recovery script when -readmit-l / -readmit-cap are
// left at their serving defaults (0 = probation off, which would make
// the recovery exercise vacuous).
const (
	recoveryDefaultReadmitL   = 4
	recoveryDefaultReadmitCap = 2
)

// chaosSchedule builds the named script's fault schedule under the
// server's probation knobs.
func chaosSchedule(script string, seed uint64, steps, readmitL, readmitCap int) (*chaos.Schedule, error) {
	if script == scriptRecovery {
		if readmitL <= 0 {
			readmitL = recoveryDefaultReadmitL
		}
		if readmitCap == 0 {
			readmitCap = recoveryDefaultReadmitCap
		}
		return chaos.RecoveryScript(seed, steps, readmitL, readmitCap)
	}
	return chaos.ServeScript(seed, steps, readmitL, readmitCap)
}

// runChaos is the fault-injection selftest behind -chaos and -recovery,
// which differ only in the script they play (chaos.ServeScript: seeded
// inference faults, latency spikes, injected overload, slow and
// aborting clients; chaos.RecoveryScript: the demote → recover →
// re-demote → latch pattern cycle under probation). It boots the server
// on a loopback listener with the schedule wired into every injection
// seam — the guard hook, and the HTTP middleware or the binary frame
// hook — drives `clients` synthetic viewers through the schedule's step
// budget, and asserts the run's safety contract exactly, every expected
// value taken from the schedule's replay of the session state machine
// (chaos.Schedule.Expected, DemotedAt):
//
//   - the process never crashes (any panic escaping a handler fails
//     the run outright), and no step is dropped: every client receives
//     exactly its scheduled decisions despite injected 503s and delays,
//   - every session's demoted flag matches the replay at every step,
//     and no degraded step is served by a learned policy,
//   - the client tallies, one /metrics scrape, /healthz and /dashboard
//     report the replay's demotions, recoveries, latches and causes,
//   - the fleet drains cleanly to zero.
//
// Chaos runs always use synthetic artifacts: the harness tests the
// serving fabric, not model quality, and must boot in milliseconds.
//
// With transport "binary" the step traffic rides the persistent binary
// protocol instead of HTTP: request-level faults are injected per
// frame through the server's FrameFault seam, while the health and
// metrics scrapes — and their injected faults — stay on the HTTP
// listener.
func runChaos(cfg serve.Config, readmitL, readmitCap int, dataset string, clients, steps int, seed uint64, script, transport string) error {
	sched, err := chaosSchedule(script, seed, steps, readmitL, readmitCap)
	if err != nil {
		return err
	}
	sc := sched.Config()
	arts, err := serve.SyntheticArtifacts(dataset, 3, seed)
	if err != nil {
		return err
	}
	factory, err := serve.NewGuardFactory(arts, serve.GuardConfig{Probation: experiments.Probation{ReadmitL: sc.ReadmitL, ReadmitCap: sc.ReadmitCap}})
	if err != nil {
		return err
	}
	cfg.WrapGuard = sched.WrapGuard
	binary := transport == loadgen.ProtocolBinary
	if binary {
		cfg.FrameFault = sched.FrameFaults()
	}
	h, err := bootLoopback(factory, cfg, clients, binary, sched.Middleware)
	if err != nil {
		return err
	}
	traces, err := tracePool(dataset, seed)
	if err != nil {
		return err
	}

	ex := sched.Expected(clients)
	fmt.Fprintf(os.Stderr, "%s: %d clients × %d steps against %s (seed %d, l′=%d cap=%d): expecting %d steps, %d demotions (%d repeat), %d recoveries, %d permanent latches\n",
		script, clients, sc.Steps, h.stepTarget(), seed, sc.ReadmitL, sc.ReadmitCap,
		ex.Steps, ex.Demotions, ex.Redemotions, ex.Recoveries, ex.Latched)

	lgCfg := h.target(loadgen.Config{
		Clients:        clients,
		StepsPerClient: sc.Steps,
		Schemes:        factory.Schemes(),
		Video:          abr.SyntheticVideo(seed, 24, 4),
		Traces:         traces,
		Seed:           seed,
		Backoff:        &loadgen.Backoff{Retries: 8},
		ClientDelay:    func(i int) time.Duration { return sched.ClientPlan(i).SlowDelay },
		AbortStep:      func(i int) int { return sched.ClientPlan(i).AbortStep },
		ExpectDemoted:  sched.DemotedAt,
	})
	start := time.Now()
	res, err := loadgen.Run(context.Background(), lgCfg)
	if err != nil {
		return fmt.Errorf("%s: loadgen: %w", script, err)
	}

	// The fleet is quiescent but not yet drained: the steady state the
	// health and metrics endpoints must report.
	failed := failures{name: script}
	fail, check := failed.fail, failed.check
	check("sessions created", res.SessionsCreated, int64(clients))
	check("steps dropped", res.StepsDropped, 0)
	check("steps served", res.StepsOK, ex.Steps)
	check("demoted-flag mismatches", res.FlagMismatches, 0)
	check("degraded decisions not from the safe policy", res.DemotionViolations, 0)
	check("client-observed demoted sessions", res.SessionsDemoted, int64(ex.FirstDemotions))
	check("client-observed recoveries", res.Recoveries, int64(ex.Recoveries))
	check("client-observed re-demotions", res.Redemotions, int64(ex.Redemotions))
	check("client sessions ending demoted", res.SessionsEndDemoted, int64(ex.EndDemoted))
	if sc.AbortEvery == 0 {
		check("client-observed degraded steps", res.StepsDemoted, ex.DemotedSteps)
	}

	if body, err := h.scrape("/healthz"); err != nil {
		fail("healthz: %v", err)
	} else {
		if ex.EndDemoted > 0 && !strings.Contains(body, `"status":"degraded"`) {
			fail("healthz did not report degraded: %s", strings.TrimSpace(body))
		}
		if want := fmt.Sprintf(`"recovered_total":%d`, ex.Recoveries); !strings.Contains(body, want) {
			fail("healthz missing %s", want)
		}
	}
	// Every server-side count comes from one /metrics scrape, the
	// surface an operator reads.
	body, err := h.scrape("/metrics")
	if err != nil {
		fail("metrics: %v", err)
	}
	prom := func(name string) int64 { return failed.sample(body, name) }
	demoted, redemoted := prom("osap_sessions_demoted_total"), prom("osap_sessions_redemoted_total")
	recovered, latched := prom("osap_sessions_recovered_total"), prom("osap_sessions_latched_total")
	panics, nonFinite := prom("osap_step_panics_recovered_total"), prom("osap_step_nonfinite_total")
	check("server sessions demoted", demoted, int64(ex.FirstDemotions))
	check("server re-demotions", redemoted, int64(ex.Redemotions))
	check("server recoveries", recovered, int64(ex.Recoveries))
	check("server permanent latches", latched, int64(ex.Latched))
	check("server panics recovered", panics, int64(ex.Panics))
	check("server non-finite scores", nonFinite, int64(ex.NonFinite))
	check("server decisions", prom("osap_decisions_total"), res.StepsOK)
	check("demoted-live gauge before drain", prom("osap_sessions_demoted_live"), int64(ex.EndDemoted))
	check("probation-live gauge before drain", prom("osap_sessions_probation_live"), int64(ex.EndProbation))
	if got, err := dashboardRecoveryTotals(h); err != nil {
		fail("dashboard: %v", err)
	} else {
		check("dashboard recovered_total", int64(got.recovered), int64(ex.Recoveries))
		check("dashboard redemoted_total", int64(got.redemoted), int64(ex.Redemotions))
		check("dashboard latched_total", int64(got.latched), int64(ex.Latched))
	}

	if err := h.drain(); err != nil {
		fail("%v", err)
	}
	check("demoted-live gauge after drain", failed.sample(h.final, "osap_sessions_demoted_live"), 0)
	check("probation-live gauge after drain", failed.sample(h.final, "osap_sessions_probation_live"), 0)
	check("drained sessions", failed.sample(h.final, "osap_sessions_drained_total"), int64(clients))

	fmt.Printf("%s: %d steps ok, %d dropped, %d retries, %d/%d sessions demoted (%d panics, %d non-finite, %d re-demotions), %d recovered, %d latched permanently, %d degraded decisions, %d flag mismatches across %d flips, drained clean in %v\n",
		script, res.StepsOK, res.StepsDropped, res.Retries, demoted, clients, panics, nonFinite, redemoted,
		recovered, latched, prom("osap_decisions_degraded_total"), res.FlagMismatches,
		ex.Demotions+ex.Recoveries, time.Since(start).Round(time.Millisecond))
	if err := failed.err(); err != nil {
		return err
	}
	fmt.Printf("%s: all assertions passed\n", script)
	return nil
}

// recoveryTotals is the fleet-wide sum of per-version recovery
// counters in the dashboard document.
type recoveryTotals struct {
	recovered, redemoted, latched uint64
}

// dashboardRecoveryTotals scrapes /dashboard and sums the recovery
// counters across artifact versions (a chaos run has one, but the sum
// is the honest fleet total either way).
func dashboardRecoveryTotals(h *harness) (recoveryTotals, error) {
	var t recoveryTotals
	body, err := h.scrape("/dashboard")
	if err != nil {
		return t, err
	}
	var doc struct {
		Versions []struct {
			Recovered uint64 `json:"recovered_total"`
			Redemoted uint64 `json:"redemoted_total"`
			Latched   uint64 `json:"latched_total"`
		} `json:"versions"`
	}
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		return t, fmt.Errorf("decode: %w", err)
	}
	for _, v := range doc.Versions {
		t.recovered += v.Recovered
		t.redemoted += v.Redemoted
		t.latched += v.Latched
	}
	return t, nil
}

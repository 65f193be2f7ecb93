package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"osap/internal/abr"
	"osap/internal/chaos"
	"osap/internal/serve"
	"osap/internal/serve/loadgen"
)

// runChaos is the fault-injection selftest behind -chaos: it boots the
// server on a loopback listener with the scripted chaos schedule wired
// into both injection seams (the guard hook and the HTTP middleware),
// drives `clients` concurrent synthetic viewers — some with faulted
// inference, some slow, some abandoning mid-run — through a fixed step
// budget, and asserts the run's safety contract in closed form:
//
//   - the process never crashes (any panic escaping a handler fails
//     the run outright),
//   - no step is dropped: every client receives exactly its scheduled
//     number of decisions despite injected 503s and delays,
//   - exactly the scheduled sessions demote — never more, never fewer —
//     and /metrics reports that exact count,
//   - demotion is permanent: no session serves a learned decision
//     after its fault,
//   - the fleet reports degraded while demoted sessions live, and
//     drains cleanly to zero.
//
// Chaos runs always use synthetic artifacts: the harness tests the
// serving fabric, not model quality, and must boot in milliseconds.
//
// With transport "binary" the step traffic rides the persistent binary
// protocol instead of HTTP: request-level faults are injected per
// frame through the server's FrameFault seam (the binary twin of the
// HTTP middleware), while the health/metrics scrapes — and their
// injected faults — stay on the HTTP listener.
func runChaos(cfg serve.Config, dataset string, clients, stepsPerClient int, seed uint64, transport string) error {
	script := chaos.ServeScript(seed, stepsPerClient)
	sched, err := chaos.NewSchedule(script)
	if err != nil {
		return err
	}
	arts, err := serve.SyntheticArtifacts(dataset, 3, seed)
	if err != nil {
		return err
	}
	factory, err := serve.NewGuardFactory(arts, serve.GuardConfig{})
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

	faulted := sched.FaultedSessions(clients)
	wantSteps := sched.ExpectedSteps(clients, stepsPerClient)
	fmt.Fprintf(os.Stderr, "chaos: %d clients × %d steps against %s (seed %d): %d faulted sessions scheduled, %d total steps expected\n",
		clients, stepsPerClient, h.stepTarget(), seed, faulted, wantSteps)

	lgCfg := h.target(loadgen.Config{
		Clients:        clients,
		StepsPerClient: stepsPerClient,
		Schemes:        factory.Schemes(),
		Video:          abr.SyntheticVideo(seed, 24, 4),
		Traces:         traces,
		Seed:           seed,
		Backoff:        &loadgen.Backoff{Retries: 8},
		ClientDelay:    func(i int) time.Duration { return sched.ClientPlan(i).SlowDelay },
		AbortStep:      func(i int) int { return sched.ClientPlan(i).AbortStep },
	})
	start := time.Now()
	res, err := loadgen.Run(context.Background(), lgCfg)
	if err != nil {
		return fmt.Errorf("chaos: loadgen: %w", err)
	}

	// The fleet is quiescent but not yet drained: this is the degraded
	// steady state the health and metrics endpoints must report.
	failed := failures{name: "chaos"}
	fail := failed.fail
	if res.SessionsCreated != int64(clients) {
		fail("created %d of %d sessions", res.SessionsCreated, clients)
	}
	if res.StepsDropped != 0 {
		fail("dropped %d steps, want 0", res.StepsDropped)
	}
	if res.StepsOK != wantSteps {
		fail("served %d steps, schedule requires exactly %d", res.StepsOK, wantSteps)
	}
	if res.DemotionViolations != 0 {
		fail("%d decisions served by a learned policy after demotion, want 0", res.DemotionViolations)
	}
	if res.SessionsDemoted != int64(faulted) {
		fail("clients observed %d demoted sessions, schedule faulted exactly %d", res.SessionsDemoted, faulted)
	}
	if body, err := h.scrape("/healthz"); err != nil {
		fail("healthz: %v", err)
	} else if faulted > 0 && !strings.Contains(body, `"status":"degraded"`) {
		fail("healthz did not report degraded: %s", strings.TrimSpace(body))
	}
	// Every server-side count comes from one /metrics scrape, the
	// surface an operator reads.
	body, err := h.scrape("/metrics")
	if err != nil {
		fail("metrics: %v", err)
	}
	prom := func(name string) int64 { return failed.sample(body, name) }
	demoted := prom("osap_sessions_demoted_total")
	panics, nonFinite := prom("osap_step_panics_recovered_total"), prom("osap_step_nonfinite_total")
	if demoted != int64(faulted) {
		fail("server demoted %d sessions, schedule faulted exactly %d", demoted, faulted)
	}
	if panics+nonFinite != int64(faulted) {
		fail("demotion causes sum to %d, want %d", panics+nonFinite, faulted)
	}
	if got := prom("osap_decisions_total"); got != res.StepsOK {
		fail("server counted %d decisions, clients saw %d", got, res.StepsOK)
	}
	if got := prom("osap_sessions_demoted_live"); got != int64(faulted) {
		fail("demoted-live gauge %d before drain, want %d", got, faulted)
	}

	if err := h.drain(); err != nil {
		fail("%v", err)
	}
	if got := failed.sample(h.final, "osap_sessions_demoted_live"); got != 0 {
		fail("demoted-live gauge %d after drain, want 0", got)
	}
	if got := failed.sample(h.final, "osap_sessions_drained_total"); got != int64(clients) {
		fail("drained %d sessions, want %d", got, clients)
	}

	fmt.Printf("chaos: %d steps ok, %d dropped, %d retries, %d/%d sessions demoted (%d panics, %d non-finite), %d degraded decisions, drained clean in %v\n",
		res.StepsOK, res.StepsDropped, res.Retries, demoted, clients,
		panics, nonFinite, prom("osap_decisions_degraded_total"), time.Since(start).Round(time.Millisecond))
	if err := failed.err(); err != nil {
		return err
	}
	fmt.Println("chaos: all assertions passed")
	return nil
}

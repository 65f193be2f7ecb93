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
	"osap/internal/serve"
	"osap/internal/serve/loadgen"
)

// Defaults for the -recovery harness when -readmit-l / -readmit-cap
// are left at their serving defaults (0 = probation off, which would
// make the recovery exercise vacuous).
const (
	recoveryDefaultReadmitL   = 4
	recoveryDefaultReadmitCap = 2
)

// runRecoveryChaos is the probation selftest behind -recovery: the
// scripted demote→recover→re-demote counterpart of -chaos. It boots
// the server with probation enabled and every session's uncertainty
// stream replaced by a fully deterministic script (internal/chaos
// RecoverySchedule): a confident score everywhere except scheduled
// fault steps, patterns cycling through clean, recover-once,
// cap-exhaustion, permanent panic, Inf-recover and end-in-probation.
// Because the whole run is scripted, the assertions are exact, not
// statistical:
//
//   - no step is dropped and every client gets its full budget,
//   - every session's demoted flag matches the closed-form prediction
//     at every single step — demotions, re-admissions and permanent
//     latches all land on their scheduled step indices,
//   - the recovery counters (recovered / re-demoted / latched), the
//     demoted and probation gauges, /healthz, /metrics and /dashboard
//     all report the closed-form totals,
//   - cap-exhausted and fault-demoted sessions never serve a learned
//     decision again, and the fleet drains cleanly to zero.
func runRecoveryChaos(cfg serve.Config, dataset string, clients, stepsPerClient int, seed uint64, transport string) error {
	if cfg.ReadmitL <= 0 {
		cfg.ReadmitL = recoveryDefaultReadmitL
	}
	if cfg.ReadmitCap == 0 {
		cfg.ReadmitCap = recoveryDefaultReadmitCap
	}
	sched, err := chaos.NewRecoverySchedule(chaos.RecoveryScript(stepsPerClient, cfg.ReadmitL, cfg.ReadmitCap))
	if err != nil {
		return err
	}
	steps := sched.Config().Steps // RecoveryScript may raise the budget

	arts, err := serve.SyntheticArtifacts(dataset, 3, seed)
	if err != nil {
		return err
	}
	factory, err := serve.NewGuardFactory(arts, serve.GuardConfig{
		ReadmitL: cfg.ReadmitL, ReadmitCap: cfg.ReadmitCap,
	})
	if err != nil {
		return err
	}
	cfg.WrapGuard = sched.WrapGuard
	h, err := bootLoopback(factory, cfg, clients, transport == loadgen.ProtocolBinary, nil)
	if err != nil {
		return err
	}
	traces, err := tracePool(dataset, seed)
	if err != nil {
		return err
	}

	ex := sched.Expected(clients)
	fmt.Fprintf(os.Stderr, "recovery: %d clients × %d steps (l′=%d cap=%d): expecting %d demotions (%d repeat), %d recoveries, %d permanent latches\n",
		clients, steps, cfg.ReadmitL, cfg.ReadmitCap, ex.Demotions, ex.Redemotions, ex.Recoveries, ex.Latched)

	lgCfg := h.target(loadgen.Config{
		Clients:        clients,
		StepsPerClient: steps,
		Schemes:        factory.Schemes(),
		Video:          abr.SyntheticVideo(seed, 24, 4),
		Traces:         traces,
		Seed:           seed,
		Probation:      true,
		ExpectDemoted:  sched.DemotedAt,
	})
	start := time.Now()
	res, err := loadgen.Run(context.Background(), lgCfg)
	if err != nil {
		return fmt.Errorf("recovery: loadgen: %w", err)
	}

	failed := failures{name: "recovery"}
	fail, check := failed.fail, failed.check
	check("sessions created", res.SessionsCreated, int64(clients))
	check("steps dropped", res.StepsDropped, 0)
	check("steps served", res.StepsOK, int64(clients)*int64(steps))
	check("demoted-flag mismatches", res.FlagMismatches, 0)
	check("degraded decisions not from the safe policy", res.DemotionViolations, 0)
	check("client-observed demoted sessions", res.SessionsDemoted, int64(ex.FirstDemotions))
	check("client-observed recoveries", res.Recoveries, int64(ex.Recoveries))
	check("client-observed re-demotions", res.Redemotions, int64(ex.Redemotions))
	check("client sessions ending demoted", res.SessionsEndDemoted, int64(ex.EndDemoted))
	check("client-observed degraded steps", res.StepsDemoted, ex.DemotedSteps)

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
	check("server sessions demoted", demoted, int64(ex.FirstDemotions))
	check("server re-demotions", redemoted, int64(ex.Redemotions))
	check("server recoveries", recovered, int64(ex.Recoveries))
	check("server permanent latches", latched, int64(ex.Latched))
	check("server panics recovered", prom("osap_step_panics_recovered_total"), int64(ex.Panics))
	check("server non-finite scores", prom("osap_step_nonfinite_total"), int64(ex.NonFinite))
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

	fmt.Printf("recovery: %d steps ok, %d dropped, %d/%d sessions demoted (%d re-demotions), %d recovered, %d latched permanently, 0 flag mismatches across %d flips, drained clean in %v\n",
		res.StepsOK, res.StepsDropped, demoted, clients, redemoted,
		recovered, latched, ex.Demotions+ex.Recoveries, time.Since(start).Round(time.Millisecond))
	if err := failed.err(); err != nil {
		return err
	}
	fmt.Println("recovery: all assertions passed")
	return nil
}

// recoveryTotals is the fleet-wide sum of per-version recovery
// counters in the dashboard document.
type recoveryTotals struct {
	recovered, redemoted, latched uint64
}

// dashboardRecoveryTotals scrapes /dashboard and sums the recovery
// counters across artifact versions (a -recovery run has one, but the
// sum is the honest fleet total either way).
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

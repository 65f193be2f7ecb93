// Command osap-serve is the multi-session online guard server: it
// loads one training run's artifacts (agent ensemble, value ensemble,
// OC-SVM, calibrated thresholds) and serves the paper's per-step
// safety decision to thousands of concurrent client sessions — over
// HTTP/JSON and over the persistent binary step protocol
// (internal/serve/proto), with every session's forwards run on the
// scratch of one of a few shared inference shards.
//
// Serving a pre-trained model directory (written by osap-train):
//
//	osap-serve -models ./models -dataset norway -addr :8080 -binary-addr :8081
//
// With no -models directory the server trains quick-scale artifacts at
// startup (useful for demos; takes a few seconds).
//
// API (JSON): POST /v1/sessions {"scheme":"ND"|"A-ensemble"|"V-ensemble"},
// POST /v1/sessions/{id}/step {"obs":[...]}, POST /v1/sessions/{id}/reset,
// DELETE /v1/sessions/{id}, GET /healthz, GET /metrics (Prometheus text).
// The binary listener speaks the framed protocol documented in
// internal/serve/proto (and DESIGN.md §10): one connection per
// session, Hello/Welcome handshake, Step/Decision frames.
//
// SIGINT/SIGTERM triggers graceful drain: admissions stop (503 /
// GoAway), in-flight steps finish, binary connections are told to go
// away, sessions close, and a final metrics snapshot is written to
// stderr before exit.
//
// -selftest runs the built-in load harness instead of serving: it
// sweeps 1 core and all cores, HTTP and binary transport — each cell
// booting the server on a loopback listener, replaying throughput
// traces as -clients concurrent synthetic viewers, draining gracefully
// under load — and verifies that the whole fleet was admitted at once,
// no in-flight step was dropped, the server's decision count equals the
// clients' acknowledgements, and osap_batch_size counted every decision
// exactly once. It measures nothing: numbers come from `make bench-e2e`
// (bench/README.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"osap/internal/abr"
	"osap/internal/buildinfo"
	"osap/internal/experiments"
	"osap/internal/registry"
	"osap/internal/serve"
	"osap/internal/serve/loadgen"
	"osap/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "HTTP listen address")
	binAddr := flag.String("binary-addr", "", "binary-protocol listen address (empty = HTTP only)")
	models := flag.String("models", "", "directory of pre-trained artifacts (osap-train output)")
	registryDir := flag.String("registry", "", "versioned artifact registry root (osap-train -registry output); overrides -models")
	registryPoll := flag.Duration("registry-poll", 5*time.Second, "registry poll interval for new versions (0 disables polling; SIGHUP still rescans)")
	canaryFraction := flag.Float64("canary-fraction", 0, "fraction of new sessions routed to a staged candidate (0 = default 0.10)")
	rollbackMargin := flag.Float64("rollback-margin", 0, "excess candidate demotion/fallback rate that triggers auto-rollback (0 = default 0.05)")
	dataset := flag.String("dataset", trace.DatasetNorway, "training distribution to serve")
	maxSessions := flag.Int("max-sessions", 10000, "admission-control cap on live sessions (0 = unlimited)")
	shards := flag.Int("shards", 64, "session-table shard count (rounded up to a power of two)")
	ttl := flag.Duration("session-ttl", 5*time.Minute, "evict sessions idle longer than this")
	selftest := flag.Bool("selftest", false, "run the load-generator matrix instead of serving")
	chaosTest := flag.Bool("chaos", false, "run the fault-injection self-test instead of serving")
	rolloutTest := flag.Bool("rollout", false, "run the hot-reload/canary self-test instead of serving")
	recoveryTest := flag.Bool("recovery", false, "run the probation/recovery chaos self-test instead of serving")
	learnTest := flag.Bool("learn", false, "run the online-learning poisoning-resistance self-test instead of serving")
	learnLog := flag.String("learn-log", "", "experience-log directory; non-empty enables gated online learning")
	learnRefitEvery := flag.Int("learn-refit-every", 0, "auto-refit after this many gate-admitted samples (0 = manual POST /admin/learn only)")
	chaosSeed := flag.Uint64("chaos-seed", 20200713, "chaos: fault-schedule seed")
	chaosSteps := flag.Int("chaos-steps", 48, "chaos: decisions per client")
	transport := flag.String("transport", loadgen.ProtocolHTTP, `chaos: wire protocol ("http" or "binary")`)
	clients := flag.Int("clients", 1000, "selftest/chaos: concurrent synthetic viewers")
	warmup := flag.Duration("warmup", 2*time.Second, "selftest: load duration before the steady-state window (per cell)")
	measure := flag.Duration("measure", 3*time.Second, "selftest: steady-state window before the drain under load (per cell)")
	flag.IntVar(&selftestSessionsPerConn, "sessions-per-conn", 0,
		"selftest/chaos: viewers multiplexed per binary connection (0 = loadgen default)")
	flag.IntVar(&flagReadmitL, "readmit-l", 0,
		"probation hysteresis l′: re-admit a demoted session after this many consecutive confident shadow steps (0 = demotion latches for good, the paper's behavior)")
	flag.IntVar(&flagReadmitCap, "readmit-cap", 0,
		"re-admissions allowed per session episode before the latch becomes permanent (0 = never re-admit; negative = unlimited)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()

	if *version {
		buildinfo.Print(os.Stdout, "osap-serve")
		return
	}
	cfg := serve.Config{
		MaxSessions: *maxSessions,
		Shards:      *shards,
		SessionTTL:  *ttl,
		Rollout: serve.RolloutConfig{
			CanaryFraction: *canaryFraction,
			RollbackMargin: *rollbackMargin,
		},
	}
	var err error
	switch {
	case *learnTest:
		err = runLearnSelfTest(cfg, *dataset, *clients, *chaosSeed)
	case *rolloutTest:
		err = runRolloutSelfTest(cfg, *dataset, *clients, *chaosSeed)
	case *recoveryTest:
		err = runChaos(cfg, flagReadmitL, flagReadmitCap, *dataset, *clients, *chaosSteps, *chaosSeed, scriptRecovery, *transport)
	case *chaosTest:
		err = runChaos(cfg, flagReadmitL, flagReadmitCap, *dataset, *clients, *chaosSteps, *chaosSeed, scriptChaos, *transport)
	case *selftest:
		_, err = runSelfTest(cfg, *dataset, *models, *clients, *warmup, *measure)
	default:
		err = runServer(*addr, *binAddr, cfg, *dataset, *models, *registryDir, *registryPoll, *learnLog, *learnRefitEvery)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "osap-serve:", err)
		os.Exit(1)
	}
}

// flagReadmitL / flagReadmitCap are the -readmit-l / -readmit-cap
// probation knobs (serve.GuardConfig via guardConfig): they set both
// layers of the recovery state machine, the session's probation and the
// trigger's hysteresis. Both default to 0 — demotions and latched
// triggers are permanent, the paper's behavior.
var (
	flagReadmitL   int
	flagReadmitCap int
)

// guardConfig is the serving guard configuration, shared by every way
// of obtaining artifacts (-models, -registry, in-process training): the
// probation flags. Everything else a guard is built from is the served
// artifact's record.
func guardConfig() serve.GuardConfig {
	return serve.GuardConfig{Probation: experiments.Probation{ReadmitL: flagReadmitL, ReadmitCap: flagReadmitCap}}
}

// loadFactory builds the guard factory: from a model directory when
// given, otherwise by training quick-scale artifacts in process.
func loadFactory(dataset, models string) (*serve.GuardFactory, error) {
	var arts *experiments.Artifacts
	if models != "" {
		path := filepath.Join(models, dataset+".json")
		a, err := experiments.LoadArtifacts(path)
		if err != nil {
			return nil, err
		}
		arts = a
	} else {
		fmt.Fprintf(os.Stderr, "no -models directory: training quick-scale artifacts for %s...\n", dataset)
		lab, err := experiments.NewLab(experiments.QuickConfig())
		if err != nil {
			return nil, err
		}
		lab.Progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
		var err2 error
		arts, err2 = lab.Artifacts(dataset)
		if err2 != nil {
			return nil, err2
		}
	}
	return serve.NewGuardFactory(arts, guardConfig())
}

func runServer(addr, binAddr string, cfg serve.Config, dataset, models, registryDir string, registryPoll time.Duration, learnLog string, learnRefitEvery int) error {
	var factory *serve.GuardFactory
	var reg *registry.Registry
	if registryDir != "" {
		var err error
		if reg, factory, err = bootFromRegistry(&cfg, registryDir, dataset, ""); err != nil {
			return err
		}
	} else {
		var err error
		if factory, err = loadFactory(dataset, models); err != nil {
			return err
		}
	}
	if learnLog != "" {
		learner, err := buildLearner(factory, learnConfig{
			LogDir:       learnLog,
			RefitEvery:   learnRefitEvery,
			RegistryRoot: registryDir,
			Parent:       cfg.Version,
		})
		if err != nil {
			return err
		}
		defer learner.Stop() //nolint:errcheck // exit path; log close error is cosmetic
		cfg.Learner = learner
		fmt.Fprintf(os.Stderr, "online learning enabled: experience log %s (refit-every %d)\n", learnLog, learnRefitEvery)
	}
	srv, err := serve.NewServer(factory, cfg)
	if err != nil {
		return err
	}
	srv.StartSweeper()

	// Registry deployments watch the root for rename-published versions
	// (poll + SIGHUP kick); single-file deployments have nothing to
	// watch and keep their historical signal handling untouched.
	var watcher *registry.Watcher
	sighup := make(chan os.Signal, 1)
	if reg != nil {
		watcher, err = registry.NewWatcher(reg, registryPoll, func(added, all, proposed []string) {
			fmt.Fprintf(os.Stderr, "registry: new versions %v published (available: %v); stage via POST /admin/rollout\n", added, all)
			if len(proposed) > 0 {
				fmt.Fprintf(os.Stderr, "registry: %d proposed version(s) awaiting promotion: %v\n", len(proposed), proposed)
			}
		})
		if err != nil {
			return err
		}
		defer watcher.Stop()
		signal.Notify(sighup, syscall.SIGHUP)
	}

	httpSrv := &http.Server{Addr: addr, Handler: srv}
	errc := make(chan error, 2)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	var binLn net.Listener
	if binAddr != "" {
		binLn, err = net.Listen("tcp", binAddr)
		if err != nil {
			return err
		}
		go func() {
			if err := srv.ServeBinary(binLn); err != nil {
				errc <- err
			}
		}()
		fmt.Fprintf(os.Stderr, "osap-serve %s: binary protocol on %s\n", buildinfo.Version, binAddr)
	}
	fmt.Fprintf(os.Stderr, "osap-serve %s: serving %s artifacts on %s (schemes %v)\n",
		buildinfo.Version, factory.Dataset(), addr, factory.Schemes())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
wait:
	for {
		select {
		case err := <-errc:
			return err
		case <-sighup:
			watcher.Rescan()
			ro := srv.Rollout()
			cand := "(none)"
			if c := ro.Candidate(); c != nil {
				cand = c.Version()
			}
			fmt.Fprintf(os.Stderr, "SIGHUP: registry rescan kicked; active=%s candidate=%s available=%v\n",
				ro.Active().Version(), cand, cfg.ListVersions())
		case s := <-sig:
			fmt.Fprintf(os.Stderr, "received %s: draining...\n", s)
			break wait
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Drain(ctx, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "drain:", err)
	}
	if binLn != nil {
		binLn.Close() //nolint:errcheck // drain already closed the conns
	}
	return httpSrv.Shutdown(ctx)
}

// selftestCell is what one (gomaxprocs × transport) cell of -selftest
// observed: the load generator's tallies beside the server's own.
type selftestCell struct {
	transport  string
	procs      int
	res        *loadgen.Result
	concurrent int     // sessions live at once before the measured window
	decisions  uint64  // server-side decision counter after the drain
	batches    uint64  // osap_batch_size observations
	batchRows  float64 // and the rows they sum to
	stepsPerS  float64 // server decisions per second in the steady-state window
}

// verify is the cell's contract: the whole fleet admitted at once, no
// step dropped by the drain under load, every decision the server
// counted acknowledged by a client, and each of them observed once by
// osap_batch_size, as a batch of one.
func (c *selftestCell) verify(clients int) error {
	if c.concurrent < clients {
		return fmt.Errorf("only %d of %d clients were concurrently admitted", c.concurrent, clients)
	}
	if c.res.StepsDropped != 0 || int64(c.decisions) != c.res.StepsOK {
		return fmt.Errorf("cell dropped %d steps (server served %d, clients saw %d ok)",
			c.res.StepsDropped, c.decisions, c.res.StepsOK)
	}
	if c.batches != c.decisions || c.batchRows != float64(c.decisions) {
		return fmt.Errorf("osap_batch_size counted %d batches of %g rows for %d decisions, want one row per decision",
			c.batches, c.batchRows, c.decisions)
	}
	return nil
}

// selftestSessionsPerConn is the -sessions-per-conn flag: how many
// synthetic viewers share one multiplexed binary connection in the
// selftest and chaos harnesses (0 = loadgen.DefaultSessionsPerConn).
var selftestSessionsPerConn int

// runSelfTest runs the load harness over the matrix — HTTP and binary
// transport, at one proc and (on a multi-core machine) at all of them —
// and returns every cell with the first contract violation.
func runSelfTest(cfg serve.Config, dataset, models string, clients int, warmup, measure time.Duration) ([]selftestCell, error) {
	factory, err := loadFactory(dataset, models)
	if err != nil {
		return nil, err
	}
	// The synthetic viewers stream the quick-scale evaluation video over
	// the served dataset's generator.
	video := experiments.QuickConfig().EvalVideo
	traces, err := tracePool(dataset, 20200713)
	if err != nil {
		return nil, err
	}

	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	procs := []int{1}
	if all := runtime.NumCPU(); all > 1 {
		procs = append(procs, all)
	}
	var cells []selftestCell
	var firstErr error
	for _, p := range procs {
		for _, transport := range []string{loadgen.ProtocolHTTP, loadgen.ProtocolBinary} {
			cell, err := runSelfTestCell(cfg, factory, video, traces, clients, p, transport, warmup, measure)
			if err == nil {
				err = cell.verify(clients)
			}
			if err != nil && firstErr == nil {
				firstErr = fmt.Errorf("cell %s/%d procs: %w", transport, p, err)
			}
			cells = append(cells, cell)
		}
	}
	return cells, firstErr
}

func runSelfTestCell(cfg serve.Config, factory *serve.GuardFactory, video *abr.Video, traces []*trace.Trace,
	clients, procs int, transport string, warmup, measure time.Duration) (selftestCell, error) {
	runtime.GOMAXPROCS(procs)
	cell := selftestCell{transport: transport, procs: procs}
	h, err := bootLoopback(factory, cfg, clients, transport == loadgen.ProtocolBinary, nil)
	if err != nil {
		return cell, err
	}
	srv := h.srv
	lgCfg := h.target(loadgen.Config{
		Clients: clients,
		Schemes: factory.Schemes(),
		Video:   video,
		Traces:  traces,
		Seed:    1,
	})
	fmt.Fprintf(os.Stderr, "selftest: %d clients over %s on %d procs (%s)\n",
		clients, transport, procs, h.stepTarget())

	var res *loadgen.Result
	var lgErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, lgErr = loadgen.Run(context.Background(), lgCfg)
	}()

	// Warm up until the full fleet is admitted and stepping.
	deadline := time.Now().Add(warmup + 30*time.Second)
	for srv.Sessions() < clients && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	cell.concurrent = srv.Sessions()
	time.Sleep(warmup)

	// Steady-state window measured by the server-side decision counter.
	m := srv.Metrics()
	before := m.Decisions.Load()
	winStart := time.Now()
	time.Sleep(measure)
	cell.stepsPerS = float64(m.Decisions.Load()-before) / time.Since(winStart).Seconds()

	// Drain gracefully while the fleet is still at full blast.
	if err := h.drain(); err != nil {
		return cell, fmt.Errorf("under load: %w", err)
	}
	<-done
	if lgErr != nil {
		return cell, lgErr
	}
	cell.res, cell.decisions = res, m.Decisions.Load()
	cell.batches, cell.batchRows = m.BatchSize.Count(), m.BatchSize.Sum()
	latched, err := promValue(h.final, "osap_sessions_latched_total")
	if err != nil {
		return cell, err
	}

	fmt.Printf("selftest [%s, %d procs]: %.0f steps/s steady state, rtt p50 %dµs p99 %dµs, decision p99 %.0fµs, queue p99 %.0fµs, dropped %d, demoted %d (recovered %d, re-demoted %d, latched %d)\n",
		transport, procs, cell.stepsPerS,
		res.LatencyQuantile(0.5).Microseconds(), res.LatencyQuantile(0.99).Microseconds(),
		m.DecisionLatency.Quantile(0.99)*1e6, m.QueueLatency.Quantile(0.99)*1e6,
		res.StepsDropped,
		res.SessionsDemoted, res.Recoveries, res.Redemotions, latched)
	return cell, nil
}

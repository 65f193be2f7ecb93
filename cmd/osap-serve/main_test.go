package main

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"osap/internal/experiments"
	"osap/internal/serve"
	"osap/internal/serve/loadgen"
	"osap/internal/trace"
)

// TestServingFlagsOnly: every flag of the binary configures serving;
// the selftests are this package's tests.
func TestServingFlagsOnly(t *testing.T) {
	fs := flag.NewFlagSet("osap-serve", flag.ContinueOnError)
	newOptions(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	want := []string{
		"addr", "binary-addr", "canary-fraction", "dataset", "learn-log", "learn-refit-every",
		"max-sessions", "models", "readmit-cap", "readmit-l", "registry", "registry-poll",
		"rollback-margin", "session-ttl", "shards", "version",
	}
	if !slices.Equal(got, want) {
		t.Errorf("flags %v, want %v", got, want)
	}
}

// The load selftest's windows per cell: load before the steady-state
// window (after the whole fleet is admitted), and the window itself,
// before the drain under load.
const (
	selftestWarmup  = 150 * time.Millisecond
	selftestMeasure = 250 * time.Millisecond
)

// TestSelfTestSmallScale is the load selftest: a matrix of HTTP and
// binary transport at one proc and (on a multi-core machine) all of
// them, each cell booting the server on a loopback listener, replaying
// throughput traces as synthetic viewers and draining gracefully under
// load. Each cell verifies that the whole fleet was admitted at once,
// no in-flight step was dropped, the server's decision count equals the
// clients' acknowledgements, and osap_batch_size counted every decision
// exactly once. It measures nothing: numbers come from `make bench-e2e`
// (bench/README.md). By default it trains quick-scale gamma22 artifacts
// and runs 40 clients; `make models-check` serves an osap-train file
// through it with -models.
func TestSelfTestSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("trains quick-scale artifacts")
	}
	clients, dataset := scaled(*flagClients, 40), scaled(*flagDataset, trace.DatasetGamma22)
	arts, err := loadArtifacts(dataset, *flagModels)
	if err != nil {
		t.Fatal(err)
	}
	factory, err := serve.NewGuardFactory(arts, serve.GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{MaxSessions: 200, Shards: 16, SessionTTL: time.Minute}
	procs := []int{1}
	if all := runtime.NumCPU(); all > 1 {
		procs = append(procs, all)
	}
	for _, p := range procs {
		for _, transport := range []string{loadgen.ProtocolHTTP, loadgen.ProtocolBinary} {
			t.Run(fmt.Sprintf("%s-%dprocs", transport, p), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
				selftestCell(t, cfg, factory, dataset, clients, transport == loadgen.ProtocolBinary)
			})
		}
	}
}

func selftestCell(t *testing.T, cfg serve.Config, factory *serve.GuardFactory, dataset string, clients int, binary bool) {
	h := bootLoopback(t, factory, cfg, clients, binary, nil)
	srv := h.srv
	lgCfg := h.target(loadgen.Config{
		Clients: clients,
		Schemes: factory.Schemes(),
		// The synthetic viewers stream the quick-scale evaluation video
		// over the served dataset's generator.
		Video:  experiments.QuickConfig().EvalVideo,
		Traces: tracePool(t, dataset, 20200713),
		Seed:   1,
	})
	t.Logf("%d clients over %s", clients, h.stepTarget())

	var res *loadgen.Result
	var lgErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, lgErr = loadgen.Run(context.Background(), lgCfg)
	}()

	// Warm up until the full fleet is admitted and stepping.
	deadline := time.Now().Add(selftestWarmup + 30*time.Second)
	for srv.Sessions() < clients && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if got := srv.Sessions(); got < clients {
		t.Errorf("only %d of %d clients were concurrently admitted", got, clients)
	}
	time.Sleep(selftestWarmup)

	// Steady-state window measured by the server-side decision counter.
	m := srv.Metrics()
	before := m.Decisions.Load()
	winStart := time.Now()
	time.Sleep(selftestMeasure)
	stepsPerS := float64(m.Decisions.Load()-before) / time.Since(winStart).Seconds()

	// Drain gracefully while the fleet is still at full blast.
	if err := h.drain(); err != nil {
		t.Fatalf("under load: %v", err)
	}
	<-done
	if lgErr != nil {
		t.Fatal(lgErr)
	}
	decisions := m.Decisions.Load()
	checkCount(t, "sessions created", res.SessionsCreated, int64(clients))
	checkCount(t, "steps dropped", res.StepsDropped, 0)
	checkCount(t, "server decisions (clients acknowledged)", int64(decisions), res.StepsOK)
	if batches, rows := m.BatchSize.Count(), m.BatchSize.Sum(); batches != decisions || rows != float64(decisions) {
		t.Errorf("osap_batch_size counted %d batches of %g rows for %d decisions, want one row per decision",
			batches, rows, decisions)
	}
	if stepsPerS <= 0 {
		t.Errorf("throughput = %v, want > 0", stepsPerS)
	}
	if p50, p99 := res.LatencyQuantile(0.5), res.LatencyQuantile(0.99); p99 < p50 {
		t.Errorf("p99 %v < p50 %v", p99, p50)
	}
	t.Logf("%.0f steps/s steady state, rtt p50 %dµs p99 %dµs, decision p99 %.0fµs, queue p99 %.0fµs, dropped %d, demoted %d (recovered %d, re-demoted %d, latched %d)",
		stepsPerS, res.LatencyQuantile(0.5).Microseconds(), res.LatencyQuantile(0.99).Microseconds(),
		m.DecisionLatency.Quantile(0.99)*1e6, m.QueueLatency.Quantile(0.99)*1e6,
		res.StepsDropped, res.SessionsDemoted, res.Recoveries, res.Redemotions,
		promValue(t, h.final, "osap_sessions_latched_total"))
}

func TestLoadFactoryUnknownDataset(t *testing.T) {
	if _, err := loadArtifacts("not-a-dataset", ""); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

package main

import (
	"context"
	"flag"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"osap/internal/abr"
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
		"max-sessions", "models", "readmit-cap", "readmit-l", "registry",
		"rollback-margin", "session-ttl", "version",
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
// (bench/README.md). It serves the committed paper-scale Norway set,
// testdata/norway.json (`make models-check` rebuilds it with osap-train
// and compares the bytes), to 40 clients, and logs ND's fallback share
// on Norway and on Belgium viewers.
func TestSelfTestSmallScale(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a loopback viewer fleet")
	}
	clients := scaled(*flagClients, 40)
	factory, err := serve.NewGuardFactory(servedArtifacts(t), serve.GuardConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := serve.Config{MaxSessions: 200, SessionTTL: time.Minute}
	procs := []int{1}
	if all := runtime.NumCPU(); all > 1 {
		procs = append(procs, all)
	}
	for _, p := range procs {
		for _, transport := range []string{loadgen.ProtocolHTTP, loadgen.ProtocolBinary} {
			t.Run(fmt.Sprintf("%s-%dprocs", transport, p), func(t *testing.T) {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
				selftestCell(t, cfg, factory, clients, transport == loadgen.ProtocolBinary)
			})
		}
	}
	t.Run("nd-fallback", func(t *testing.T) {
		for _, viewers := range []string{trace.DatasetNorway, trace.DatasetBelgium} {
			share := ndFallbackShare(t, cfg, factory, selftestVideo, tracePool(t, viewers, 20200713))
			t.Logf("ND fallback share on %s viewers: %.3f", viewers, share)
		}
	})
}

// selftestVideo is what the synthetic viewers stream: the paper-scale
// evaluation video, as the served set was trained and calibrated for.
var selftestVideo = experiments.PaperConfig().EvalVideo

func selftestCell(t *testing.T, cfg serve.Config, factory *serve.GuardFactory, clients int, binary bool) {
	h := bootLoopback(t, factory, cfg, clients, binary)
	srv := h.srv
	lgCfg := h.target(loadgen.Config{
		Clients: clients,
		Schemes: factory.Schemes(),
		Video:   selftestVideo,
		Traces:  tracePool(t, trace.DatasetNorway, 20200713),
		Seed:    1,
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

// ndFallbackShare plays one episode of video per ND viewer, 16 viewers
// over traces, against factory's set, and returns the share of steps
// the default policy served. The load selftest reports it, not gates
// it: a share near 1 on Norway viewers means the guard defaults where
// the learned policy is worth keeping.
func ndFallbackShare(t *testing.T, cfg serve.Config, factory *serve.GuardFactory, video *abr.Video, traces []*trace.Trace) float64 {
	const clients = 16
	h := bootLoopback(t, factory, cfg, clients, true)
	res, err := loadgen.Run(context.Background(), h.target(loadgen.Config{
		Clients:        clients,
		StepsPerClient: video.NumChunks(),
		Schemes:        []string{experiments.SchemeND},
		Video:          video,
		Traces:         traces,
		Seed:           1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := h.drain(); err != nil {
		t.Fatal(err)
	}
	checkCount(t, "ND viewer steps served", res.StepsOK, int64(clients*video.NumChunks()))
	return float64(res.Fallbacks) / float64(res.StepsOK)
}

// TestLoadArtifactsMissingFile: a -models directory without the
// dataset's file is an error, never a reason to train.
func TestLoadArtifactsMissingFile(t *testing.T) {
	if _, err := loadArtifacts(trace.DatasetNorway, t.TempDir()); err == nil {
		t.Fatal("missing artifact file accepted")
	}
}

// TestRunServerNeedsArtifacts: with neither -models nor -registry the
// server refuses to start, naming both.
func TestRunServerNeedsArtifacts(t *testing.T) {
	o := newOptions(flag.NewFlagSet("osap-serve", flag.ContinueOnError))
	err := runServer(o)
	if err == nil || !strings.Contains(err.Error(), "-models") || !strings.Contains(err.Error(), "-registry") {
		t.Fatalf("runServer without artifacts: err = %v, want one naming -models and -registry", err)
	}
}

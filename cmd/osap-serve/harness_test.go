package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"osap/internal/experiments"
	"osap/internal/learn"
	"osap/internal/serve"
	"osap/internal/serve/loadgen"
	"osap/internal/stats"
	"osap/internal/trace"
)

// The selftests run at a CI-friendly small scale by default. These
// flags scale them up — `go test ./cmd/osap-serve -run TestChaosSmallScale
// -args -clients 1000` and the like, which is what `make chaos`, `make
// rollout-selftest` and `make learn-selftest` run. A zero value keeps
// each test's own small-scale setting; the load selftest always serves
// the committed Norway set, whatever -dataset says, and the chaos and
// learn selftests serve it on Norway (servedArtifactsFor).
var (
	flagClients = flag.Int("clients", 0, "concurrent synthetic viewers per fleet (0 = the test's own)")
	flagDataset = flag.String("dataset", "", "chaos, rollout and learn: served dataset (empty = the test's own)")
	flagSeed    = flag.Uint64("seed", 0, "fault-schedule, fleet and trace seed (0 = the test's own)")
	flagSteps   = flag.Int("steps", 0, "chaos: decisions per client (0 = the test's own)")
)

var (
	servedOnce sync.Once
	served     *experiments.Artifacts
	servedErr  error
)

// servedArtifacts is the committed paper-scale Norway set,
// testdata/norway.json (`make models-check` rebuilds it with osap-train
// and compares the bytes), loaded as osap-serve -models loads it, once
// per test binary. The tests only read it.
func servedArtifacts(t *testing.T) *experiments.Artifacts {
	t.Helper()
	servedOnce.Do(func() { served, servedErr = loadArtifacts(trace.DatasetNorway, "testdata") })
	if servedErr != nil {
		t.Fatal(servedErr)
	}
	return served
}

// quickArtifacts trains dataset's set with the quick lab under seed,
// its config first edited by edit when that is set: a build of its own,
// its thresholds calibrated as osap-train calibrates them.
func quickArtifacts(t *testing.T, dataset string, seed uint64, edit func(*experiments.Config)) *experiments.Artifacts {
	t.Helper()
	cfg := experiments.QuickConfig()
	cfg.Seed = seed
	if edit != nil {
		edit(&cfg)
	}
	lab, err := experiments.NewLab(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := lab.Artifacts(dataset)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// servedArtifactsFor is the set a selftest serves on dataset: the
// committed set on Norway, the quick lab's under seed on any other.
func servedArtifactsFor(t *testing.T, dataset string, seed uint64) *experiments.Artifacts {
	t.Helper()
	if dataset == trace.DatasetNorway {
		return servedArtifacts(t)
	}
	return quickArtifacts(t, dataset, seed, nil)
}

// scaled is the flag's value when it was set, otherwise the test's own.
func scaled[T comparable](flagValue, own T) T {
	var zero T
	if flagValue != zero {
		return flagValue
	}
	return own
}

// datasets is the -dataset flag when set, otherwise the test's own list.
func datasets(own ...string) []string {
	if *flagDataset != "" {
		return []string{*flagDataset}
	}
	return own
}

// harness is the loopback server every selftest runs against: the HTTP
// listener always (the scrapes and admin calls go there), plus a
// binary-protocol listener when the step traffic rides that transport.
type harness struct {
	srv     *serve.Server
	httpSrv *http.Server
	binLn   net.Listener // nil unless booted with binary
	baseURL string
	// final is the metrics snapshot Drain flushed: /metrics as of the
	// drained, empty fleet, when the listener is already gone.
	final string
}

// bootLoopback builds a server from factory and cfg — its session cap
// raised to admit `sessions` if it is lower — and serves it on loopback
// listeners.
func bootLoopback(t *testing.T, factory *serve.GuardFactory, cfg serve.Config, sessions int, binary bool) *harness {
	t.Helper()
	if cfg.MaxSessions > 0 && cfg.MaxSessions < sessions {
		cfg.MaxSessions = sessions
	}
	srv, err := serve.NewServer(factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.StartSweeper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{srv: srv, httpSrv: &http.Server{Handler: srv}, baseURL: "http://" + ln.Addr().String()}
	go h.httpSrv.Serve(ln) //nolint:errcheck // Serve returns on Shutdown
	if binary {
		if h.binLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		go srv.ServeBinary(h.binLn) //nolint:errcheck // returns on drain + close
	}
	return h
}

// stepTarget names where the step traffic goes, for the banner lines.
func (h *harness) stepTarget() string {
	if h.binLn != nil {
		return "binary://" + h.binLn.Addr().String()
	}
	return h.baseURL
}

// target points a load-generator config at the harness: the step
// traffic takes the binary listener when there is one.
func (h *harness) target(c loadgen.Config) loadgen.Config {
	c.BaseURL = h.baseURL
	if h.binLn != nil {
		c.Protocol = loadgen.ProtocolBinary
		c.Addr = h.binLn.Addr().String()
	}
	return c
}

// drain shuts the harness down the way production does: drain the
// session layer, then stop the listeners.
func (h *harness) drain() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var snap strings.Builder
	err := h.srv.Drain(ctx, &snap)
	h.final = snap.String()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if h.binLn != nil {
		h.binLn.Close() //nolint:errcheck // stops the accept loop
	}
	if err := h.httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("http shutdown: %w", err)
	}
	return nil
}

// scrape GETs one of the server's own endpoints ("/healthz"), retrying
// rejections the chaos fault seam itself injects (it faults every
// request, including the ones we assert on).
func (h *harness) scrape(path string) (string, error) {
	url := h.baseURL + path
	var lastStatus int
	for attempt := 0; attempt < 10; attempt++ {
		resp, err := http.Get(url)
		if err != nil {
			return "", err
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if resp.StatusCode == http.StatusOK {
			return string(body), nil
		}
		lastStatus = resp.StatusCode
		time.Sleep(10 * time.Millisecond)
	}
	return "", fmt.Errorf("GET %s: status %d after retries", url, lastStatus)
}

// dashboardDoc mirrors the /dashboard JSON the selftests assert on.
type dashboardDoc struct {
	Versions []struct {
		Version   string `json:"version"`
		Role      string `json:"role"`
		Sessions  uint64 `json:"sessions_total"`
		Demotions uint64 `json:"demotions_total"`
		Recovered uint64 `json:"recovered_total"`
		Redemoted uint64 `json:"redemoted_total"`
		Latched   uint64 `json:"latched_total"`
		Drift     map[string]struct {
			Count uint64  `json:"count"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
		} `json:"drift"`
	} `json:"versions"`
	Rollout struct {
		Active    string `json:"active"`
		Candidate string `json:"candidate"`
		Rollbacks uint64 `json:"rollbacks"`
		Events    []struct {
			Action string `json:"action"`
			Auto   bool   `json:"auto"`
		} `json:"events"`
	} `json:"rollout"`
	RegistryProposed []string       `json:"registry_proposed"`
	Learn            learn.Snapshot `json:"learn"`
}

func (h *harness) dashboard(t *testing.T) *dashboardDoc {
	t.Helper()
	body, err := h.scrape("/dashboard")
	if err != nil {
		t.Fatal(err)
	}
	var doc dashboardDoc
	if err := json.Unmarshal([]byte(body), &doc); err != nil {
		t.Fatalf("decode dashboard: %v", err)
	}
	return &doc
}

// promValue reads one sample from a Prometheus text body — the line
// `name value`, where name includes any labels exactly as rendered —
// failing the test (and reading 0) when the body has none.
func promValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				t.Errorf("metrics sample %s: %v", name, err)
			}
			return n
		}
	}
	t.Errorf("metrics have no sample %s", name)
	return 0
}

// checkCount asserts an exact closed-form count.
func checkCount(t *testing.T, name string, got, want int64) {
	t.Helper()
	if got != want {
		t.Errorf("%s = %d, want exactly %d", name, got, want)
	}
}

// tracePool generates the 16 throughput traces the synthetic viewers
// replay, from the served dataset's generator.
func tracePool(t *testing.T, dataset string, seed uint64) []*trace.Trace {
	t.Helper()
	gen, err := trace.GeneratorFor(dataset)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(seed)
	traces := make([]*trace.Trace, 16)
	for i := range traces {
		traces[i] = gen.Generate(rng, 200)
	}
	return traces
}

package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"osap/internal/serve"
	"osap/internal/serve/loadgen"
	"osap/internal/stats"
	"osap/internal/trace"
)

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
// listeners. wrap, if set, is HTTP middleware around the server (the
// chaos fault injector).
func bootLoopback(factory *serve.GuardFactory, cfg serve.Config, sessions int, binary bool,
	wrap func(http.Handler) http.Handler) (*harness, error) {
	if cfg.MaxSessions > 0 && cfg.MaxSessions < sessions {
		cfg.MaxSessions = sessions
	}
	srv, err := serve.NewServer(factory, cfg)
	if err != nil {
		return nil, err
	}
	srv.StartSweeper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var handler http.Handler = srv
	if wrap != nil {
		handler = wrap(srv)
	}
	h := &harness{srv: srv, httpSrv: &http.Server{Handler: handler}, baseURL: "http://" + ln.Addr().String()}
	go h.httpSrv.Serve(ln) //nolint:errcheck // Serve returns on Shutdown
	if binary {
		if h.binLn, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			return nil, err
		}
		go srv.ServeBinary(h.binLn) //nolint:errcheck // returns on drain + close
	}
	return h, nil
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
		c.SessionsPerConn = selftestSessionsPerConn
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
// rejections the chaos middleware itself injects (it wraps every
// endpoint, including the ones we assert on).
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

// promValue reads one sample from a Prometheus text body: the line
// `name value`, where name includes any labels exactly as rendered.
func promValue(body, name string) (int64, error) {
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			return strconv.ParseInt(v, 10, 64)
		}
	}
	return 0, fmt.Errorf("metrics have no sample %s", name)
}

// tracePool generates the 16 throughput traces the synthetic viewers
// replay, from the served dataset's generator.
func tracePool(dataset string, seed uint64) ([]*trace.Trace, error) {
	gen, err := trace.GeneratorFor(dataset)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRNG(seed)
	traces := make([]*trace.Trace, 16)
	for i := range traces {
		traces[i] = gen.Generate(rng, 200)
	}
	return traces, nil
}

// failures collects a selftest's failed assertions so one run reports
// all of them.
type failures struct {
	name string // the selftest, for the summary error
	msgs []string
}

func (f *failures) fail(format string, args ...any) {
	f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
}

// check asserts an exact closed-form count.
func (f *failures) check(name string, got, want int64) {
	if got != want {
		f.fail("%s = %d, schedule requires exactly %d", name, got, want)
	}
}

// sample reads one sample from a Prometheus text body, recording a
// failure (and reading 0) when the body has none.
func (f *failures) sample(body, name string) int64 {
	v, err := promValue(body, name)
	if err != nil {
		f.fail("%v", err)
	}
	return v
}

// err is nil when every assertion held.
func (f *failures) err() error {
	if len(f.msgs) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %d assertion(s) failed:\n  %s", f.name, len(f.msgs), strings.Join(f.msgs, "\n  "))
}

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"osap/internal/experiments"
	"osap/internal/serve"
	"osap/internal/serve/proto"
)

// childFlag selects the server mode: the benchmark binary re-executes
// itself as `<exe> -serve-child <artifacts.json>` so the server under
// test has its own process, scheduler, heap and GC.
const childFlag = "-serve-child"

// childHello is the first line the child prints: where it listens and
// what booting cost.
type childHello struct {
	Binary string  `json:"binary"`
	HTTP   string  `json:"http"`
	Echo   string  `json:"echo"`
	LoadMs float64 `json:"load_ms"`
}

// snapshot is the child's answer to one "snapshot" line on stdin: the
// server's own metrics (the histograms in Prometheus text form, the
// only public view of their buckets) plus the process-level facts no
// client can see.
type snapshot struct {
	Prom         string  `json:"prom"`
	Decisions    uint64  `json:"decisions"`
	SessionsLive int     `json:"sessions_live"`
	Goroutines   int     `json:"goroutines"`
	CPUSec       float64 `json:"cpu_s"` // user+sys, getrusage(RUSAGE_SELF)
	RSSMB        float64 `json:"rss_mb"`
	MaxRSSMB     float64 `json:"max_rss_mb"`
	NumGC        uint32  `json:"num_gc"`
	GCPauseMs    float64 `json:"gc_pause_ms"`
	TotalAlloc   uint64  `json:"total_alloc"`
}

// serveChild wires the guard server exactly as cmd/osap-serve does —
// LoadArtifacts → NewGuardFactory → NewServer → ServeBinary plus an
// http.Server with the server as handler — on loopback ports it
// picks itself, and then answers snapshot requests on stdin until
// stdin closes.
func serveChild(artifactPath string) error {
	start := time.Now()
	arts, err := experiments.LoadArtifacts(artifactPath)
	if err != nil {
		return err
	}
	factory, err := newFactory(arts)
	if err != nil {
		return err
	}
	srv, err := serve.NewServer(factory, serve.Config{})
	if err != nil {
		return err
	}
	srv.StartSweeper()
	loadMs := float64(time.Since(start).Microseconds()) / 1e3

	listen := func() (net.Listener, error) { return net.Listen("tcp", "127.0.0.1:0") }
	binLn, err := listen()
	if err != nil {
		return err
	}
	httpLn, err := listen()
	if err != nil {
		return err
	}
	echoLn, err := listen()
	if err != nil {
		return err
	}
	errc := make(chan error, 3) // one slot per listener goroutine
	go func() { errc <- srv.ServeBinary(binLn) }()
	httpSrv := &http.Server{Handler: srv}
	go func() {
		if err := httpSrv.Serve(httpLn); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	go serveEcho(echoLn)

	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(childHello{
		Binary: binLn.Addr().String(), HTTP: httpLn.Addr().String(), Echo: echoLn.Addr().String(),
		LoadMs: loadMs,
	}); err != nil {
		return err
	}

	lines := make(chan string)
	go func() {
		defer close(lines)
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
	}()
serving:
	for {
		select {
		case err := <-errc:
			if err != nil {
				return err
			}
		case line, ok := <-lines:
			if !ok {
				break serving
			}
			switch line {
			case "snapshot":
			case "settle":
				// Collect and hand freed pages back first, so that resident
				// memory is what the sessions hold, not where the GC cycle
				// happened to stand. Only the run's last snapshot asks.
				debug.FreeOSMemory()
			default:
				return fmt.Errorf("child: unknown command %q", line)
			}
			if err := out.Encode(takeSnapshot(srv)); err != nil {
				return err
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	echoLn.Close() //nolint:errcheck // shutting down
	if err := srv.Drain(ctx, nil); err != nil {
		return err
	}
	binLn.Close() //nolint:errcheck // drain already closed the connections
	return httpSrv.Shutdown(ctx)
}

func takeSnapshot(srv *serve.Server) snapshot {
	var prom bytes.Buffer
	// The three gauges WriteProm wants are read separately below.
	srv.Metrics().WriteProm(&prom, srv.Sessions(), 0, 0) //nolint:errcheck // bytes.Buffer
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) //nolint:errcheck // cannot fail for RUSAGE_SELF
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return snapshot{
		Prom:         prom.String(),
		Decisions:    srv.Metrics().Decisions.Load(),
		SessionsLive: srv.Sessions(),
		Goroutines:   runtime.NumGoroutine(),
		CPUSec:       tv(ru.Utime) + tv(ru.Stime),
		RSSMB:        residentMB(),
		MaxRSSMB:     float64(ru.Maxrss) / 1024, // Linux reports KiB
		NumGC:        ms.NumGC,
		GCPauseMs:    float64(ms.PauseTotalNs) / 1e6,
		TotalAlloc:   ms.TotalAlloc,
	}
}

// residentMB reads the process's resident set from /proc; 0 where
// there is no such file.
func residentMB() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	var size, resident float64
	fmt.Sscan(string(data), &size, &resident) //nolint:errcheck // zero on a malformed file
	return resident * float64(os.Getpagesize()) / (1 << 20)
}

// serveEcho answers every Step frame with a zero Decision frame: the
// same bytes on the wire as a real step with none of the serving work.
// Its round trip is the floor under every binary latency here, and the
// generator proves it can hold a rate against it before that rate is
// trusted against the real server.
func serveEcho(ln net.Listener) {
	for {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		go func() {
			defer nc.Close() //nolint:errcheck // echo peer is gone
			pc := proto.NewConn(nc)
			for {
				t, payload, err := pc.ReadFrame()
				if err != nil || t != proto.TypeStep {
					return
				}
				cid, _ := proto.StepCid(payload)
				if pc.WriteDecision(proto.Decision{Cid: cid}) != nil {
					return
				}
			}
		}()
	}
}

// child is the parent's handle on a running server process.
type child struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	hello childHello
}

// startChild re-executes this binary in server mode with GOMAXPROCS=1
// and waits for its hello line.
func startChild(artifactPath string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, childFlag, artifactPath)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	if err := c.readLine(&c.hello); err != nil {
		c.stop()
		return nil, fmt.Errorf("child hello: %w", err)
	}
	return c, nil
}

func (c *child) readLine(v any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// snapshot asks the child for its current counters.
func (c *child) snapshot() (snapshot, error) { return c.command("snapshot") }

// command sends one line and reads the snapshot that answers it.
func (c *child) command(line string) (snapshot, error) {
	var s snapshot
	if _, err := io.WriteString(c.stdin, line+"\n"); err != nil {
		return s, err
	}
	err := c.readLine(&s)
	return s, err
}

// stop closes the child's stdin — its signal to drain and exit — and
// waits for the process to end, killing it if it does not.
func (c *child) stop() {
	c.stdin.Close() //nolint:errcheck // EOF is the message
	done := make(chan struct{})
	go func() {
		c.cmd.Wait() //nolint:errcheck // exit status is irrelevant once we are done
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill() //nolint:errcheck // already exited
		<-done
	}
}

// ---- reading the child's Prometheus text ----

// promHist is one cumulative histogram read from the text.
type promHist struct {
	le    []float64 // upper bounds, +Inf last
	cum   []float64
	sum   float64
	count float64
}

func promHistogram(prom, name string) promHist {
	var h promHist
	for _, line := range strings.Split(prom, "\n") {
		switch {
		case strings.HasPrefix(line, name+"_bucket{le=\""):
			rest := line[len(name+"_bucket{le=\""):]
			q := strings.IndexByte(rest, '"')
			if q < 0 {
				continue
			}
			le := inf
			if rest[:q] != "+Inf" {
				fmt.Sscan(rest[:q], &le) //nolint:errcheck
			}
			var c float64
			fmt.Sscan(strings.TrimPrefix(rest[q+1:], "} "), &c) //nolint:errcheck
			h.le = append(h.le, le)
			h.cum = append(h.cum, c)
		case strings.HasPrefix(line, name+"_sum "):
			fmt.Sscan(line[len(name)+5:], &h.sum) //nolint:errcheck
		case strings.HasPrefix(line, name+"_count "):
			fmt.Sscan(line[len(name)+7:], &h.count) //nolint:errcheck
		}
	}
	return h
}

// sub returns the histogram of the observations made between two
// snapshots.
func (h promHist) sub(earlier promHist) promHist {
	d := promHist{le: h.le, cum: make([]float64, len(h.cum)), sum: h.sum - earlier.sum, count: h.count - earlier.count}
	for i := range h.cum {
		d.cum[i] = h.cum[i]
		if i < len(earlier.cum) {
			d.cum[i] -= earlier.cum[i]
		}
	}
	return d
}

// plus returns the bucket-wise sum of two histograms with the same
// bounds; the zero histogram is the identity.
func (h promHist) plus(o promHist) promHist {
	if h.le == nil {
		return o
	}
	d := promHist{le: h.le, cum: make([]float64, len(h.cum)), sum: h.sum + o.sum, count: h.count + o.count}
	for i := range h.cum {
		d.cum[i] = h.cum[i] + o.cum[i]
	}
	return d
}

// quantile interpolates linearly inside the containing bucket, the
// same estimate serve.Histogram.Quantile makes.
func (h promHist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	rank := q * h.count
	prev, lo := 0.0, 0.0
	for i, c := range h.cum {
		if c >= rank {
			hi := h.le[i]
			if hi == inf {
				hi = 2 * lo
			}
			if c == prev {
				return hi
			}
			return lo + (hi-lo)*(rank-prev)/(c-prev)
		}
		prev, lo = c, h.le[i]
	}
	return lo
}

// atMost returns how many observations were ≤ bound.
func (h promHist) atMost(bound float64) float64 {
	for i, le := range h.le {
		if le >= bound {
			return h.cum[i]
		}
	}
	return h.count
}

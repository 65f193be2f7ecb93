// Package loadgen replays throughput traces as synthetic guard-server
// clients: each client runs a private chunk-level ABR environment
// (internal/abr) over the trace pool and asks a remote osap-serve
// instance for every bitrate decision, exactly the round trip a real
// player would make. It backs cmd/osap-serve's load, chaos, recovery,
// rollout and learn selftests.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"osap/internal/abr"
	"osap/internal/stats"
	"osap/internal/trace"
)

// Config parameterizes a load run.
type Config struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Protocol selects the wire protocol: ProtocolHTTP (default, also
	// "") or ProtocolBinary — the persistent length-prefixed protocol
	// in internal/serve/proto, many sessions multiplexed per
	// connection.
	Protocol string
	// Addr is the host:port of the server's binary listener; required
	// when Protocol is ProtocolBinary (BaseURL is then unused).
	Addr string
	// Clients is the number of concurrent sessions to hold open.
	Clients int
	// StepsPerClient bounds each client's decisions (0 = run until the
	// context is canceled or the server drains).
	StepsPerClient int
	// Schemes are assigned round-robin across clients (empty → ND).
	Schemes []string
	// Video is the content each synthetic client streams (required).
	Video *abr.Video
	// Traces is the throughput-trace pool clients replay (required).
	Traces []*trace.Trace
	// Seed derives the per-client RNGs.
	Seed uint64
	// Retry retries 429/503 responses that are not drain signals with
	// jittered exponential backoff (retryBase, retryMax, maxRetries),
	// honoring the server's Retry-After hint. False fails fast: the
	// first rejection is the request's answer.
	Retry bool
	// ClientDelay, when non-nil, returns an artificial pause inserted
	// before each of client i's requests (the chaos slow-client hook).
	ClientDelay func(i int) time.Duration
	// AbortStep, when non-nil, returns how many steps client i takes
	// before abandoning its session without deleting it (0 = run the
	// full budget) — the viewer who closes the tab.
	AbortStep func(i int) int
	// ScoreSink, when non-nil, receives each client's uncertainty
	// scores (successful, non-demoted steps only) once, keyed by the
	// artifact version the session bound at admission ("" over the
	// binary protocol, whose Opened frame carries no version). Calls are
	// serialized; the slice is owned by the callee. Used by the rollout
	// selftest to build a sequential drift reference per version.
	ScoreSink func(version string, scores []float64)
	// ExpectDemoted, when non-nil, is the closed-form oracle for the
	// demoted flag: it is consulted after every successful step with the
	// session's 0-based creation index (parsed from the session ID) and
	// the 0-based step index, and any disagreement with the server's
	// reported flag counts as a FlagMismatch — the chaos selftests'
	// per-step assertion. When nil, demotion is permanent by contract: a
	// session that reported demoted and later reports live is a
	// DemotionViolation.
	ExpectDemoted func(sessionIdx uint64, step int) bool
	// Adversary, when non-nil, returns client i's multiplicative
	// per-step throughput drift factor: before each step the client
	// scales the throughput history in the observation it REPORTS by
	// the compounded factor (1.001 = +0.1%/step, the slow-poisoning
	// attacker of DESIGN.md §14) while its local environment keeps
	// evolving honestly. Return 0 or 1 for an honest client.
	Adversary func(i int) float64
}

// The retry schedule for rejected requests under Config.Retry: attempt
// n waits jitter(min(retryBase<<n, retryMax)), floored by the server's
// Retry-After hint, for at most maxRetries attempts beyond the first.
const (
	retryBase  = 10 * time.Millisecond
	retryMax   = time.Second
	maxRetries = 8
)

// Result aggregates a load run. A step is "dropped" only when a
// request failed for a reason other than the server's explicit drain
// signal (503 + draining, connection refused after shutdown, or a
// session closed by drain) — with a graceful shutdown this must be 0.
type Result struct {
	SessionsCreated  int64
	SessionsRejected int64 // 429s from admission control
	StepsOK          int64
	StepsDrained     int64 // refused by drain or shutdown (expected)
	StepsDropped     int64 // hard failures (must be 0)
	Fallbacks        int64 // steps served by the default policy
	Retries          int64 // requests retried after a 429/503
	StepsDemoted     int64 // steps answered in degraded mode
	SessionsDemoted  int64 // clients that observed their session demote
	// DemotionViolations counts degraded steps not served by the safe
	// policy and, without Config.ExpectDemoted, steps where a session
	// that had reported demoted reported live again. Must be 0.
	DemotionViolations int64
	// Recovery stats, tallied from demoted-flag flips: Recoveries
	// counts demoted→live transitions, Redemotions counts repeat
	// live→demoted transitions, SessionsEndDemoted counts sessions
	// whose final step was still demoted, and FlagMismatches counts
	// steps whose demoted flag contradicted Config.ExpectDemoted (must
	// be 0 in a clean chaos run).
	Recoveries         int64
	Redemotions        int64
	SessionsEndDemoted int64
	FlagMismatches     int64
	// StepsLearned counts steps the server's online-learning trust
	// gate admitted into the experience window (the HTTP "learned"
	// response flag; binary runs leave these zero). AdversarySteps and
	// AdversaryLearned are the tallies for the subset of clients with
	// a drift Adversary configured.
	StepsLearned     int64
	AdversarySteps   int64
	AdversaryLearned int64
	Elapsed          time.Duration
	// VersionCounts tallies sessions by the artifact version reported at
	// creation (HTTP protocol only; the binary Opened frame carries no
	// version, so binary runs leave this empty).
	VersionCounts map[string]int64
	latencies     []time.Duration
}

// Throughput returns served steps per second over the run.
func (r *Result) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.StepsOK) / r.Elapsed.Seconds()
}

// LatencyQuantile returns the q-th (0..1) client-observed step latency.
func (r *Result) LatencyQuantile(q float64) time.Duration {
	return quantile(r.latencies, q)
}

func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// client is one synthetic viewer.
type client struct {
	cfg    *Config
	http   *http.Client
	scheme string
	rng    *stats.RNG
	delay  time.Duration // pre-request pause (slow-client chaos)

	sessionID string
	env       *abr.Env
	obs       []float64
	mux       *binMux // shared binary connection (Protocol binary only)
	slot      uint32  // this session's channel id on the mux
	seq       uint32

	drift    float64   // adversary per-step drift factor (0 = honest)
	driftAcc float64   // compounded drift applied to the reported obs
	obsBuf   []float64 // scratch for the drift-scaled observation

	stepsOK      int64
	drained      int64
	dropped      int64
	fallbacks    int64
	retries      int64
	learned      int64
	demotedSteps int64
	violations   int64
	demoted      bool
	everDemoted  bool
	recoveries   int64
	redemotions  int64
	mismatches   int64
	sessIdx      uint64
	sessIdxOK    bool
	version      string
	scores       []float64
	latencies    []time.Duration
}

type createResponse struct {
	ID         string `json:"id"`
	ObsDim     int    `json:"obs_dim"`
	NumActions int    `json:"num_actions"`
	Version    string `json:"version"`
}

// stepReply is one served decision as either transport decodes it: the
// HTTP step response, or the binary Decision frame (which carries no
// learned flag).
type stepReply struct {
	Action   int     `json:"action"`
	Fallback bool    `json:"fallback"`
	Demoted  bool    `json:"demoted"`
	Learned  bool    `json:"learned"`
	Score    float64 `json:"score"`
}

// isDrainSignal classifies request failures that a graceful shutdown
// legitimately produces: the server's explicit 503/410, a connection
// refused/reset once the listener is gone, or an idle keep-alive
// connection closed under us. A reset reaches a connection's reader
// and writer as different errors — the first to touch the socket gets
// ECONNRESET, a later write gets EPIPE — so both are classed. Timeouts
// and other errors are NOT drain signals — they count as dropped steps.
func isDrainSignal(status int, err error) bool {
	if status == http.StatusServiceUnavailable || status == http.StatusGone {
		return true
	}
	if err == nil {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) ||
		errors.Is(err, syscall.EPIPE) {
		return true
	}
	msg := err.Error()
	return strings.Contains(msg, "connection refused") ||
		strings.Contains(msg, "connection reset") ||
		strings.Contains(msg, "server closed")
}

// retryHint extracts the server's Retry-After floor and whether the
// rejection is a drain (never retried) rather than transient overload.
// It consumes and closes the response body.
func retryHint(resp *http.Response) (floor time.Duration, draining bool) {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if sec, err := strconv.Atoi(s); err == nil && sec > 0 {
			floor = time.Duration(sec) * time.Second
		}
	}
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<12))
	resp.Body.Close()
	return floor, bytes.Contains(b, []byte("draining"))
}

// backoffDelay is the jittered exponential schedule: attempt n waits
// uniform[0.5, 1.5) × min(retryBase<<n, retryMax), never below the
// server's Retry-After floor.
func (c *client) backoffDelay(attempt int, floor time.Duration) time.Duration {
	d := min(retryBase<<attempt, retryMax) // attempt < maxRetries: no overflow
	d = time.Duration(float64(d) * (0.5 + c.rng.Float64()))
	if d < floor {
		d = floor
	}
	return d
}

// do sends one POST, retrying 429/503 rejections under Config.Retry.
// Drain 503s are never retried. When retries are exhausted the final
// rejection is returned (body already consumed) for the caller's usual
// classification.
func (c *client) do(ctx context.Context, url string, body []byte) (*http.Response, time.Duration, error) {
	for attempt := 0; ; attempt++ {
		if c.delay > 0 {
			time.Sleep(c.delay)
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return nil, 0, err
		}
		start := time.Now()
		resp, err := c.http.Do(req)
		lat := time.Since(start)
		if !c.cfg.Retry || err != nil || ctx.Err() != nil ||
			(resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable) {
			return resp, lat, err
		}
		floor, draining := retryHint(resp)
		if draining || attempt >= maxRetries {
			return resp, lat, err
		}
		c.retries++
		time.Sleep(c.backoffDelay(attempt, floor))
	}
}

// create establishes the client's session over the configured
// protocol; step takes one decision round trip. Both report
// HTTP-style status codes so the caller's classification is
// transport-agnostic.
func (c *client) create(ctx context.Context) (int, error) {
	if c.cfg.Protocol == ProtocolBinary {
		return c.createBinary(ctx)
	}
	return c.createHTTP(ctx)
}

func (c *client) step(ctx context.Context) bool {
	if c.cfg.Protocol == ProtocolBinary {
		return c.stepBinary(ctx)
	}
	return c.stepHTTP(ctx)
}

func (c *client) createHTTP(ctx context.Context) (int, error) {
	body, _ := json.Marshal(map[string]string{"scheme": c.scheme})
	resp, _, err := c.do(ctx, c.cfg.BaseURL+"/v1/sessions", body)
	if err != nil {
		return 0, err
	}
	defer drainBody(resp)
	if resp.StatusCode != http.StatusCreated {
		return resp.StatusCode, fmt.Errorf("create: status %s", resp.Status)
	}
	var cr createResponse
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		return resp.StatusCode, err
	}
	c.sessionID = cr.ID
	c.version = cr.Version
	return resp.StatusCode, nil
}

// report returns the observation the client reports for this step: its
// env's, or for an adversary the env's with the throughput history
// scaled by the compounded drift, the honest local env untouched. Call
// it once per step; retries resend the same observation.
func (c *client) report() []float64 {
	if c.drift == 0 {
		return c.obs
	}
	c.driftAcc *= c.drift
	c.obsBuf = append(c.obsBuf[:0], c.obs...)
	abr.ScaleThroughputHistory(c.obsBuf, c.driftAcc)
	return c.obsBuf
}

// stepHTTP posts the reported observation and books the reply.
func (c *client) stepHTTP(ctx context.Context) (ok bool) {
	body, err := json.Marshal(map[string][]float64{"obs": c.report()})
	if err != nil {
		c.dropped++
		return false
	}
	resp, lat, err := c.do(ctx, c.cfg.BaseURL+"/v1/sessions/"+c.sessionID+"/step", body)
	status := 0
	if resp != nil {
		status = resp.StatusCode
		defer drainBody(resp)
	}
	if err != nil || status != http.StatusOK {
		if ctx.Err() != nil || isDrainSignal(status, err) {
			c.drained++
		} else {
			c.dropped++
		}
		return false
	}
	var r stepReply
	if err := json.NewDecoder(resp.Body).Decode(&r); err != nil {
		c.dropped++
		return false
	}
	c.book(r, lat)
	return true
}

// book records one served decision, whichever transport carried it:
// the tallies, the latency, the demotion contract, the score sink, and
// the local env advanced by the returned action.
func (c *client) book(r stepReply, lat time.Duration) {
	stepIdx := c.stepsOK
	c.stepsOK++
	c.latencies = append(c.latencies, lat)
	if r.Fallback {
		c.fallbacks++
	}
	if r.Learned {
		c.learned++
	}
	c.noteStepFlags(r.Demoted, r.Fallback, stepIdx)
	if !r.Demoted && c.cfg.ScoreSink != nil {
		c.scores = append(c.scores, r.Score)
	}
	next, _, done := c.env.Step(r.Action)
	if done {
		c.obs = c.env.Reset(c.rng)
	} else {
		c.obs = next
	}
}

// noteStepFlags applies the demotion contract to one successful step's
// demoted/fallback flags. A degraded step must come from the safe
// policy. The flag's flips — off at a re-admission, on again at a
// re-demotion — become the recovery tallies. With an ExpectDemoted
// oracle every flag value is checked against it; without one, demotion
// is permanent by contract and a flip off is a violation.
func (c *client) noteStepFlags(demoted, fallback bool, stepIdx int64) {
	if demoted && !fallback {
		c.violations++
	}
	if c.cfg.ExpectDemoted == nil {
		if c.demoted && !demoted {
			c.violations++
		}
	} else if c.sessIdxOK && demoted != c.cfg.ExpectDemoted(c.sessIdx, int(stepIdx)) {
		c.mismatches++
	}
	switch {
	case demoted && !c.demoted:
		if c.everDemoted {
			c.redemotions++
		}
		c.everDemoted = true
	case !demoted && c.demoted:
		c.recoveries++
	}
	if demoted {
		c.demotedSteps++
	}
	c.demoted = demoted
}

// sessionIndex recovers the 0-based creation index from a server
// session ID ("salt-idx" with idx the hex creation counter from 1).
func sessionIndex(id string) (uint64, bool) {
	i := strings.LastIndexByte(id, '-')
	if i < 0 {
		return 0, false
	}
	v, err := strconv.ParseUint(id[i+1:], 16, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return v - 1, true
}

func drainBody(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16)) //nolint:errcheck
	resp.Body.Close()
}

// Run drives cfg.Clients concurrent synthetic viewers until each has
// taken StepsPerClient decisions, the context is canceled, or the
// server drains. It returns aggregate counts and the merged, sorted
// per-step latencies.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	switch cfg.Protocol {
	case "", ProtocolHTTP:
		if cfg.BaseURL == "" {
			return nil, fmt.Errorf("loadgen: BaseURL is required for the HTTP protocol")
		}
	case ProtocolBinary:
		if cfg.Addr == "" {
			return nil, fmt.Errorf("loadgen: Addr is required for the binary protocol")
		}
	default:
		return nil, fmt.Errorf("loadgen: unknown protocol %q", cfg.Protocol)
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("loadgen: Clients must be positive")
	}
	if cfg.Video == nil || len(cfg.Traces) == 0 {
		return nil, fmt.Errorf("loadgen: Video and Traces are required")
	}
	// A transport sized for Clients concurrent loopback connections.
	tr := &http.Transport{
		MaxIdleConns:        cfg.Clients + 16,
		MaxIdleConnsPerHost: cfg.Clients + 16,
		IdleConnTimeout:     30 * time.Second,
	}
	// A connection the transport dialed but never sent a request on
	// holds the server's http.Server.Shutdown for 5 s; close them all
	// once the run is over.
	defer tr.CloseIdleConnections()
	httpClient := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	schemes := cfg.Schemes
	if len(schemes) == 0 {
		schemes = []string{"ND"}
	}

	// Binary transport: sessions share multiplexed connections in
	// groups of sessionsPerConn; group i/k rides mux[i/k] on slot i%k.
	var muxes []*binMux
	perConn := 0
	if cfg.Protocol == ProtocolBinary {
		perConn = min(sessionsPerConn, cfg.Clients)
		muxes = make([]*binMux, (cfg.Clients+perConn-1)/perConn)
		for i := range muxes {
			slots := perConn
			if rem := cfg.Clients - i*perConn; rem < slots {
				slots = rem
			}
			muxes[i] = newBinMux(&cfg, slots)
		}
	}

	res := &Result{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	var created, rejected atomic.Int64
	start := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := &client{
				cfg:    &cfg,
				http:   httpClient,
				scheme: schemes[i%len(schemes)],
				rng:    stats.NewRNG(cfg.Seed ^ (uint64(i)*0x9E3779B97F4A7C15 + 1)),
			}
			if muxes != nil {
				c.mux = muxes[i/perConn]
				c.slot = uint32(i % perConn)
			}
			if cfg.ClientDelay != nil {
				c.delay = cfg.ClientDelay(i)
			}
			if cfg.Adversary != nil {
				if f := cfg.Adversary(i); f > 0 && f != 1 {
					c.drift = f
					c.driftAcc = 1
				}
			}
			envCfg := abr.DefaultEnvConfig(cfg.Video, cfg.Traces)
			env, err := abr.NewEnv(envCfg)
			if err != nil {
				mu.Lock()
				res.StepsDropped++
				mu.Unlock()
				return
			}
			c.env = env
			c.obs = env.Reset(c.rng)

			status, err := c.create(ctx)
			if err != nil {
				if status == http.StatusTooManyRequests {
					rejected.Add(1)
				} else if !isDrainSignal(status, err) && ctx.Err() == nil {
					mu.Lock()
					res.StepsDropped++ // count a failed create as a drop
					mu.Unlock()
				}
				return
			}
			created.Add(1)
			if cfg.ExpectDemoted != nil {
				c.sessIdx, c.sessIdxOK = sessionIndex(c.sessionID)
				if !c.sessIdxOK {
					c.mismatches++ // oracle unusable: surface it, don't skip silently
				}
			}
			abort := 0
			if cfg.AbortStep != nil {
				abort = cfg.AbortStep(i)
			}
			for n := 0; cfg.StepsPerClient == 0 || n < cfg.StepsPerClient; n++ {
				if abort > 0 && n >= abort {
					break // abandon the session, never DELETE it
				}
				if ctx.Err() != nil {
					break
				}
				if !c.step(ctx) {
					break
				}
			}
			mu.Lock()
			res.StepsOK += c.stepsOK
			res.StepsDrained += c.drained
			res.StepsDropped += c.dropped
			res.Fallbacks += c.fallbacks
			res.Retries += c.retries
			res.StepsDemoted += c.demotedSteps
			res.DemotionViolations += c.violations
			res.Recoveries += c.recoveries
			res.Redemotions += c.redemotions
			res.FlagMismatches += c.mismatches
			res.StepsLearned += c.learned
			if c.drift != 0 {
				res.AdversarySteps += c.stepsOK
				res.AdversaryLearned += c.learned
			}
			if c.everDemoted {
				res.SessionsDemoted++
			}
			if c.demoted {
				res.SessionsEndDemoted++
			}
			if c.version != "" {
				if res.VersionCounts == nil {
					res.VersionCounts = make(map[string]int64)
				}
				res.VersionCounts[c.version]++
			}
			if cfg.ScoreSink != nil && len(c.scores) > 0 {
				cfg.ScoreSink(c.version, c.scores)
			}
			res.latencies = append(res.latencies, c.latencies...)
			mu.Unlock()
		}(i)
	}
	wg.Wait()
	for _, m := range muxes {
		m.close()
	}
	res.Elapsed = time.Since(start)
	res.SessionsCreated = created.Load()
	res.SessionsRejected = rejected.Load()
	sort.Slice(res.latencies, func(a, b int) bool { return res.latencies[a] < res.latencies[b] })
	return res, nil
}

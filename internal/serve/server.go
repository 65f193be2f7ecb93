package serve

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/learn"
)

// Config sizes a Server.
type Config struct {
	// MaxSessions caps live sessions (≤ 0 = unlimited). Past the cap,
	// session creation returns 429 with a Retry-After hint.
	MaxSessions int
	// SessionTTL evicts sessions idle longer than this (0 → 5 min). The
	// background sweeper runs every TTL/4, at most every 30s.
	SessionTTL time.Duration
	// Now injects a clock for tests (nil → time.Now).
	Now func() time.Time
	// WrapGuard, if set, is called with each newly built guard and the
	// session's 0-based creation index before the session goes live.
	// This is the fault-injection seam used by internal/chaos; in
	// production wiring it is nil and costs one pointer check per
	// session creation (nothing per step). What it installs runs inside
	// Guard.Decide under the session's shard lock, like the rest of the
	// guard.
	WrapGuard func(idx uint64, g *core.Guard)
	// RequestFault, if set, runs before each request the server serves
	// — a binary-protocol frame or an HTTP request, whichever way it
	// arrived — and may inject a transient rejection (503 + Retry-After,
	// or an Error frame, that the client retries, never a drain) and/or
	// a stall. It is the fault-injection seam of internal/chaos; nil in
	// production wiring, it costs one pointer check per request.
	RequestFault func() (reject bool, delay time.Duration)
	// Version labels the artifact set the server booted with; it
	// becomes the base generation's version on /metrics and /dashboard
	// ("" → "unversioned").
	Version string
	// Checksum is the boot artifact set's envelope SHA-256 (optional;
	// exported as the osap_build_info artifact_sha256 label).
	Checksum string
	// Rollout tunes the canary controller; the zero value selects the
	// documented defaults.
	Rollout RolloutConfig
	// LoadVersion, if set, loads a named artifact version for staging
	// (the registry binding: typically registry.Registry.Load wrapped
	// by cmd/osap-serve). Nil disables POST /admin/rollout staging —
	// the fixed-artifact deployment mode.
	LoadVersion func(version string) (arts *experiments.Artifacts, checksum string, err error)
	// ListVersions, if set, lists stageable registry versions for the
	// dashboard (best-effort; nil omits the field).
	ListVersions func() []string
	// ListProposed, if set, lists unpromoted online-learning proposals
	// for the dashboard (best-effort; nil omits the field). Proposed
	// versions are stageable like any other — the point of surfacing
	// them separately is that nothing ever serves them automatically.
	ListProposed func() []string
	// Learner, if set, enables gated selective online learning
	// (DESIGN.md §14): every session gets a private trust gate judging
	// clean steps against the frozen boot baseline, and admitted
	// feature vectors flow to the learner's experience window. Nil
	// disables learning — zero cost on the step path beyond one
	// pointer check.
	Learner *learn.Learner
}

// retryAfterSecs is the Retry-After hint on 429/503, in seconds.
const retryAfterSecs = "1"

func (c Config) withDefaults() Config {
	if c.SessionTTL == 0 {
		c.SessionTTL = 5 * time.Minute
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// validate refuses the settings withDefaults would keep and the server
// would then misuse: a negative TTL evicts fresh sessions, a NaN canary
// fraction routes every new session to the candidate, and a NaN margin
// never rolls a candidate back. 0 keeps meaning "the default".
func (c Config) validate() error {
	if c.SessionTTL < 0 {
		return fmt.Errorf("serve: SessionTTL %v < 0", c.SessionTTL)
	}
	if err := checkFraction("Rollout.CanaryFraction", c.Rollout.CanaryFraction); err != nil {
		return err
	}
	if m := c.Rollout.RollbackMargin; !(m >= 0 && m <= math.MaxFloat64) {
		return fmt.Errorf("serve: Rollout.RollbackMargin %v is not a finite value ≥ 0", m)
	}
	return nil
}

// Server is the multi-session guard server: an http.Handler hosting
// the JSON API plus /healthz and /metrics, a session table with TTL
// eviction, and a drain protocol for graceful shutdown.
//
//	POST   /v1/sessions            {"scheme":"ND"}        → 201 session
//	GET    /v1/sessions/{id}       session snapshot
//	POST   /v1/sessions/{id}/step  {"obs":[…]}            → decision
//	POST   /v1/sessions/{id}/reset new episode, same session
//	DELETE /v1/sessions/{id}       → 204
//	GET    /healthz                liveness + drain state
//	GET    /metrics                Prometheus text format
type Server struct {
	cfg     Config
	factory *GuardFactory // the boot generation's factory (interface contract)
	table   *Table
	metrics *Metrics
	mux     *http.ServeMux
	rollout *Rollout // versioned generations + canary router

	draining atomic.Bool
	// opGate is the door's lock (Server.enter): every operation in
	// flight through it — step, open, reset, a rollout transition, a
	// learn refit — holds its read side; Drain takes the write side as a
	// barrier after raising the draining flag, so "all pre-drain
	// operations have finished" is a plain Lock/Unlock — unlike a
	// WaitGroup, concurrent begin-op/barrier is well-defined.
	opGate sync.RWMutex

	// conns tracks the live connections the server reads itself, so
	// that a handler blocked in a read is ended at shutdown: binary ones
	// (ServeBinary, nil), which Drain ends, and HTTP ones taken over
	// from an http.Server (ServeHTTP, that server), which its Shutdown
	// ends. fronts holds those http.Servers, true once their Shutdown
	// has begun.
	connMu sync.Mutex
	conns  map[net.Conn]*http.Server
	fronts map[*http.Server]bool

	sweepOnce sync.Once
	sweepStop chan struct{}
	sweepDone chan struct{}

	idCtr  atomic.Uint64
	idSalt uint64

	// epoch carries a monotonic reading: time.Since(epoch) is one read
	// of the monotonic clock, where time.Now reads the wall clock too.
	// Server.step takes its stamps this way.
	epoch time.Time
}

// NewServer builds a server around a guard factory.
func NewServer(f *GuardFactory, cfg Config) (*Server, error) {
	if f == nil {
		return nil, fmt.Errorf("serve: NewServer requires a GuardFactory")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:       cfg,
		factory:   f,
		table:     NewTable(cfg.MaxSessions),
		metrics:   NewMetrics(),
		mux:       http.NewServeMux(),
		conns:     make(map[net.Conn]*http.Server),
		fronts:    make(map[*http.Server]bool),
		sweepStop: make(chan struct{}),
		sweepDone: make(chan struct{}),
		idSalt:    rand.Uint64() | 1,
		epoch:     time.Now(),
	}
	version := cfg.Version
	if version == "" {
		version = "unversioned"
	}
	s.rollout = newRollout(newGeneration(version, cfg.Checksum, f), cfg.Rollout)
	s.mux.HandleFunc("POST /v1/sessions", s.timed("create", s.handleCreate))
	s.mux.HandleFunc("GET /v1/sessions/{id}", s.timed("info", s.handleInfo))
	s.mux.HandleFunc("POST /v1/sessions/{id}/step", s.handleStep) // timed per generation by Server.step
	s.mux.HandleFunc("POST /v1/sessions/{id}/reset", s.timed("reset", s.handleReset))
	s.mux.HandleFunc("DELETE /v1/sessions/{id}", s.timed("delete", s.handleDelete))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /dashboard", s.handleDashboard)
	s.mux.HandleFunc("POST /admin/rollout", s.timed("rollout", s.handleRollout))
	s.mux.HandleFunc("POST /admin/learn", s.timed("learn", s.handleLearn))
	return s, nil
}

// Metrics exposes the server's metrics registry (for tests and the
// final drain snapshot).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Sessions returns the live-session count.
func (s *Server) Sessions() int { return s.table.Len() }

// StartSweeper launches the background idle-eviction loop. Safe to
// call once; Drain stops it.
func (s *Server) StartSweeper() {
	s.sweepOnce.Do(func() {
		go func() {
			defer close(s.sweepDone)
			every := min(max(s.cfg.SessionTTL/4, time.Millisecond), 30*time.Second)
			tick := time.NewTicker(every)
			defer tick.Stop()
			for {
				select {
				case <-s.sweepStop:
					return
				case <-tick.C:
					n := s.table.Sweep(s.cfg.Now().Add(-s.cfg.SessionTTL))
					s.metrics.SessionsEvicted.Add(uint64(n))
				}
			}
		}()
	})
}

// ServeHTTP implements http.Handler: the injected-fault seam
// (Config.RequestFault), then the routes. When the Server is an
// http.Server's own Handler, a step request on an HTTP/1.1 keep-alive
// connection takes the connection over: the server answers it and the
// steps after it itself, on this goroutine, with the binary
// transport's raw socket calls, and hands the connection back to the
// http.Server at the first request that is not a step (httpconn.go).
// http.Server's timeouts do not reach a connection while it is owned;
// its Shutdown still ends it. A Server wrapped in another handler (a
// middleware) leaves every connection to net/http, so the wrapper sees
// every request; so does a request whose ResponseWriter cannot be
// hijacked (httptest.ResponseRecorder) or that closes its connection
// anyway.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if s.cfg.RequestFault != nil && s.fault() {
		s.refuse(w, statusOverload, "")
		return
	}
	s.mux.ServeHTTP(w, r)
}

// fault runs Config.RequestFault before a request is served: it stalls
// the request by the delay injected and reports whether the request is
// rejected (statusOverload).
func (s *Server) fault() bool {
	reject, delay := s.cfg.RequestFault()
	if reject {
		return true
	}
	if delay > 0 {
		time.Sleep(delay)
	}
	return false
}

// timed wraps a handler with the per-endpoint latency histogram.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	hist := s.metrics.Latency(endpoint)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		hist.Observe(time.Since(start).Seconds())
	}
}

// Drain performs graceful shutdown of the session layer: stop the
// sweeper, refuse new sessions and new steps (503 + Retry-After), wait
// for in-flight steps to finish (bounded by ctx), close every session,
// and flush a final metrics snapshot to w (pass nil to skip).
//
// Callers running the server inside an http.Server should call
// http.Server.Shutdown after Drain so the listener closes once the
// application layer has quiesced. Drain ends the binary connections;
// the HTTP connections the server took over (ServeHTTP) stay open, as
// net/http's own keep-alive connections do until Shutdown: their next
// request is answered 503 + Retry-After + Connection: close, and an
// idle one ends when Shutdown begins.
func (s *Server) Drain(ctx context.Context, w io.Writer) error {
	if !s.draining.CompareAndSwap(false, true) {
		return errors.New("serve: already draining")
	}
	// Stop the sweeper (if it ever started).
	s.sweepOnce.Do(func() { close(s.sweepDone) })
	close(s.sweepStop)
	<-s.sweepDone

	// Wait for in-flight handlers, respecting the caller's deadline.
	// The barrier goroutine may outlive a deadline expiry; it releases
	// the write lock as soon as the stragglers finish.
	done := make(chan struct{})
	go func() {
		s.opGate.Lock()
		s.opGate.Unlock() //nolint:staticcheck // barrier, not critical section
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("serve: drain: %w", ctx.Err())
	}

	// Force-close binary connections: every pre-drain step has been
	// answered, and a handler parked in a frame read has no further
	// traffic coming (the client sees EOF, its drain signal).
	s.closeConns(nil)

	drained := s.table.Clear()
	s.metrics.SessionsDrained.Add(uint64(drained))
	if w != nil {
		fmt.Fprintf(w, "# osap-serve final metrics snapshot (drained %d sessions)\n", drained)
		if werr := s.writeProm(w); err == nil {
			err = werr
		}
	}
	return err
}

// ---- request/response bodies ----

type createRequest struct {
	Scheme string `json:"scheme"`
}

type createResponse struct {
	ID         string `json:"id"`
	Scheme     string `json:"scheme"`
	Dataset    string `json:"dataset"`
	ObsDim     int    `json:"obs_dim"`
	NumActions int    `json:"num_actions"`
	// Version is the artifact version this session bound at admission
	// (pinned for the session's lifetime).
	Version string `json:"version"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client went away
}

func (s *Server) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// ---- the door and the operation layer ----

// refused is the door's lock-free check: it reports and counts a drain.
// The codecs make it before they read a body or look a session up;
// enter makes it again under opGate.
//
//osap:hotpath
func (s *Server) refused() bool {
	if !s.draining.Load() {
		return false
	}
	s.metrics.DrainRejected.Add(1)
	return true
}

// enter is the one door of every operation Drain waits for: step, open,
// reset, and the rollout and learn admin actions. On true the caller
// holds opGate's read side and releases it once the operation, counters
// included, is done — never across socket I/O, so a stalled client
// cannot hold Drain's barrier, and a drain past its barrier has seen
// every operation it let through.
//
//osap:hotpath
func (s *Server) enter() bool {
	s.opGate.RLock()
	if s.refused() {
		s.opGate.RUnlock()
		return false
	}
	return true
}

// status is how an operation ended: the operations return the first
// six, the HTTP step codec adds its own, the fault seam one more, and
// each codec maps the one type to its wire in one table (Server.refuse,
// binConn.refuse).
type status uint8

const (
	statusOK        status = iota
	statusDraining         // the door refused: 503 + Retry-After / GoAway
	statusGone             // the session was closed under the operation: 410 / CodeGone
	statusUnknown          // no such session: 404 / "no session on this channel"
	statusFull             // the session table is full: 429 + Retry-After / CodeTooMany
	statusInvalid          // the request names what cannot be served (a bad scheme): 400 / CodeBadRequest
	statusBadSyntax        // the step body is not JSON: 400
	statusBadType          // the step body is JSON but not {"obs":[numbers]}: 400
	statusBadDim           // obs has the wrong length: 400
	statusOverload         // an injected fault (Config.RequestFault): 503 + Retry-After / a retryable Error
)

// open admits a new session on scheme ("" → ND) through the door. why
// is what was invalid when the status is statusInvalid.
func (s *Server) open(scheme string) (sess *Session, st status, why string) {
	if !s.enter() {
		return nil, statusDraining, ""
	}
	defer s.opGate.RUnlock()
	sess, err := s.createSession(cmp.Or(scheme, SchemeND))
	switch {
	case errors.Is(err, ErrTableFull):
		s.metrics.SessionsRejected.Add(1)
		return nil, statusFull, ""
	case err != nil:
		return nil, statusInvalid, err.Error()
	}
	return sess, statusOK, ""
}

// createSession builds, wraps and publishes one session — the body of
// open. The session binds an artifact generation and one of its shards
// here, at admission, and keeps both for life: its guard is built on
// the shard's scratch from the generation's record, under the
// probation pair the session follows too, its lock is the shard's, and
// the canary router only ever shifts NEW sessions. A returned
// ErrTableFull means admission control refused the session; any other
// error is a bad scheme.
func (s *Server) createSession(scheme string) (*Session, error) {
	idx := s.idCtr.Add(1)
	gen := s.rollout.pick(idx - 1)
	sh := gen.assignShard()
	f := gen.factory
	guard, err := experiments.NewGuard(&f.cal, scheme, sh.scratch, f.probation)
	if err != nil {
		return nil, err
	}
	if s.cfg.WrapGuard != nil {
		s.cfg.WrapGuard(idx-1, guard)
	}
	sess := &Session{
		id:         fmt.Sprintf("%x-%x", s.idSalt, idx),
		scheme:     scheme,
		mu:         &sh.mu,
		guard:      guard,
		shard:      sh,
		readmitL:   f.probation.ReadmitL,
		readmitCap: f.probation.ReadmitCap,
		gen:        gen,
		sigIdx:     driftSignalIndex(scheme),
	}
	sess.lastUsed.Store(s.cfg.Now().UnixNano())
	if l := s.cfg.Learner; l != nil {
		gate, err := l.NewGate(idx - 1)
		if err != nil {
			return nil, err
		}
		sess.gate = gate
	}
	if err := s.table.Put(sess); err != nil {
		return nil, err
	}
	gen.stats.Sessions.Add(1)
	return sess, nil
}

// reset starts a new episode on sess through the door.
func (s *Server) reset(sess *Session) status {
	if !s.enter() {
		return statusDraining
	}
	defer s.opGate.RUnlock()
	if sess.Reset(s.cfg.Now()) != nil {
		return statusGone
	}
	return statusOK
}

// close deletes session id. It does not go through the door: a close
// while draining does what Drain is about to do anyway.
func (s *Server) close(id string) status {
	if _, ok := s.table.Delete(id); !ok {
		return statusUnknown
	}
	s.metrics.SessionsDeleted.Add(1)
	return statusOK
}

// step serves one validated observation on sess: everything a step is
// but its wire format. Inside the door it takes one lock, the session's
// (its shard's), under which the session steps and a live score joins
// the shard's drift sketch. Only a served step is timed and counted:
// the wait for the lock and the decision apart, and the whole on the
// generation, whose sum is the step endpoint's (Server.view).
//
// The three stamps are monotonic-only (Server.epoch); the step's
// latency is the first to the last. cfg.Now stays the session's
// idle clock, the seam the TTL tests turn.
//
//osap:hotpath
func (s *Server) step(sess *Session, obs []float64) (StepResult, status) {
	start := time.Since(s.epoch)
	if !s.enter() {
		return StepResult{}, statusDraining
	}
	defer s.opGate.RUnlock()
	sh := sess.shard
	sh.mu.Lock() // sess.mu is &sh.mu
	held := time.Since(s.epoch)
	res, err := sess.stepLocked(obs, s.cfg.Now()) //osap:hotpath-stop clock seam: production Now is time.Now, non-allocating
	if err != nil {
		sh.mu.Unlock()
		return StepResult{}, statusGone
	}
	decided := time.Since(s.epoch)
	if !res.Demoted() {
		// Degraded steps carry a synthetic zero score; the sketches
		// track the live guard signal.
		sh.drift[sess.sigIdx].Add(res.Decision.Score)
	}
	sh.mu.Unlock()
	m := s.metrics
	m.QueueLatency.Observe((held - start).Seconds())
	m.DecisionLatency.Observe((decided - held).Seconds())
	m.BatchSize.Observe(1)
	s.recordStep(sess, res)
	sess.gen.stats.Latency.Observe((decided - start).Seconds())
	return res, statusOK
}

// recordStep counts one step outcome once, on the session's generation
// (the fleet totals are sums over generations, taken at read time), and
// gives the canary controller a periodic pass.
//
//osap:hotpath
func (s *Server) recordStep(sess *Session, res StepResult) {
	// Metrics.Decisions is the generations' sum counted a second time,
	// only because the benchmark reads it from the registry.
	s.metrics.Decisions.Add(1)
	gen := sess.gen
	st := gen.stats
	d := st.Decisions.Add(1)
	if res.Decision.UsedDefault {
		st.Fallbacks.Add(1)
	}
	if res.FirstFiring {
		st.TriggerFirings.Add(1)
	}
	if res.Demotion() {
		st.Demotions.Add(1)
		if res.FirstDemotion {
			st.FirstDemotions.Add(1)
		} else {
			st.Redemoted.Add(1)
		}
		if !res.Panicked {
			st.NonFinite.Add(1)
		}
	}
	if res.Panicked {
		st.Panics.Add(1)
	}
	if res.Latched() {
		st.Latched.Add(1)
	}
	if res.Recovered() {
		st.Recovered.Add(1)
	}
	if res.Demoted() {
		st.Degraded.Add(1)
	}
	if l := s.cfg.Learner; l != nil && (res.From != modeLive || res.To != modeLive) {
		// The gate judges clean live steps only. Demoted, probation and
		// recovery steps are tallied here, which keeps the conservation
		// law exact: decisions_total == gate_checked + rejected_demoted.
		l.Counters().RejectedDemoted.Add(1)
	}
	if d&63 == 0 && s.rollout.candidate.Load() == gen {
		s.rollout.evaluate(s.cfg.Now()) //osap:hotpath-stop rollout evaluation is amortized to every 64th decision and may transition rollout state; deliberately off the steady-state step path
	}
}

// ---- the HTTP codec ----

// refusal is the one status table every HTTP handler shares, and the
// owned connection's too: the code and message of the reply to an
// operation the HTTP codec did not serve. detail completes the message
// of a status that carries one: the reason for statusInvalid, the obs
// count for statusBadDim. A refused step body is counted here.
func (s *Server) refusal(st status, detail string) (code int, msg string) {
	code, msg = http.StatusBadRequest, detail
	switch st {
	case statusDraining:
		code, msg = http.StatusServiceUnavailable, "server is draining"
	case statusGone:
		code, msg = http.StatusGone, ErrSessionClosed.Error()
	case statusUnknown:
		code, msg = http.StatusNotFound, "unknown session"
	case statusFull:
		code, msg = http.StatusTooManyRequests, "session table full"
	case statusOverload:
		code, msg = http.StatusServiceUnavailable, "injected overload"
	case statusBadSyntax:
		s.metrics.HTTPStepRejects[rejectSyntax].Add(1)
		msg = "decode request: body is not a JSON value"
	case statusBadType:
		s.metrics.HTTPStepRejects[rejectType].Add(1)
		msg = `decode request: body is not {"obs":[numbers]}`
	case statusBadDim:
		s.metrics.HTTPStepRejects[rejectDim].Add(1)
		msg = fmt.Sprintf("obs has %s values, want %d", detail, s.factory.ObsDim())
	}
	return code, msg
}

// retryable reports whether a refusal's reply carries Retry-After.
func retryable(code int) bool {
	return code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests
}

// refuse writes the reply of Server.refusal's table.
func (s *Server) refuse(w http.ResponseWriter, st status, detail string) {
	code, msg := s.refusal(st, detail)
	if retryable(code) {
		w.Header().Set("Retry-After", retryAfterSecs)
	}
	writeJSON(w, code, errorResponse{Error: msg})
}

// session resolves a request's {id} after the door's lock-free check,
// so that a draining server answers 503 where it would answer 404.
//
//osap:hotpath
func (s *Server) session(r *http.Request) (*Session, status) {
	if s.refused() {
		return nil, statusDraining
	}
	sess, ok := s.table.Get(r.PathValue("id"))
	if !ok {
		return nil, statusUnknown
	}
	return sess, statusOK
}

// sessionBytes is session for an {id} still in a connection's read
// buffer (httpConn.step).
//
//osap:hotpath
func (s *Server) sessionBytes(id []byte) (*Session, status) {
	if s.refused() {
		return nil, statusDraining
	}
	sess, ok := s.table.getBytes(id)
	if !ok {
		return nil, statusUnknown
	}
	return sess, statusOK
}

// handleCreate reads its body outside the door, like handleStep: a
// client that stalls mid-body holds nothing Drain waits for. The door's
// lock-free check up front answers 503 without reading the body at all.
func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.refused() {
		s.refuse(w, statusDraining, "")
		return
	}
	var req createRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil && err != io.EOF {
		s.refuse(w, statusInvalid, "decode request: "+err.Error())
		return
	}
	sess, st, why := s.open(req.Scheme)
	if st != statusOK {
		s.refuse(w, st, why)
		return
	}
	writeJSON(w, http.StatusCreated, createResponse{
		ID:         sess.ID(),
		Scheme:     sess.Scheme(),
		Dataset:    s.factory.Dataset(),
		ObsDim:     s.factory.ObsDim(),
		NumActions: s.factory.NumActions(),
		Version:    sess.gen.Version(),
	})
}

// handleStep is the HTTP step codec: JSON in, Server.step, JSON out, on
// pooled scratch (stepcodec.go). A step that can take its connection
// over does (Server.front, Server.takeOver).
//
//osap:hotpath
func (s *Server) handleStep(w http.ResponseWriter, r *http.Request) {
	sess, st := s.session(r)
	if st != statusOK {
		s.refuse(w, st, "") //osap:hotpath-stop refusals are failure paths, not per-step traffic
		return
	}
	if front := s.front(w, r); front != nil {
		s.takeOver(w, r, sess, front) //osap:hotpath-stop once per connection: the step that takes it over
		return
	}
	s.stepReply(w, r, sess)
}

// stepReply serves one step request on sess through net/http and
// writes its reply, or its refusal. The session was resolved, and a
// drain refused, before the body is read; Server.step checks for a
// drain again inside the door.
//
//osap:hotpath
func (s *Server) stepReply(w http.ResponseWriter, r *http.Request, sess *Session) {
	sc := stepScratchPool.Get().(*stepScratch)
	sc.readBody(r.Body)
	if st := s.stepJSON(sess, sc.body, sc); st != statusOK {
		s.refuse(w, st, strconv.Itoa(sc.dec.n)) //osap:hotpath-stop refusals are failure paths, not per-step traffic
	} else {
		writeStepReply(w, sc.out) //osap:hotpath-stop the ResponseWriter is net/http's; TestHTTPStepZeroAlloc holds the handler's side
	}
	sc.release()
}

// stepJSON is the HTTP step codec after the session is found, whichever
// way the request came: decode body, Server.step, encode the reply into
// sc.out.
//
//osap:hotpath
func (s *Server) stepJSON(sess *Session, body []byte, sc *stepScratch) status {
	s.metrics.HTTPStepBodyBytes.Add(uint64(len(body)))
	if st := sc.dec.decode(body); st != statusOK {
		return st
	}
	obs := sc.dec.obs[:sc.dec.n]
	if len(obs) != s.factory.ObsDim() {
		return statusBadDim
	}
	res, st := s.step(sess, obs)
	if st != statusOK {
		return st
	}
	sc.encode(&res)
	return statusOK
}

var jsonContentType = []string{"application/json"}

// writeStepReply hands an encoded 200 to net/http: the header value is
// a shared slice (Header.Set would allocate one per reply) and the body
// is one Write.
func writeStepReply(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.Write(body) //nolint:errcheck // client went away
}

// handleReset resolves its session outside the door, like handleStep;
// Server.reset checks for a drain again inside it.
func (s *Server) handleReset(w http.ResponseWriter, r *http.Request) {
	sess, st := s.session(r)
	if st == statusOK {
		st = s.reset(sess)
	}
	if st != statusOK {
		s.refuse(w, st, "")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.table.Get(r.PathValue("id"))
	if !ok {
		s.refuse(w, statusUnknown, "")
		return
	}
	writeJSON(w, http.StatusOK, sess.Snapshot(s.cfg.Now()))
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	if st := s.close(r.PathValue("id")); st != statusOK {
		s.refuse(w, st, "")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	v := s.view()
	status := "ok"
	code := http.StatusOK
	if v.demoted > 0 {
		// Degraded is still HTTP 200: demoted sessions serve safe
		// decisions, the fleet is impaired but not unavailable.
		status = "degraded"
	}
	if s.draining.Load() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	doc := map[string]any{
		"status":         status,
		"dataset":        s.factory.Dataset(),
		"schemes":        s.factory.Schemes(),
		"live_sessions":  v.live,
		"demoted_live":   v.demoted,
		"probation_live": v.probation,
		"active_version": v.active.version,
		"candidate":      v.candidate,
	}
	for i, c := range counters {
		doc[c.key] = v.total[i]
	}
	if l := s.cfg.Learner; l != nil {
		doc["learn"] = l.Snapshot()
	}
	writeJSON(w, code, doc)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeProm(w) //nolint:errcheck // client went away
}

package loadgen

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"osap/internal/serve/proto"
)

// Protocol values for Config.Protocol.
const (
	ProtocolHTTP   = "http"
	ProtocolBinary = "binary"
)

// sessionsPerConn is how many synthetic viewers share one multiplexed
// binary connection. 512 keeps a 1000-client fleet on two connections
// — wide enough that nearly every step and decision frame rides a
// shared syscall, which is where the binary transport's throughput
// headroom comes from.
const sessionsPerConn = 512

var errDraining = errors.New("loadgen: server draining")

// muxReq is one session's outbound frame, queued to the mux writer.
type muxReq struct {
	typ    proto.Type // Open or Step
	cid    uint32
	seq    uint32
	obs    []float64 // owned by the session until its reply arrives
	scheme string
}

// muxReply is one decoded server frame routed back to a session.
type muxReply struct {
	typ  proto.Type // Decision, Error, OK, or Opened
	dec  proto.Decision
	code uint16
	msg  string
	id   string
}

// binMux is one shared binary connection carrying many sessions. A
// writer goroutine coalesces queued frames into shared flushes; a
// reader goroutine routes replies to slot-indexed channels. Sessions
// have at most one outstanding request each, so every reply channel is
// buffered one deep and the reader never blocks on a slot.
//
// Only the reader (or the run's cancellation) ends the mux. A writer
// that fails stops writing and half-closes, and the reader goes on to
// deliver every reply the server had already sent before it reports
// the connection dead: closing the socket from the write side would
// throw those away.
type binMux struct {
	cfg     *Config
	once    sync.Once
	dialErr error

	nc      net.Conn
	pc      *proto.Conn
	out     chan muxReq
	replies []chan muxReply

	writeErr  error // written before writeDone closes; read after observing it
	writeDone chan struct{}

	failOnce sync.Once
	deadErr  error // written before dead closes; read after observing it
	dead     chan struct{}
}

func newBinMux(cfg *Config, slots int) *binMux {
	m := &binMux{
		cfg:       cfg,
		out:       make(chan muxReq, slots),
		replies:   make([]chan muxReply, slots),
		writeDone: make(chan struct{}),
		dead:      make(chan struct{}),
	}
	for i := range m.replies {
		m.replies[i] = make(chan muxReply, 1)
	}
	return m
}

// fail marks the connection dead exactly once and unblocks everyone.
func (m *binMux) fail(err error) {
	m.failOnce.Do(func() {
		m.deadErr = err
		close(m.dead)
		if m.nc != nil {
			m.nc.Close() //nolint:errcheck
		}
	})
}

func (m *binMux) close() { m.fail(net.ErrClosed) }

// ensureDial dials and handshakes the shared connection on first use;
// every session in the group shares the outcome.
func (m *binMux) ensureDial(ctx context.Context) error {
	m.once.Do(func() { m.dialErr = m.dial(ctx) })
	return m.dialErr
}

func (m *binMux) dial(ctx context.Context) error {
	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", m.cfg.Addr)
	if err != nil {
		return err
	}
	pc := proto.NewConn(nc)
	if err := pc.WriteHello(); err != nil {
		nc.Close() //nolint:errcheck
		return err
	}
	typ, payload, err := pc.ReadFrame()
	if err != nil {
		nc.Close() //nolint:errcheck
		return err
	}
	switch typ {
	case proto.TypeWelcome:
		if _, err := proto.DecodeWelcome(payload); err != nil {
			nc.Close() //nolint:errcheck
			return err
		}
	case proto.TypeGoAway:
		nc.Close() //nolint:errcheck
		return errDraining
	default:
		nc.Close() //nolint:errcheck
		return fmt.Errorf("loadgen: handshake frame type %d", typ)
	}
	pc.ManualFlush()
	m.nc, m.pc = nc, pc
	go m.writer()
	go m.reader()
	// A canceled run must unblock sessions parked in the mux.
	context.AfterFunc(ctx, func() { m.fail(ctx.Err()) }) //nolint:errcheck
	return nil
}

// writer encodes queued requests, flushing when the queue goes idle —
// the steps of many sessions leave in one syscall.
func (m *binMux) writer() {
	for {
		var req muxReq
		select {
		case <-m.dead:
			return
		case req = <-m.out:
		}
		if !m.writeReq(req) {
			return
		}
		for more := true; more; {
			select {
			case req = <-m.out:
				if !m.writeReq(req) {
					return
				}
			default:
				more = false
			}
		}
		if err := m.pc.Flush(); err != nil {
			m.writeFailed(err)
			return
		}
	}
}

// writeFailed ends the writer and leaves the connection to the reader:
// it records why, and half-closes, so that the server reads the end of
// the stream, flushes what it owes and closes — which is what ends the
// reader, after the last reply.
func (m *binMux) writeFailed(err error) {
	tc, ok := m.nc.(*net.TCPConn)
	if !ok {
		m.fail(err)
		return
	}
	m.writeErr = err
	close(m.writeDone)
	tc.CloseWrite() //nolint:errcheck // a reset connection is shut already
}

func (m *binMux) writeReq(req muxReq) bool {
	var err error
	switch req.typ {
	case proto.TypeOpen:
		err = m.pc.WriteOpen(req.cid, req.scheme)
	case proto.TypeStep:
		err = m.pc.WriteStep(req.cid, req.seq, req.obs)
	}
	if err != nil {
		m.writeFailed(err)
		return false
	}
	return true
}

// reader decodes server frames and routes session-scoped replies to
// their slot. GoAway, connection-scoped errors and the end of the
// stream kill the mux; every parked session observes the death through
// the dead channel.
func (m *binMux) reader() {
	for {
		typ, payload, err := m.pc.ReadFrame()
		if err != nil {
			select {
			case <-m.writeDone:
				err = m.writeErr // the stream ended because the writer gave up
			default:
			}
			m.fail(err)
			return
		}
		switch typ {
		case proto.TypeDecision:
			d, err := proto.DecodeDecision(payload)
			if err != nil || int(d.Cid) >= len(m.replies) {
				m.fail(fmt.Errorf("loadgen: bad decision frame: %v", err))
				return
			}
			m.replies[d.Cid] <- muxReply{typ: typ, dec: d}
		case proto.TypeOpened:
			cid, id, err := proto.DecodeOpened(payload)
			if err != nil || int(cid) >= len(m.replies) {
				m.fail(fmt.Errorf("loadgen: bad opened frame: %v", err))
				return
			}
			m.replies[cid] <- muxReply{typ: typ, id: id}
		case proto.TypeError:
			cid, code, msg, err := proto.DecodeError(payload)
			if err != nil {
				m.fail(err)
				return
			}
			if cid == proto.CidConn || int(cid) >= len(m.replies) {
				m.fail(fmt.Errorf("loadgen: %s", proto.ErrorString(code, msg)))
				return
			}
			m.replies[cid] <- muxReply{typ: typ, code: code, msg: msg}
		case proto.TypeOK:
			cid, err := proto.DecodeCid(payload)
			if err != nil || int(cid) >= len(m.replies) {
				m.fail(fmt.Errorf("loadgen: bad ok frame: %v", err))
				return
			}
			m.replies[cid] <- muxReply{typ: typ}
		case proto.TypeGoAway:
			m.fail(errDraining)
			return
		case proto.TypePong:
			// keepalive; nothing to route
		default:
			m.fail(fmt.Errorf("loadgen: unexpected frame type %d", typ))
			return
		}
	}
}

// send queues one request, giving up if the mux dies first.
func (m *binMux) send(req muxReq) bool {
	select {
	case m.out <- req:
		return true
	case <-m.dead:
		return false
	}
}

// recv waits for the slot's reply or the mux's death.
func (m *binMux) recv(slot uint32) (muxReply, bool) {
	select {
	case rep := <-m.replies[slot]:
		return rep, true
	case <-m.dead:
		// A reply racing the death notice still counts.
		select {
		case rep := <-m.replies[slot]:
			return rep, true
		default:
			return muxReply{}, false
		}
	}
}

// classifyMuxDeath books a step that failed because the shared
// connection died: a drain (GoAway, canceled run, reset by shutdown)
// is expected, anything else is a drop.
func (c *client) classifyMuxDeath(ctx context.Context) {
	err := c.mux.deadErr
	if ctx.Err() != nil || errors.Is(err, errDraining) || isDrainSignal(0, err) {
		c.drained++
	} else {
		c.dropped++
	}
}

// createBinary opens this session's channel on the shared mux,
// retrying injected-overload rejections under Config.Retry — the
// binary analogue of the HTTP create path. The returned status reuses
// HTTP codes so Run's classification is transport-agnostic.
func (c *client) createBinary(ctx context.Context) (int, error) {
	if err := c.mux.ensureDial(ctx); err != nil {
		if errors.Is(err, errDraining) {
			return http.StatusServiceUnavailable, err
		}
		return 0, err
	}
	for attempt := 0; ; attempt++ {
		if c.delay > 0 {
			time.Sleep(c.delay)
		}
		if !c.mux.send(muxReq{typ: proto.TypeOpen, cid: c.slot, scheme: c.scheme}) {
			return http.StatusServiceUnavailable, errDraining
		}
		rep, ok := c.mux.recv(c.slot)
		if !ok {
			return http.StatusServiceUnavailable, errDraining
		}
		switch rep.typ {
		case proto.TypeOpened:
			c.sessionID = rep.id
			return http.StatusCreated, nil
		case proto.TypeError:
			retryable := rep.code == proto.CodeTooMany ||
				(rep.code == proto.CodeDraining && !strings.Contains(rep.msg, "draining"))
			if retryable && c.cfg.Retry && attempt < maxRetries {
				c.retries++
				time.Sleep(c.backoffDelay(attempt, 0))
				continue
			}
			return int(rep.code), fmt.Errorf("loadgen: open: %s", proto.ErrorString(rep.code, rep.msg))
		default:
			return 0, fmt.Errorf("loadgen: open: reply type %d", rep.typ)
		}
	}
}

// stepBinary sends the reported observation as one step frame through
// the mux, with backoff on injected overload, and books the reply.
func (c *client) stepBinary(ctx context.Context) bool {
	obs := c.report()
	for attempt := 0; ; attempt++ {
		if c.delay > 0 {
			time.Sleep(c.delay)
		}
		c.seq++
		start := time.Now()
		if !c.mux.send(muxReq{typ: proto.TypeStep, cid: c.slot, seq: c.seq, obs: obs}) {
			c.classifyMuxDeath(ctx)
			return false
		}
		rep, ok := c.mux.recv(c.slot)
		lat := time.Since(start)
		if !ok {
			c.classifyMuxDeath(ctx)
			return false
		}
		switch rep.typ {
		case proto.TypeDecision:
			d := rep.dec
			if d.Seq != c.seq {
				c.dropped++
				return false
			}
			c.book(stepReply{
				Action:   int(d.Action),
				Fallback: d.Flags&proto.FlagFallback != 0,
				Demoted:  d.Flags&proto.FlagDemoted != 0,
				Score:    d.Score,
			}, lat)
			return true
		case proto.TypeError:
			// Injected overload (503 without "draining") is retried just
			// like its HTTP twin; real drains and closed sessions stop
			// the client gracefully.
			if rep.code == proto.CodeDraining && !strings.Contains(rep.msg, "draining") &&
				c.cfg.Retry && attempt < maxRetries {
				c.retries++
				c.seq-- // the rejected step was never served
				time.Sleep(c.backoffDelay(attempt, 0))
				continue
			}
			if isDrainSignal(int(rep.code), nil) {
				c.drained++
			} else {
				c.dropped++
			}
			return false
		default:
			c.dropped++
			return false
		}
	}
}

package serve

import (
	"net"
	"net/http"

	"osap/internal/serve/proto"
)

// Binary front end: persistent multiplexed connections speaking
// internal/serve/proto, served run to completion. After the handshake
// one goroutine owns the connection. It reads, and for every complete
// frame its read buffer already holds it decodes the frame, runs the
// step through Server.step — the function the HTTP handler calls — and
// encodes the reply into the connection's write buffer;
// it flushes only when no complete frame is left buffered. A burst of
// frames that one read(2) brought in is answered by one write(2), and a
// step costs no goroutine switch and no channel operation.
//
// Frames are served in the order they arrive and replies leave in that
// order: a client may pipeline any number of steps on one cid, and no
// Decision follows a GoAway. A connection is served by one core at a
// time; parallelism comes from connections (DESIGN.md §7).

// ServeBinary accepts persistent binary-protocol connections (see
// internal/serve/proto) on ln and serves them until the listener
// closes. It is the hot-path alternative to the HTTP front door: many
// sessions multiplexed per connection, length-prefixed binary frames,
// zero steady-state allocation per step. Both front ends share the
// same session table, shards, metrics, and drain discipline, so they
// can run side by side in one process.
//
// Accept errors after drain has begun are a normal shutdown and return
// nil; the caller closes ln (typically right after Drain).
func (s *Server) ServeBinary(ln net.Listener) error {
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		go s.serveConn(nc)
	}
}

// trackConn registers a live owned connection for shutdown: a binary
// one (front nil) for Drain, an HTTP one for the Shutdown of front, the
// http.Server it was taken from, whose shutdown hook it registers with
// the first connection taken from it. It refuses (returns false) once
// that shutdown has begun, which closes the window where a connection
// could be accepted after the sweep and then block forever in a read.
func (s *Server) trackConn(nc net.Conn, front *http.Server) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if front == nil {
		if s.draining.Load() {
			return false
		}
	} else if shut, seen := s.fronts[front]; shut {
		return false
	} else if !seen {
		s.fronts[front] = false
		front.RegisterOnShutdown(func() { s.shutFront(front) })
	}
	s.conns[nc] = front
	return true
}

func (s *Server) untrackConn(nc net.Conn) {
	s.connMu.Lock()
	delete(s.conns, nc)
	s.connMu.Unlock()
}

// shutFront ends the connections taken over from front once its
// Shutdown has begun.
func (s *Server) shutFront(front *http.Server) {
	s.connMu.Lock()
	s.fronts[front] = true
	s.connMu.Unlock()
	s.closeConns(front)
}

// closeConns shuts down the read side of every tracked connection of
// front (nil: the binary ones). Drain calls it after the in-flight
// barrier, an http.Server's Shutdown through its hook: readers blocked
// in a read would otherwise wait forever for clients that have nothing
// more to say. Closing only the read half lets each reader answer what
// it had already received (a GoAway, a 503) and flush before it closes
// the socket fully.
func (s *Server) closeConns(front *http.Server) {
	s.connMu.Lock()
	for nc, f := range s.conns {
		if f != front {
			continue
		}
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.CloseRead() //nolint:errcheck // unblocking reads; peer may be gone
		} else {
			nc.Close() //nolint:errcheck
		}
	}
	s.connMu.Unlock()
}

// binReadFrames sizes a connection's read buffer in step frames: the
// largest burst worth answering with one write.
const binReadFrames = 32

// binConn is one connection's state. Its reader goroutine owns all of
// it, so nothing here is locked.
type binConn struct {
	s        *Server
	pc       *proto.Conn
	sessions map[uint32]*Session // by channel id
	// obs is the step decode buffer. One suffices for every session: a
	// step runs to completion before the next frame is decoded.
	obs []float64
}

// serveConn serves one connection on the calling goroutine:
// Hello/Welcome handshake, then the frame loop. Sessions outlive a
// disconnect (TTL eviction collects them later, mirroring an abandoned
// HTTP session) unless the client closes them explicitly.
func (s *Server) serveConn(nc net.Conn) {
	defer nc.Close() //nolint:errcheck // what there was to send has been flushed
	dim := s.factory.ObsDim()
	pc := proto.NewConnSize(newRawIO(nc), binReadFrames*proto.StepFrameSize(dim))
	if !s.trackConn(nc, nil) {
		pc.WriteGoAway("draining") //nolint:errcheck // best-effort farewell
		return
	}
	defer s.untrackConn(nc)

	t, payload, err := pc.ReadFrame()
	if err != nil || t != proto.TypeHello {
		return
	}
	if err := proto.DecodeHello(payload); err != nil {
		pc.WriteError(proto.CidConn, proto.CodeBadRequest, err.Error()) //nolint:errcheck
		return
	}
	if pc.WriteWelcome(proto.Welcome{
		Version:    proto.Version,
		ObsDim:     dim,
		NumActions: s.factory.NumActions(),
		Dataset:    s.factory.Dataset(),
		Schemes:    s.factory.Schemes(),
	}) != nil {
		return
	}

	pc.ManualFlush()
	c := &binConn{
		s:        s,
		pc:       pc,
		sessions: make(map[uint32]*Session),
		obs:      make([]float64, dim),
	}
	c.run()
	// Whatever exit run took, the replies it had encoded still leave.
	c.flush() //nolint:errcheck // the connection is closing either way
}

// run is the frame loop: serve every frame the read buffer holds, flush
// when it holds no complete one, read again. Replies are only appended
// to the write buffer in between — a failed write is sticky in the
// buffer and the burst's flush reports it — so ReadFrame is the one
// place the loop blocks on the peer.
//
//osap:hotpath
func (c *binConn) run() {
	m := c.s.metrics
	for {
		t, payload, err := c.pc.ReadFrame()
		if err != nil {
			return
		}
		m.BinaryFrames.Add(1)
		if c.s.cfg.RequestFault != nil && c.s.fault() { //osap:hotpath-stop fault injection seam, nil in production wiring
			c.refuse(frameCid(payload), statusOverload, "")
		} else if t == proto.TypeStep {
			c.step(payload)
		} else if !c.control(t, payload) { //osap:hotpath-stop control frames are per session or per connection, not per step
			return
		}
		if !c.pc.FrameBuffered() {
			m.BinaryReadBursts.Add(1)
			if c.flush() != nil {
				return
			}
		}
	}
}

//osap:hotpath
func (c *binConn) flush() error {
	c.s.metrics.BinaryFlushes.Add(1)
	return c.pc.Flush()
}

// frameCid is the channel a frame's refusal goes to: a step's own, so
// that only that step retries, else the connection's.
func frameCid(payload []byte) uint32 {
	if cid, ok := proto.StepCid(payload); ok {
		return cid
	}
	return proto.CidConn
}

// refuse answers a frame on cid that was not served, the binary
// codec's status table: GoAway for a drain, else an Error frame, after
// which the connection stays usable. detail is the reason for
// statusInvalid.
func (c *binConn) refuse(cid uint32, st status, detail string) {
	code := proto.CodeBadRequest
	switch st {
	case statusDraining:
		//osap:hotpath-stop refusals are failure paths, not per-step traffic
		c.pc.WriteGoAway("draining") //nolint:errcheck // sticky in the write buffer; the flush reports it
		return
	case statusGone:
		code, detail = proto.CodeGone, "session closed"
	case statusUnknown:
		detail = "no session on this channel"
	case statusFull:
		code, detail = proto.CodeTooMany, "session table full"
	case statusOverload:
		code, detail = proto.CodeDraining, "injected overload" // retryable: an Error, not a GoAway
	}
	//osap:hotpath-stop refusals are failure paths, not per-step traffic
	c.pc.WriteError(cid, code, detail) //nolint:errcheck // sticky in the write buffer; the flush reports it
}

// step is the binary step codec: Step frame in, Server.step, Decision
// frame out.
//
//osap:hotpath
func (c *binConn) step(payload []byte) {
	cid, ok := proto.StepCid(payload)
	if !ok {
		c.refuse(proto.CidConn, statusInvalid, "bad step frame")
		return
	}
	sess := c.sessions[cid]
	if sess == nil {
		c.refuse(cid, statusUnknown, "")
		return
	}
	_, seq, err := proto.DecodeStep(payload, c.obs)
	if err != nil {
		c.refuse(cid, statusInvalid, "bad step frame")
		return
	}
	res, st := c.s.step(sess, c.obs)
	if st != statusOK {
		c.refuse(cid, st, "")
		return
	}
	d := proto.Decision{
		Cid:    cid,
		Seq:    seq,
		Action: uint16(res.Action),
		Step:   uint32(res.Decision.Step),
		Score:  res.Decision.Score,
	}
	if res.Decision.UsedDefault {
		d.Flags |= proto.FlagFallback
	}
	if res.Decision.Fired {
		d.Flags |= proto.FlagFired
	}
	if res.Demoted() {
		d.Flags |= proto.FlagDemoted
	}
	c.pc.WriteDecision(d) //nolint:errcheck // sticky in the write buffer; the flush reports it
}

// control serves every frame that is not a Step. false ends the
// connection.
func (c *binConn) control(t proto.Type, payload []byte) bool {
	s := c.s
	switch t {
	case proto.TypePing:
		c.pc.WriteControl(proto.TypePong, nil) //nolint:errcheck // sticky; the flush reports it
	case proto.TypeOpen:
		return c.open(payload)
	case proto.TypeReset:
		cid, sess := c.lookup(payload, "bad reset frame")
		if sess == nil {
			break
		}
		if st := s.reset(sess); st != statusOK {
			c.refuse(cid, st, "")
			break
		}
		c.pc.WriteSessionControl(proto.TypeOK, cid) //nolint:errcheck // sticky; the flush reports it
	case proto.TypeClose:
		cid, sess := c.lookup(payload, "bad close frame")
		if sess == nil {
			break
		}
		s.close(sess.ID()) // a session evicted under its channel closes as well
		delete(c.sessions, cid)
		c.pc.WriteSessionControl(proto.TypeOK, cid) //nolint:errcheck // sticky; the flush reports it
	default:
		c.refuse(proto.CidConn, statusInvalid, "unexpected frame type")
		return false
	}
	return true
}

// lookup resolves a cid-only frame (Reset, Close) to its session,
// answering the error itself when there is none.
func (c *binConn) lookup(payload []byte, badFrame string) (uint32, *Session) {
	cid, err := proto.DecodeCid(payload)
	if err != nil {
		c.refuse(proto.CidConn, statusInvalid, badFrame)
		return 0, nil
	}
	sess := c.sessions[cid]
	if sess == nil {
		c.refuse(cid, statusUnknown, "")
	}
	return cid, sess
}

// open serves one Open frame: the binary codec of Server.open. Like
// the HTTP codec it makes the door's lock-free check before it decodes
// anything. false ends the connection (drain).
func (c *binConn) open(payload []byte) bool {
	if c.s.refused() {
		c.refuse(proto.CidConn, statusDraining, "")
		return false
	}
	cid, scheme, err := proto.DecodeOpen(payload)
	var sess *Session
	st, why := statusInvalid, "bad open frame"
	switch {
	case err != nil:
		cid = proto.CidConn
	case cid == proto.CidConn:
		why = "reserved channel id"
	case c.sessions[cid] != nil:
		why = "channel id already open"
	default:
		sess, st, why = c.s.open(scheme)
	}
	if st != statusOK {
		c.refuse(cid, st, why)
		return st != statusDraining
	}
	c.sessions[cid] = sess
	c.pc.WriteOpened(cid, sess.ID()) //nolint:errcheck // sticky; the flush reports it
	return true
}

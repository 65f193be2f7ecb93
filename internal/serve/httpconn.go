package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// The HTTP front door's own connections. net/http reads a connection's
// requests and hands each to Server.ServeHTTP. When the mux routes a
// step to handleStep, the server reads its body, hijacks the
// connection and serves it from then on the way the binary transport
// serves its own (binary.go): one goroutine, the handler's, reading and
// writing the socket with raw system calls (newRawIO), answering every
// whole step request its read buffer holds in order, and writing the
// replies with one write(2) once no whole request is left. Drain ends
// it like a binary connection.
//
// A step request — POST /v1/sessions/{id}/step with a Content-Length
// body and a Host, no Transfer-Encoding, no Expect — is parsed in place
// (parseStepHead) and goes through the step codec (Server.stepJSON)
// without allocating; its reply and its refusals are framed by hand, in
// the bytes net/http writes for them. Any other request, and any head
// the parser declines, goes back to net/http: the replies queued so far
// are written, and the connection, with the bytes read and not served
// replayed first, is served by the same http.Server again until its
// next step (handBack). DESIGN.md §7 lists where an owned connection
// differs from net/http's.

// httpReadBuf sizes an owned connection's read buffer: a few step
// requests, and the longest step request the fast path serves.
const httpReadBuf = 8 << 10

// errBodyTooLong ends a body read at maxStepBody.
var errBodyTooLong = errors.New("serve: request body over the step cap")

// readBody reads body into dst's storage, whole if it is no longer
// than maxStepBody bytes. It returns what it read, with
// errBodyTooLong past the cap (one byte past it read) or the read's
// error.
//
//osap:hotpath
func readBody(dst []byte, body io.Reader) ([]byte, error) {
	b := dst[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := body.Read(b[len(b):min(cap(b), maxStepBody+1)]) //osap:hotpath-stop net/http's body reader; TestHTTPStepZeroAlloc holds it
		b = b[:len(b)+n]
		switch {
		case len(b) > maxStepBody:
			return b, errBodyTooLong
		case err == io.EOF:
			return b, nil
		case err != nil:
			return b, err
		}
	}
}

// front is the http.Server a step request may take its connection
// over from: the one whose own Handler the Server is, on a plain-text
// HTTP/1.1 connection that stays open and that w can hijack. It is nil
// for a Server wrapped in another handler, which then sees every
// request, and for a ResponseWriter that cannot hijack
// (httptest.ResponseRecorder).
func (s *Server) front(w http.ResponseWriter, r *http.Request) *http.Server {
	if _, ok := w.(http.Hijacker); !ok || r.ProtoMajor != 1 || r.ProtoMinor != 1 || r.Close || r.TLS != nil {
		return nil
	}
	front, _ := r.Context().Value(http.ServerContextKey).(*http.Server) //osap:hotpath-stop net/http's request context: a walk up its chain of values, which allocates nothing
	if front != nil && front.Handler == http.Handler(s) {
		return front
	}
	return nil
}

// takeOver answers r, a step request on sess, and then serves its
// connection, taken over from front, until the connection ends or a
// request the fast path does not serve goes back to front. A body past
// the step cap, or one whose read failed, leaves the connection to
// net/http: where its next request starts is net/http's to find.
func (s *Server) takeOver(w http.ResponseWriter, r *http.Request, sess *Session, front *http.Server) {
	c := newHTTPConn(s)
	body, err := readBody(c.sc.body, r.Body)
	c.sc.body = body
	if err != nil {
		r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), r.Body))
		s.stepReply(w, r, sess)
		return
	}
	nc, rw, err := w.(http.Hijacker).Hijack()
	if err != nil {
		r.Body = io.NopCloser(bytes.NewReader(body))
		s.stepReply(w, r, sess)
		return
	}
	s.metrics.HTTPTakeovers.Add(1)
	// net/http may have read past this request: those bytes come first,
	// then what a connection handed back had not yet replayed.
	pre, _ := rw.Reader.Peek(rw.Reader.Buffered())
	pre = bytes.Clone(pre)
	if rc, ok := nc.(*replayConn); ok {
		pre = append(pre, rc.pre...)
		nc = rc.Conn
	}
	c.attach(nc, pre)
	// Once front's Shutdown has begun the connection is not tracked,
	// and its one reply says close.
	tracked := s.trackConn(nc, front)
	c.head.close = !tracked
	back := c.serveStep(sess, body) && c.run()
	c.flush() //nolint:errcheck // a handback finds the write's error itself; otherwise the connection is closing
	if tracked {
		s.untrackConn(nc)
	}
	if !back {
		nc.Close() //nolint:errcheck // what there was to send has been flushed
		return
	}
	s.handBack(front, nc, c.rest())
}

// handBack gives nc to front, rest replayed before what the socket
// reads next, through Serve on a listener of that one connection.
// Serve returns at the listener's second Accept, and front serves nc
// on a goroutine of its own; if front's Shutdown has begun, Serve
// returns at once and nc is closed.
func (s *Server) handBack(front *http.Server, nc net.Conn, rest []byte) {
	s.metrics.HTTPHandbacks.Add(1)
	l := &oneConnListener{nc: &replayConn{Conn: nc, pre: rest}, addr: nc.LocalAddr()}
	front.Serve(l) //nolint:errcheck // net.ErrClosed at the second Accept, ErrServerClosed after Shutdown
	if l.nc != nil {
		nc.Close() //nolint:errcheck // front is shutting down
	}
}

// oneConnListener accepts its one connection, then reports itself
// closed.
type oneConnListener struct {
	nc   net.Conn
	addr net.Addr
}

func (l *oneConnListener) Accept() (net.Conn, error) {
	nc := l.nc
	if nc == nil {
		return nil, net.ErrClosed
	}
	l.nc = nil
	return nc, nil
}

func (l *oneConnListener) Close() error   { return nil }
func (l *oneConnListener) Addr() net.Addr { return l.addr }

// replayConn is a connection handed back to net/http: its reads return
// pre, the bytes the owned connection had read and not served, before
// the socket's.
type replayConn struct {
	net.Conn
	pre []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.pre) > 0 {
		n := copy(p, c.pre)
		c.pre = c.pre[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// httpConn is one owned connection's state. Its goroutine owns all of
// it, so nothing here is locked.
type httpConn struct {
	s   *Server
	raw io.Writer
	src connReader
	in  *bufio.Reader
	// out holds the replies not yet written: one write(2) per burst.
	out []byte

	head stepHead
	sc   stepScratch // the codec's scratch, owned, not pooled
	hdr  []byte      // a reply's head being built

	dateSec int64
	date    []byte
}

func newHTTPConn(s *Server) *httpConn {
	return &httpConn{
		s:    s,
		sc:   stepScratch{body: make([]byte, 0, 2048), out: make([]byte, 0, 256)},
		hdr:  make([]byte, 0, 256),
		out:  make([]byte, 0, 2048),
		date: make([]byte, 0, len(http.TimeFormat)),
	}
}

// attach gives the connection its socket; pre is what net/http had
// read past the request it handed over.
func (c *httpConn) attach(nc net.Conn, pre []byte) {
	rw := newRawIO(nc)
	c.raw = rw
	c.src = connReader{pre: pre, raw: rw}
	c.in = bufio.NewReaderSize(&c.src, httpReadBuf)
}

// rest is what the connection has read and not served.
func (c *httpConn) rest() []byte {
	b, _ := c.in.Peek(c.in.Buffered())
	return append(bytes.Clone(b), c.src.pre...)
}

// connReader is what the read buffer fills from: the bytes net/http
// had buffered, then the socket.
type connReader struct {
	pre []byte
	raw io.Reader
}

//osap:hotpath
func (r *connReader) Read(p []byte) (int, error) {
	if len(r.pre) > 0 {
		n := copy(p, r.pre)
		r.pre = r.pre[n:]
		return n, nil
	}
	return r.raw.Read(p) //osap:hotpath-stop rawIO.Read on Linux, net.Conn elsewhere; TestHTTPStepZeroAllocTCP holds it
}

// run serves each whole step request at the front of the read buffer,
// with a flush before every read that may block, until the connection
// ends (false) or the request at the front is one the fast path does
// not serve (true: it goes back to net/http).
//
//osap:hotpath
func (c *httpConn) run() bool {
	for {
		b, _ := c.in.Peek(c.in.Buffered())
		if k := leadingCRLF(b); k > 0 {
			// net/http skips a stray CRLF after a POST body, and every
			// request here was a POST.
			c.in.Discard(k) //nolint:errcheck // k bytes are buffered
			continue
		}
		n := -1 // the length of a whole step request at b's front, 0: not here yet
		switch parseStepHead(b, &c.head) {
		case headStep:
			if n = c.head.headLen + c.head.bodyLen; n > c.in.Size() {
				n = -1 // it can never be buffered whole
			} else if n > len(b) {
				n = 0
			}
		case headMore:
			if len(b) < c.in.Size() {
				n = 0
			}
		}
		switch {
		case n > 0:
			var keep bool
			if c.s.cfg.RequestFault != nil && c.s.fault() { //osap:hotpath-stop fault injection seam, nil in production wiring
				keep = c.refuse(statusOverload, "")
			} else {
				keep = c.step(b[c.head.headLen:n])
			}
			c.in.Discard(n) //nolint:errcheck // n bytes are buffered
			if !keep {
				return false
			}
		case n < 0:
			return true
		default:
			if c.flush() != nil {
				return false
			}
			if _, err := c.in.Peek(len(b) + 1); err != nil {
				return c.ended() //osap:hotpath-stop the connection is ending
			}
		}
	}
}

// leadingCRLF is the count of CR and LF bytes among the first four of
// b that no other byte precedes: what net/http skips.
//
//osap:hotpath
func leadingCRLF(b []byte) int {
	n := 0
	for n < min(len(b), 4) && (b[n] == '\r' || b[n] == '\n') {
		n++
	}
	return n
}

// flush writes the replies queued so far.
//
//osap:hotpath
func (c *httpConn) flush() error {
	if len(c.out) == 0 {
		return nil
	}
	_, err := c.raw.Write(c.out) //osap:hotpath-stop rawIO.Write on Linux, net.Conn elsewhere; TestHTTPStepZeroAllocTCP holds it
	c.out = c.out[:0]
	if cap(c.out) > maxPooledBody {
		c.out = make([]byte, 0, 2048)
	}
	return err
}

// queue appends p to the replies to be written.
//
//osap:hotpath
func (c *httpConn) queue(p []byte) {
	n := len(c.out)
	if cap(c.out)-n < len(p) {
		grown := make([]byte, n, 2*cap(c.out)+len(p))
		copy(grown, c.out)
		c.out = grown
	}
	c.out = c.out[:n+len(p)]
	copy(c.out[n:], p)
}

// now is the Date of the reply being written, formatted once a second.
//
//osap:hotpath
func (c *httpConn) now() []byte {
	t := time.Now()
	if sec := t.Unix(); sec != c.dateSec || len(c.date) == 0 {
		c.dateSec = sec
		c.date = t.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	return c.date
}

// step serves the step request at the front of the read buffer, whose
// body is body. It reports whether the connection stays open.
//
//osap:hotpath
func (c *httpConn) step(body []byte) bool {
	sess, st := c.s.sessionBytes(c.head.id)
	if st != statusOK {
		return c.refuse(st, "") //osap:hotpath-stop refusals are failure paths, not per-step traffic
	}
	return c.serveStep(sess, body)
}

// serveStep is the handler's work without net/http (Server.stepReply):
// the step on sess, and its reply queued, as net/http writes it. It
// reports whether the connection stays open.
//
//osap:hotpath
func (c *httpConn) serveStep(sess *Session, body []byte) bool {
	if st := c.s.stepJSON(sess, body, &c.sc); st != statusOK {
		return c.refuse(st, strconv.Itoa(c.sc.dec.n)) //osap:hotpath-stop refusals are failure paths, not per-step traffic
	}
	c.reply("HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n", c.sc.out, c.head.close)
	return !c.head.close
}

// reply queues head, the status line and the handler's header fields,
// then what net/http adds to them — Date, Content-Length and, when the
// connection closes after it, Connection: close — and body.
//
//osap:hotpath
func (c *httpConn) reply(head string, body []byte, closing bool) {
	h := c.hdr[:0]
	h = append(h, head...)
	h = append(h, "Date: "...)
	h = append(h, c.now()...)
	h = append(h, "\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(len(body)), 10)
	if closing {
		h = append(h, "\r\nConnection: close"...)
	}
	h = append(h, "\r\n\r\n"...)
	c.hdr = h
	c.queue(h)
	c.queue(body)
}

// refuse queues the fast path's refusal of its request, the reply of
// Server.refusal's table in net/http's bytes, and reports whether the
// connection stays open: not once the server drains.
func (c *httpConn) refuse(st status, detail string) bool {
	code, msg := c.s.refusal(st, detail)
	closing := c.head.close || c.s.draining.Load()
	head := "HTTP/1.1 " + strconv.Itoa(code) + " " + http.StatusText(code) + "\r\nContent-Type: application/json\r\n"
	if retryable(code) {
		head += "Retry-After: " + retryAfterSecs + "\r\n"
	}
	var body bytes.Buffer
	json.NewEncoder(&body).Encode(errorResponse{Error: msg}) //nolint:errcheck // a string field always encodes
	c.reply(head, body.Bytes(), closing)
	return !closing
}

// ended follows a failed read. With no request begun the connection
// ends; a request a drained server's Shutdown cut short is answered
// 503 and the connection ends; any other request goes back to
// net/http, which answers the end of a request as it does.
func (c *httpConn) ended() bool {
	if c.in.Buffered() == 0 {
		return false
	}
	if c.s.refused() {
		c.refuse(statusDraining, "")
		return false
	}
	return true
}

package serve

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// The HTTP front door's own connections. net/http reads a connection's
// first request and hands it to Server.ServeHTTP; the server reads the
// body, hijacks the connection and serves it from then on the way the
// binary transport serves its own (binary.go): one goroutine, the
// handler's, reading and writing the socket with raw system calls
// (newRawIO), answering every complete request its read buffer holds
// in order, and writing the replies with one write(2) once no complete
// request is left. Drain ends it like a binary connection.
//
// The per-step request — POST /v1/sessions/{id}/step with a
// Content-Length body and a Host, no Transfer-Encoding, no Expect — is
// parsed in place (parseStepHead) and goes through the step codec
// (Server.stepJSON) without allocating. Every other request, and any
// head the fast parser declines, takes the general path:
// http.ReadRequest, the Server's routes, and a reply buffered whole and
// framed as net/http's server frames it (httpConn.render). Either way a
// client reads the status, header fields and body net/http would have
// sent; DESIGN.md §7 lists where the two differ.

const (
	// httpReadBuf sizes an owned connection's read buffer: a few step
	// requests, and the longest step request the fast path serves.
	httpReadBuf = 8 << 10
	// maxHeadBytes caps a request head read on the general path, as
	// http.Server does by default (DefaultMaxHeaderBytes plus the
	// slack it adds): past it the reply is 431.
	maxHeadBytes = http.DefaultMaxHeaderBytes + 4096
	// maxDiscard is how much of a body past maxStepBody net/http reads
	// and drops to keep its connection (maxPostHandlerReadBytes).
	maxDiscard = 256 << 10
)

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
		n, err := body.Read(b[len(b):min(cap(b), maxStepBody+1)]) //osap:hotpath-stop net/http's body reader, or an owned connection's; the zero-alloc tests hold both
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

// takeOver serves r, the first request on its connection, and then
// the connection, taken over from front. A body past the step cap, or
// one whose read failed, leaves the connection to net/http: where its
// next request starts is net/http's to find.
func (s *Server) takeOver(w http.ResponseWriter, hj http.Hijacker, r *http.Request, front *http.Server) {
	c := newHTTPConn(s)
	body, err := readBody(c.body, r.Body)
	c.body = body
	if err != nil {
		r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(body), r.Body))
		s.route(w, r)
		return
	}
	r.Body = io.NopCloser(bytes.NewReader(body))
	nc, rw, err := hj.Hijack()
	if err != nil {
		s.route(w, r)
		return
	}
	defer nc.Close() //nolint:errcheck // what there was to send has been flushed
	// net/http may have read past this request: those bytes come first.
	pre, _ := rw.Reader.Peek(rw.Reader.Buffered())
	c.attach(nc, bytes.Clone(pre))
	// Once front's Shutdown has begun the connection is not tracked,
	// and its one reply says close.
	tracked := s.trackConn(nc, front)
	if tracked {
		defer s.untrackConn(nc)
	}
	r.Close = !tracked
	if c.serve(r, nil) {
		c.run()
	}
	c.flush() //nolint:errcheck // the connection is closing either way
}

// httpConn is one owned connection's state. Its goroutine owns all of
// it, so nothing here is locked.
type httpConn struct {
	s   *Server
	nc  net.Conn
	raw io.Writer
	src connReader
	in  *bufio.Reader
	// out holds the replies not yet written: one write(2) per burst.
	out []byte
	// lastPost: net/http skips a stray CRLF after a POST body.
	lastPost bool

	head stepHead
	sc   stepScratch // the fast path's codec scratch, owned, not pooled
	hdr  []byte      // a reply's head being built

	// The general path: the body read ahead of the handler, and the
	// handler's reply.
	body []byte
	w    ownedWriter

	dateSec int64
	date    []byte
}

func newHTTPConn(s *Server) *httpConn {
	return &httpConn{
		s:    s,
		sc:   stepScratch{body: nil, out: make([]byte, 0, 256)},
		hdr:  make([]byte, 0, 256),
		out:  make([]byte, 0, 2048),
		body: make([]byte, 0, 2048),
		w:    ownedWriter{header: make(http.Header)},
		date: make([]byte, 0, len(http.TimeFormat)),
	}
}

// attach gives the connection its socket; pre is what net/http had
// read past the request it handed over.
func (c *httpConn) attach(nc net.Conn, pre []byte) {
	rw := newRawIO(nc)
	c.nc, c.raw = nc, rw
	c.src = connReader{pre: pre, raw: rw}
	c.in = bufio.NewReaderSize(&c.src, httpReadBuf)
}

// connReader is what the read buffer fills from: the bytes net/http
// had buffered, then the socket. While a head is read on the general
// path, limit bytes may be read (like http.Server's read limit).
type connReader struct {
	pre     []byte
	raw     io.Reader
	limited bool
	limit   int64
}

//osap:hotpath
func (r *connReader) Read(p []byte) (int, error) {
	if len(r.pre) > 0 {
		n := copy(p, r.pre)
		r.pre = r.pre[n:]
		return n, nil
	}
	if r.limited {
		if r.limit <= 0 {
			return 0, io.EOF
		}
		if int64(len(p)) > r.limit {
			p = p[:r.limit]
		}
	}
	n, err := r.raw.Read(p) //osap:hotpath-stop rawIO.Read on Linux, net.Conn elsewhere; TestHTTPStepZeroAllocTCP holds it
	r.limit -= int64(n)
	return n, err
}

// run serves requests until the connection ends: each whole step
// request the buffer holds on the fast path, anything else on the
// general path, and a flush before every read that may block.
//
//osap:hotpath
func (c *httpConn) run() {
	for {
		b, _ := c.in.Peek(c.in.Buffered())
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
			c.lastPost = true
			if !keep {
				return
			}
		case n < 0:
			if !c.general() { //osap:hotpath-stop the general path serves every request but a step, through net/http's parser and the routes
				return
			}
		default:
			if c.flush() != nil {
				return
			}
			if _, err := c.in.Peek(len(b) + 1); err != nil {
				c.ended() //osap:hotpath-stop the connection is ending
				return
			}
		}
	}
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

// step serves one step request of the fast path: the handler's work,
// without net/http (Server.handleStep). It reports whether the
// connection stays open.
//
//osap:hotpath
func (c *httpConn) step(body []byte) bool {
	s := c.s
	sess, st := s.sessionBytes(c.head.id)
	if st == statusOK {
		st = s.stepJSON(sess, body, &c.sc)
	}
	if st != statusOK {
		return c.refuse(st, strconv.Itoa(c.sc.dec.n)) //osap:hotpath-stop refusals are failure paths, not per-step traffic
	}
	// What net/http writes for handleStep's reply: the handler's one
	// header field, then Date and Content-Length.
	h := c.hdr[:0]
	h = append(h, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nDate: "...)
	h = append(h, c.now()...)
	h = append(h, "\r\nContent-Length: "...)
	h = strconv.AppendInt(h, int64(len(c.sc.out)), 10)
	if c.head.close {
		h = append(h, "\r\nConnection: close"...)
	}
	h = append(h, "\r\n\r\n"...)
	c.hdr = h
	c.queue(h)
	c.queue(c.sc.out)
	return !c.head.close
}

// refuse queues the refusal of the fast path's request (Server.refuse)
// and reports whether the connection stays open.
func (c *httpConn) refuse(st status, detail string) bool {
	c.w.reset()
	c.s.refuse(&c.w, st, detail)
	return c.render(reqInfo{http11: true, close: c.head.close, draining: c.s.draining.Load()}, &c.w)
}

// general serves the request at the front of the read buffer through
// http.ReadRequest and the routes. false ends the connection.
func (c *httpConn) general() bool {
	if c.flush() != nil {
		return false
	}
	if c.lastPost {
		peek, _ := c.in.Peek(4)
		c.in.Discard(leadingCRLF(peek)) //nolint:errcheck // peeked
	}
	c.src.limited, c.src.limit = true, maxHeadBytes
	req, err := http.ReadRequest(c.in)
	tooLarge := c.src.limit <= 0
	c.src.limited = false
	if err == nil {
		err = checkRequest(req)
	}
	if err != nil {
		c.badRequest(err, tooLarge)
		return false
	}
	c.lastPost = req.Method == http.MethodPost
	req.RemoteAddr = c.nc.RemoteAddr().String()
	if expect := req.Header.Get("Expect"); hasToken(expect, "100-continue") {
		if req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
			c.queue([]byte("HTTP/1.1 100 Continue\r\n\r\n"))
			if c.flush() != nil {
				return false
			}
		}
	} else if expect != "" {
		c.w.reset()
		c.w.Header().Set("Connection", "close")
		c.w.WriteHeader(http.StatusExpectationFailed)
		c.render(requestInfo(req), &c.w)
		return false
	}
	body, err := readBody(c.body, req.Body)
	c.body = body
	var left error
	if err == errBodyTooLong {
		// net/http reads on to keep the connection, up to a point.
		left = discardBody(req.Body)
	} else if err != nil {
		left = err
	}
	req.Body = io.NopCloser(bytes.NewReader(body))
	return c.serve(req, left)
}

// discardBody reads and drops what is left of a body, up to
// maxDiscard bytes; an error means the connection cannot be reused.
func discardBody(body io.Reader) error {
	switch _, err := io.CopyN(io.Discard, body, maxDiscard+1); err {
	case io.EOF:
		return nil
	case nil:
		return errBodyTooLong
	default:
		return err
	}
}

// serve runs req through the routes (Server.route) and queues the
// reply. left is why the body could not be read to its end, if it
// could not. It reports whether the connection stays open.
func (c *httpConn) serve(req *http.Request, left error) bool {
	c.w.reset()
	c.s.route(&c.w, req)
	q := requestInfo(req)
	q.bodyLeft = left == errBodyTooLong
	q.close = q.close || left != nil
	q.draining = c.s.draining.Load()
	keep := c.render(q, &c.w)
	// One outsized request does not pin its buffers for the
	// connection's life.
	if cap(c.body) > maxPooledBody {
		c.body = nil
	}
	if cap(c.w.body) > maxPooledBody || cap(c.hdr) > maxPooledBody {
		c.w.body, c.hdr = nil, nil
	}
	return keep
}

// ended is the connection's last act once a read fails: a request a
// drain cut short is answered 503 like every other step of a drained
// server; a client that stopped mid-request is answered as net/http
// answers it.
func (c *httpConn) ended() {
	if c.in.Buffered() == 0 {
		return
	}
	if c.s.refused() {
		c.w.reset()
		c.s.refuse(&c.w, statusDraining, "")
		c.render(reqInfo{http11: true, draining: true}, &c.w)
		return
	}
	c.general()
}

// badRequest answers a request head net/http's server refuses, in the
// bytes it sends, and the connection closes.
func (c *httpConn) badRequest(err error, tooLarge bool) {
	const errorHeaders = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	var reply string
	var se statusError
	switch {
	case tooLarge:
		const publicErr = "431 Request Header Fields Too Large"
		reply = "HTTP/1.1 " + publicErr + errorHeaders + publicErr
	case isReadError(err):
		return
	case errors.As(err, &se):
		reply = fmt.Sprintf("HTTP/1.1 %d %s: %s%s%d %s: %s", se.code, http.StatusText(se.code), se.text, errorHeaders, se.code, http.StatusText(se.code), se.text)
	default:
		const publicErr = "400 Bad Request"
		reply = "HTTP/1.1 " + publicErr + errorHeaders + publicErr
	}
	c.queue([]byte(reply))
}

// isReadError reports the errors net/http ends a connection on without
// a reply: the peer's EOF and a failed read(2).
func isReadError(err error) bool {
	var se *os.SyscallError
	var oe *net.OpError
	return err == io.EOF || errors.As(err, &se) && se.Syscall == "read" || errors.As(err, &oe) && oe.Op == "read" ||
		errors.Is(err, net.ErrClosed)
}

// statusError is a request net/http's server refuses after parsing it.
type statusError struct {
	code int
	text string
}

func (e statusError) Error() string { return e.text }

// checkRequest makes the checks http.Server makes of a parsed request
// beyond http.ReadRequest's. http.ReadRequest has moved the Host field
// to req.Host, so an empty one reads as missing here.
func checkRequest(req *http.Request) error {
	if req.ProtoMajor != 1 {
		return statusError{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	}
	if req.ProtoAtLeast(1, 1) && req.Host == "" && req.Method != http.MethodConnect {
		return statusError{http.StatusBadRequest, "missing required Host header"}
	}
	if !validHost(req.Host) {
		return statusError{http.StatusBadRequest, "malformed Host header"}
	}
	for k, vv := range req.Header {
		if !validToken(k) {
			return statusError{http.StatusBadRequest, "invalid header name"}
		}
		for _, v := range vv {
			if !validFieldValue(v) {
				return statusError{http.StatusBadRequest, "invalid header value"}
			}
		}
	}
	return nil
}

func leadingCRLF(b []byte) int {
	n := 0
	for _, c := range b {
		if c != '\r' && c != '\n' {
			break
		}
		n++
	}
	return n
}

// hasToken reports whether the comma-separated list v holds token,
// case-insensitively.
func hasToken(v, token string) bool {
	for _, t := range strings.Split(v, ",") {
		if strings.EqualFold(strings.Trim(t, " \t"), token) {
			return true
		}
	}
	return false
}

// reqInfo is what framing a reply needs to know of its request.
type reqInfo struct {
	head      bool // HEAD: no body goes out
	http11    bool // HTTP/1.1: the reply may be chunked and say Connection: close
	close     bool // the request asked to close the connection, or its body could not be read whole
	keepAlive bool // HTTP/1.0 with Connection: keep-alive
	bodyLeft  bool // more body than net/http reads on to keep the connection
	// draining: the server keeps no connection alive, as net/http's
	// keeps none once it shuts down.
	draining bool
}

func requestInfo(req *http.Request) reqInfo {
	return reqInfo{
		head:      req.Method == http.MethodHead,
		http11:    req.ProtoAtLeast(1, 1),
		close:     req.Close || hasToken(req.Header.Get("Connection"), "close"),
		keepAlive: req.ProtoMajor == 1 && req.ProtoMinor == 0 && hasToken(req.Header.Get("Connection"), "keep-alive"),
	}
}

// ownedWriter is the general path's http.ResponseWriter: it keeps a
// handler's reply whole, for render.
type ownedWriter struct {
	header http.Header
	sent   http.Header // the header fields as WriteHeader found them
	code   int
	body   []byte
}

func (w *ownedWriter) reset() {
	clear(w.header)
	w.sent, w.code, w.body = nil, 0, w.body[:0]
}

func (w *ownedWriter) Header() http.Header { return w.header }

// WriteHeader keeps the first status, as net/http does, and the header
// fields as they are now: later changes do not reach the reply.
func (w *ownedWriter) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if w.code != 0 {
		return
	}
	w.code, w.sent = code, w.header.Clone()
}

func (w *ownedWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !bodyAllowed(w.code) {
		return 0, http.ErrBodyNotAllowed
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

// bodyAllowed reports whether a reply of this status has a body.
func bodyAllowed(code int) bool {
	return code >= 200 && code != http.StatusNoContent && code != http.StatusNotModified
}

// appendWriter lets http.Header.Write append to a slice.
type appendWriter struct{ b *[]byte }

func (a appendWriter) Write(p []byte) (int, error) {
	*a.b = append(*a.b, p...)
	return len(p), nil
}

// render frames w's reply to a request described by q and queues it:
// the status line, the handler's header fields, then Date and a
// sniffed Content-Type where the handler set none, the body's
// Content-Length, and Connection as net/http sets it. The whole body
// is in hand, so its length is always known and nothing goes out
// chunked. It reports whether the connection stays open.
func (c *httpConn) render(q reqInfo, w *ownedWriter) bool {
	code, h := w.code, w.sent
	if code == 0 {
		code, h = http.StatusOK, w.header
	}
	body := w.body
	hasBody := bodyAllowed(code)
	closeAfter := q.close || q.draining || q.bodyLeft || !q.http11 && !q.keepAlive ||
		hasToken(h.Get("Connection"), "close")
	h.Del("Connection")
	h.Del("Content-Length")
	h.Del("Transfer-Encoding")
	if _, typed := h["Content-Type"]; !typed && hasBody && len(body) > 0 {
		h.Set("Content-Type", http.DetectContentType(body))
	}

	proto := "HTTP/1.1 "
	if !q.http11 {
		proto = "HTTP/1.0 "
	}
	b := append(c.hdr[:0], proto...)
	b = strconv.AppendInt(b, int64(code), 10)
	b = append(b, ' ')
	b = append(b, http.StatusText(code)...)
	b = append(b, "\r\n"...)
	h.Write(appendWriter{&b}) //nolint:errcheck // appending cannot fail
	if _, dated := h["Date"]; !dated {
		b = append(b, "Date: "...)
		b = append(b, c.now()...)
		b = append(b, "\r\n"...)
	}
	if hasBody {
		b = append(b, "Content-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n"...)
	}
	switch {
	case closeAfter && q.http11:
		b = append(b, "Connection: close\r\n"...)
	case !closeAfter && !q.http11:
		b = append(b, "Connection: keep-alive\r\n"...)
	}
	b = append(b, "\r\n"...)
	if hasBody && !q.head {
		b = append(b, body...)
	}
	c.hdr = b
	c.queue(b)
	return !closeAfter
}

// validToken reports whether s is a header field name (an RFC 7230
// token), as net/http's server requires.
func validToken(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !isTokenByte(s[i]) {
			return false
		}
	}
	return true
}

func isTokenByte(c byte) bool {
	return c < 0x80 && c > ' ' && c != 0x7f && !strings.ContainsRune(`"(),/:;<=>?@[\]{}`, rune(c))
}

// validFieldValue reports whether v holds no control byte but a tab.
func validFieldValue(v string) bool {
	for i := 0; i < len(v); i++ {
		if !isFieldByte(v[i]) {
			return false
		}
	}
	return true
}

func isFieldByte(c byte) bool { return c >= ' ' && c != 0x7f || c == '\t' }

// validHost reports whether every byte of a Host field is one net/http
// accepts there.
func validHost(h string) bool {
	for i := 0; i < len(h); i++ {
		if !isHostByte(h[i]) {
			return false
		}
	}
	return true
}

func isHostByte(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
		strings.IndexByte("!$%&'()*+,-.:;=[]_~", c) >= 0
}

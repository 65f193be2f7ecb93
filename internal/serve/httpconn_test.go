package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// oracleServer serves s through net/http's own connection handling:
// a Server that is not the http.Server's Handler leaves every
// connection to net/http, so what a client reads from it is what
// net/http writes.
func oracleServer(t *testing.T, s *Server) string {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(s.ServeHTTP))
	t.Cleanup(ts.Close)
	return ts.Listener.Addr().String()
}

// rawConn is a test client writing requests byte for byte.
type rawConn struct {
	t    *testing.T
	addr string
	nc   net.Conn
	br   *bufio.Reader
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	c := &rawConn{t: t, addr: addr}
	c.redial()
	t.Cleanup(func() { c.nc.Close() })
	return c
}

func (c *rawConn) redial() {
	c.t.Helper()
	if c.nc != nil {
		c.nc.Close()
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		c.t.Fatal(err)
	}
	c.nc, c.br = nc, bufio.NewReader(nc)
}

// exchange writes raw and reads the replies up to the final one; the
// method tells http.ReadResponse whether a body follows.
func (c *rawConn) exchange(method, raw string) []reply {
	c.t.Helper()
	if _, err := c.nc.Write([]byte(raw)); err != nil {
		c.t.Fatal(err)
	}
	return c.read(method, raw)
}

// read reads the replies to one request up to the final one; raw names
// the request in a failure, as does a reply that does not come.
func (c *rawConn) read(method, raw string) []reply {
	c.t.Helper()
	c.nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	defer c.nc.SetReadDeadline(time.Time{})
	var out []reply
	for {
		resp, err := http.ReadResponse(c.br, &http.Request{Method: method})
		if err != nil {
			c.t.Fatalf("reading the reply to %q: %v", raw, err)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			c.t.Fatal(err)
		}
		out = append(out, reply{resp, body})
		if resp.StatusCode >= 200 {
			return out
		}
	}
}

// atEOF reports whether the server has closed the connection.
func (c *rawConn) atEOF() bool {
	c.nc.SetReadDeadline(time.Now().Add(2 * time.Second))
	defer c.nc.SetReadDeadline(time.Time{})
	_, err := c.br.ReadByte()
	return err == io.EOF
}

type reply struct {
	resp *http.Response
	body []byte
}

// String shows a reply as a client reads it, Date aside.
func (r reply) String() string {
	h := r.resp.Header.Clone()
	h.Del("Date")
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n", r.resp.Proto, r.resp.Status)
	h.Write(&b) //nolint:errcheck
	fmt.Fprintf(&b, "[length %d, transfer %v, close %v]\n%s", r.resp.ContentLength, r.resp.TransferEncoding, r.resp.Close, r.body)
	return b.String()
}

// shape is a reply without its body and the body's framing: what two
// replies of a volatile body (histograms, uptime) still share, and two
// of a body past net/http's 2 KiB buffer, which net/http sends chunked
// and an owned connection with its length.
func (r reply) shape() string {
	h := r.resp.Header.Clone()
	h.Del("Date")
	h.Del("Content-Length")
	var b strings.Builder
	fmt.Fprintf(&b, "%s %s\n", r.resp.Proto, r.resp.Status)
	h.Write(&b) //nolint:errcheck
	fmt.Fprintf(&b, "[close %v]", r.resp.Close)
	return b.String()
}

// TestOwnedConformance: every route, and every status the routes
// answer with, reads the same on a connection the server owns as
// through net/http — status line, header fields (Date aside), body,
// and whether the connection closes after it. Two servers with the same
// artifacts, clock and id salt take the same request sequence, one
// through net/http's own connection handling and one as its
// http.Server's Handler. On the second every connection opens with a
// step that takes it over, so each request arrives on a connection the
// server owns — a step is served there, anything else is handed back
// to net/http — but for those that open a connection after a drain.
func TestOwnedConformance(t *testing.T) {
	fixed := time.Date(2020, 7, 13, 12, 0, 0, 0, time.UTC)
	cfg := Config{MaxSessions: 4, Now: func() time.Time { return fixed }}
	owned, ts := newTestServer(t, cfg)
	oracle, _ := newTestServer(t, cfg)
	oracle.idSalt = owned.idSalt
	sides := []*rawConn{dialRaw(t, oracleServer(t, oracle)), dialRaw(t, ts.Listener.Addr().String())}
	servers := []*Server{oracle, owned}
	for _, s := range servers {
		if _, err := s.createSession(SchemeND); err != nil {
			t.Fatal(err)
		}
	}

	warmID := fmt.Sprintf("%x-%x", owned.idSalt, 1)
	id := fmt.Sprintf("%x-%x", owned.idSalt, 2)
	id2 := fmt.Sprintf("%x-%x", owned.idSalt, 3)
	good := string(benchBody(t))
	req := func(method, path, body string, fields ...string) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s %s HTTP/1.1\r\nHost: osap\r\n", method, path)
		for _, f := range fields {
			b.WriteString(f + "\r\n")
		}
		if body != "" || method == http.MethodPost {
			fmt.Fprintf(&b, "Content-Length: %d\r\n", len(body))
		}
		b.WriteString("\r\n" + body)
		return b.String()
	}
	chunked := func(path, body string) string {
		return fmt.Sprintf("POST %s HTTP/1.1\r\nHost: osap\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", path, len(body), body)
	}
	// warm takes a connection over: a step on a session of its own.
	warm := req("POST", "/v1/sessions/"+warmID+"/step", good)
	step := "/v1/sessions/" + id + "/step"
	for _, c := range sides {
		c.exchange("POST", warm)
	}

	for _, tc := range []struct {
		name, method, raw string
		volatile          bool            // compare the reply's shape only
		before            func(s *Server) // run on both servers first
		draining          bool            // the servers are draining and the owned side closes
		wantStatus        int             // of the final reply
	}{
		{name: "create", method: "POST", raw: req("POST", "/v1/sessions", `{"scheme":"ND"}`), wantStatus: 201},
		{name: "create ensemble", method: "POST", raw: req("POST", "/v1/sessions", `{"scheme":"`+SchemeAEns+`"}`), wantStatus: 201},
		{name: "create bad scheme", method: "POST", raw: req("POST", "/v1/sessions", `{"scheme":"nope"}`), wantStatus: 400},
		{name: "create bad body", method: "POST", raw: req("POST", "/v1/sessions", `{`), wantStatus: 400},
		{name: "step", method: "POST", raw: req("POST", step, good), wantStatus: 200},
		{name: "step, key folded", method: "POST", raw: req("POST", step, `{"junk":[1],"OBS":`+good[len(`{"obs":`):]), wantStatus: 200},
		{name: "step, other fields", method: "POST", raw: req("POST", step, good, "Content-Type: application/json", "User-Agent: t", "Connection: keep-alive"), wantStatus: 200},
		{name: "step, malformed", method: "POST", raw: req("POST", step, "{nope"), wantStatus: 400},
		{name: "step, empty body", method: "POST", raw: req("POST", step, ""), wantStatus: 400},
		{name: "step, obs not an array", method: "POST", raw: req("POST", step, `{"obs":"x"}`), wantStatus: 400},
		{name: "step, wrong dimension", method: "POST", raw: req("POST", step, `{"obs":[1,2,3]}`), wantStatus: 400},
		{name: "step, unknown session", method: "POST", raw: req("POST", "/v1/sessions/nope/step", good), wantStatus: 404},
		{name: "step, chunked body", method: "POST", raw: chunked(step, good), wantStatus: 200},
		{name: "step, expect 100-continue", method: "POST", raw: req("POST", step, good, "Expect: 100-continue"), wantStatus: 200},
		{name: "step, query", method: "POST", raw: req("POST", step+"?x=1", good), wantStatus: 200},
		{name: "step, closed under it", method: "POST", raw: req("POST", "/v1/sessions/"+id2+"/step", good), wantStatus: 410,
			before: func(s *Server) {
				sess, _ := s.table.Get(id2)
				sess.close()
			}},
		{name: "info", method: "GET", raw: req("GET", "/v1/sessions/"+id, ""), wantStatus: 200},
		{name: "info, unknown", method: "GET", raw: req("GET", "/v1/sessions/nope", ""), wantStatus: 404},
		{name: "reset", method: "POST", raw: req("POST", "/v1/sessions/"+id+"/reset", ""), wantStatus: 204},
		{name: "reset, unknown", method: "POST", raw: req("POST", "/v1/sessions/nope/reset", ""), wantStatus: 404},
		{name: "create, table full", method: "POST", raw: req("POST", "/v1/sessions", `{}`), wantStatus: 201},
		{name: "create, past the cap", method: "POST", raw: req("POST", "/v1/sessions", `{}`), wantStatus: 429},
		{name: "healthz", method: "GET", raw: req("GET", "/healthz", ""), wantStatus: 200},
		{name: "healthz, HEAD", method: "HEAD", raw: req("HEAD", "/healthz", ""), wantStatus: 200},
		{name: "metrics", method: "GET", raw: req("GET", "/metrics", ""), volatile: true, wantStatus: 200},
		{name: "dashboard", method: "GET", raw: req("GET", "/dashboard", ""), volatile: true, wantStatus: 200},
		{name: "rollout without a registry", method: "POST", raw: req("POST", "/admin/rollout", `{"action":"stage","version":"v2"}`), wantStatus: 501},
		{name: "learn, disabled", method: "POST", raw: req("POST", "/admin/learn", ""), wantStatus: 501},
		{name: "no route", method: "GET", raw: req("GET", "/nope", ""), wantStatus: 404},
		{name: "wrong method", method: "PUT", raw: req("PUT", "/v1/sessions", "{}"), wantStatus: 405},
		{name: "unclean path", method: "GET", raw: req("GET", "/v1//sessions/"+id, ""), wantStatus: 301},
		{name: "HTTP/1.0 keep-alive", method: "GET", raw: "GET /healthz HTTP/1.0\r\nConnection: keep-alive\r\n\r\n", wantStatus: 200},
		{name: "HTTP/1.0", method: "GET", raw: "GET /healthz HTTP/1.0\r\n\r\n", wantStatus: 200},
		{name: "HTTP/1.0 step", method: "POST", raw: "POST " + step + " HTTP/1.0\r\nContent-Length: " + strconv.Itoa(len(good)) + "\r\n\r\n" + good, wantStatus: 200},
		{name: "step, Connection: close", method: "POST", raw: req("POST", step, good, "Connection: close"), wantStatus: 200},
		{name: "healthz, Connection: close", method: "GET", raw: req("GET", "/healthz", "", "Connection: close"), wantStatus: 200},
		{name: "expectation not met", method: "POST", raw: req("POST", step, good, "Expect: 200-ok"), wantStatus: 417},
		{name: "delete", method: "DELETE", raw: req("DELETE", "/v1/sessions/"+id, ""), wantStatus: 204},
		{name: "step, deleted session", method: "POST", raw: req("POST", step, good), wantStatus: 404},
		{name: "delete, unknown", method: "DELETE", raw: req("DELETE", "/v1/sessions/"+id, ""), wantStatus: 404},
		{name: "malformed request line", method: "GET", raw: "GARBAGE\r\n\r\n", wantStatus: 400},
		{name: "no Host", method: "GET", raw: "GET /healthz HTTP/1.1\r\n\r\n", wantStatus: 400},
		{name: "bad header value", method: "GET", raw: "GET /healthz HTTP/1.1\r\nHost: osap\r\nX: a\x01b\r\n\r\n", wantStatus: 400},
		{name: "unknown transfer coding", method: "POST", raw: "POST " + step + " HTTP/1.1\r\nHost: osap\r\nTransfer-Encoding: gzip\r\n\r\n", wantStatus: 501},
		{name: "draining: step, kept connection", method: "POST", raw: req("POST", step, good), draining: true, wantStatus: 503,
			before: func(s *Server) {
				if err := s.Drain(context.Background(), nil); err != nil {
					t.Fatal(err)
				}
			}},
		// The rest the server does not own: net/http keeps the
		// connection alive on both sides.
		{name: "draining: create", method: "POST", raw: req("POST", "/v1/sessions", `{}`), wantStatus: 503},
		{name: "draining: healthz", method: "GET", raw: req("GET", "/healthz", ""), wantStatus: 503},
	} {
		var got [2][]reply
		for i, c := range sides {
			if tc.before != nil {
				tc.before(servers[i])
			}
			got[i] = c.exchange(tc.method, tc.raw)
		}
		if last := got[1][len(got[1])-1]; last.resp.StatusCode != tc.wantStatus {
			t.Errorf("%s: owned status %d, want %d\n%s", tc.name, last.resp.StatusCode, tc.wantStatus, last)
		}
		if len(got[0]) != len(got[1]) {
			t.Errorf("%s: %d replies through net/http, %d owned", tc.name, len(got[0]), len(got[1]))
			continue
		}
		if tc.draining {
			// A drained net/http server still keeps connections alive
			// until its own Shutdown; a drained Server's step reply says
			// it closes, and it does.
			last := got[1][len(got[1])-1]
			if !last.resp.Close || !sides[1].atEOF() {
				t.Errorf("%s: a drained server's reply does not close the connection", tc.name)
			}
			last.resp.Close = false
			last.resp.Header.Del("Connection")
			sides[1].redial()
		}
		for k := range got[0] {
			want, have := got[0][k].String(), got[1][k].String()
			if tc.volatile {
				want, have = got[0][k].shape(), got[1][k].shape()
			}
			if want != have {
				t.Errorf("%s: through net/http\n%s\n\nowned\n%s", tc.name, want, have)
			}
		}
		if tc.draining {
			continue
		}
		if closed := got[0][len(got[0])-1].resp.Close; closed {
			for i, c := range sides {
				if !c.atEOF() {
					t.Errorf("%s: side %d did not close the connection after the reply", tc.name, i)
				}
				c.redial()
				c.exchange("POST", warm)
			}
		}
		if testing.Verbose() {
			t.Logf("%s:\n%s", tc.name, got[1][len(got[1])-1].shape())
		}
	}
	if oracle.metrics.HTTPTakeovers.Load() != 0 || owned.metrics.HTTPTakeovers.Load() == 0 || owned.metrics.HTTPHandbacks.Load() == 0 {
		t.Errorf("takeovers/handbacks: %d/%d through net/http, %d/%d owned; want none, and some of each",
			oracle.metrics.HTTPTakeovers.Load(), oracle.metrics.HTTPHandbacks.Load(),
			owned.metrics.HTTPTakeovers.Load(), owned.metrics.HTTPHandbacks.Load())
	}
}

// TestOwnedHandback: on one keep-alive connection to an http.Server
// whose Handler is the Server, a step takes the connection over, a
// request that is not one goes back to net/http with the bytes read
// past it, and the next step takes it over again. Sent once in
// sequence and once pipelined in one write, the replies arrive in order
// and read as net/http alone writes them (Date aside, /metrics by
// shape), and the takeover and handback counters move by exactly what
// the sequence holds. A handback once Shutdown has begun closes the
// socket, and no goroutine is left serving it.
func TestOwnedHandback(t *testing.T) {
	fixed := time.Date(2020, 7, 13, 12, 0, 0, 0, time.UTC)
	cfg := Config{Now: func() time.Time { return fixed }}
	owned, ts := newTestServer(t, cfg)
	oracle, _ := newTestServer(t, cfg)
	oracle.idSalt = owned.idSalt
	var id string
	for _, s := range []*Server{oracle, owned} {
		sess, err := s.createSession(SchemeAEns)
		if err != nil {
			t.Fatal(err)
		}
		id = sess.ID()
	}
	addrs := []string{oracleServer(t, oracle), ts.Listener.Addr().String()}
	body := benchBody(t)
	step := string(rawStepRequest(id, body))
	seq := []struct {
		method, raw string
		volatile    bool
	}{
		{"POST", step, false},
		{"POST", "POST /v1/sessions/" + id + "/reset HTTP/1.1\r\nHost: osap\r\nContent-Length: 0\r\n\r\n", false},
		{"POST", step, false},
		{"GET", "GET /metrics HTTP/1.1\r\nHost: osap\r\n\r\n", true},
		{"POST", fmt.Sprintf("POST /v1/sessions/%s/step HTTP/1.1\r\nHost: osap\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", id, len(body), body), false},
		{"HEAD", "HEAD /healthz HTTP/1.1\r\nHost: osap\r\n\r\n", false},
		{"POST", step, false},
		{"POST", string(rawStepRequest(id, body, "Connection: close")), false},
	}
	// Four steps take the connection over (the first, and each after a
	// handback), three other requests hand it back, the last step
	// closes it.
	const takeovers, handbacks = 4, 3

	for _, pipelined := range []bool{false, true} {
		t.Run(fmt.Sprintf("pipelined=%v", pipelined), func(t *testing.T) {
			counters := func(s *Server) [2]uint64 {
				return [2]uint64{promCounter(t, s, "osap_http_takeovers_total"), promCounter(t, s, "osap_http_handbacks_total")}
			}
			before := counters(owned)
			var got [2][]reply
			for side, addr := range addrs {
				c := dialRaw(t, addr)
				if pipelined {
					var all string
					for _, r := range seq {
						all += r.raw
					}
					if _, err := c.nc.Write([]byte(all)); err != nil {
						t.Fatal(err)
					}
				}
				for _, r := range seq {
					if pipelined {
						got[side] = append(got[side], c.read(r.method, r.raw)...)
					} else {
						got[side] = append(got[side], c.exchange(r.method, r.raw)...)
					}
				}
				if !c.atEOF() {
					t.Errorf("side %d: the connection outlived the Connection: close step", side)
				}
			}
			if len(got[0]) != len(seq) || len(got[1]) != len(seq) {
				t.Fatalf("%d requests: %d replies through net/http, %d owned", len(seq), len(got[0]), len(got[1]))
			}
			for k, r := range seq {
				want, have := got[0][k].String(), got[1][k].String()
				if r.volatile {
					want, have = got[0][k].shape(), got[1][k].shape()
				}
				if want != have {
					t.Errorf("request %d: through net/http\n%s\n\nowned\n%s", k, want, have)
				}
			}
			if after := counters(owned); after != [2]uint64{before[0] + takeovers, before[1] + handbacks} {
				t.Errorf("takeovers, handbacks %v → %v, want +%d +%d", before, after, takeovers, handbacks)
			}
			if n := counters(oracle); n != [2]uint64{} {
				t.Errorf("takeovers, handbacks %v through net/http alone", n)
			}
		})
	}

	t.Run("after Shutdown", func(t *testing.T) {
		shutting := make(chan struct{})
		var calls atomic.Int64
		s, _ := newTestServer(t, Config{RequestFault: func() (bool, time.Duration) {
			if calls.Add(1) == 2 { // the second step, on the owned connection
				<-shutting
			}
			return false, 0
		}})
		sess, err := s.createSession(SchemeND)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: s}
		hs.RegisterOnShutdown(func() { close(shutting) })
		go hs.Serve(ln) //nolint:errcheck // returns on Shutdown
		c := dialRaw(t, ln.Addr().String())
		step := string(rawStepRequest(sess.ID(), body))
		const healthz = "GET /healthz HTTP/1.1\r\nHost: osap\r\n\r\n"
		if _, err := c.nc.Write([]byte(step + step + healthz)); err != nil {
			t.Fatal(err)
		}
		for calls.Load() < 2 {
			time.Sleep(time.Millisecond)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if r := c.read("POST", step)[0]; r.resp.StatusCode != http.StatusOK {
				t.Fatalf("step %d: %s", i, r)
			}
		}
		if !c.atEOF() {
			t.Fatal("a handback after Shutdown began left the connection open")
		}
		if got := promCounter(t, s, "osap_http_handbacks_total"); got != 1 {
			t.Fatalf("%d handbacks, want 1", got)
		}
		stacks := make([]byte, 1<<20)
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			all := stacks[:runtime.Stack(stacks, true)]
			if !bytes.Contains(all, []byte("(*Server).takeOver(")) && !bytes.Contains(all, []byte("net/http.(*conn).serve(")) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("a goroutine still serves the connection:\n%s", all)
			}
		}
	})
}

// ownedPipe serves one end of an in-memory pipe through an http.Server
// whose Handler is s, has a step on a session of its own take it over,
// and returns the other end: net.Pipe has no buffer, so one server
// write is one client read.
func ownedPipe(t *testing.T, s *Server) net.Conn {
	t.Helper()
	sess, err := s.createSession(SchemeND)
	if err != nil {
		t.Fatal(err)
	}
	srv, cli := net.Pipe()
	t.Cleanup(func() { cli.Close() })
	go (&http.Server{Handler: s}).Serve(&oneConnListener{nc: srv, addr: srv.LocalAddr()}) //nolint:errcheck // returns at the second Accept
	takeovers := s.metrics.HTTPTakeovers.Load()
	go cli.Write(rawStepRequest(sess.ID(), benchBody(t))) //nolint:errcheck // the read below fails if it does
	resp, err := http.ReadResponse(bufio.NewReader(cli), nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || s.metrics.HTTPTakeovers.Load() != takeovers+1 {
		t.Fatalf("the first step: status %d, and it did not take the pipe over", resp.StatusCode)
	}
	return cli
}

func rawStepRequest(id string, body []byte, fields ...string) []byte {
	head := "POST /v1/sessions/" + id + "/step HTTP/1.1\r\nHost: osap\r\n"
	for _, f := range fields {
		head += f + "\r\n"
	}
	return append([]byte(head+"Content-Length: "+strconv.Itoa(len(body))+"\r\n\r\n"), body...)
}

// TestOwnedPipelineInOrder: requests pipelined on an owned connection
// are answered in the order they came, steps and the rest alike, and a
// burst of steps one read brought in is answered with one write.
func TestOwnedPipelineInOrder(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	var ids []string
	for _, scheme := range []string{SchemeND, SchemeAEns} {
		sess, err := s.createSession(scheme)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, sess.ID())
	}
	body := benchBody(t)

	t.Run("one write per burst", func(t *testing.T) {
		cli := ownedPipe(t, s)
		const burst = 6
		var reqs []byte
		for i := 0; i < burst; i++ {
			reqs = append(reqs, rawStepRequest(ids[i%2], body)...)
		}
		if len(reqs) > httpReadBuf {
			t.Fatalf("a burst of %d B does not fit one read", len(reqs))
		}
		go cli.Write(reqs) //nolint:errcheck // the reads below fail if it does
		buf := make([]byte, 1<<16)
		n, err := cli.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		br := bufio.NewReader(bytes.NewReader(buf[:n]))
		for i := 0; i < burst; i++ {
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("reply %d of %d is not in the first write: %v", i+1, burst, err)
			}
			var sr stepResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != 200 || sr.Step != i/2 {
				t.Fatalf("reply %d: status %d step %d (%v), want 200 step %d", i+1, resp.StatusCode, sr.Step, err, i/2)
			}
		}
		if br.Buffered() > 0 {
			t.Fatal("bytes after the last reply")
		}
	})

	t.Run("mixed", func(t *testing.T) {
		ts := httptest.NewServer(s)
		defer ts.Close()
		c := dialRaw(t, ts.Listener.Addr().String())
		sess, _ := s.table.Get(ids[0])
		first := int(sess.Snapshot(time.Now()).Steps)
		type want struct {
			method string
			status int
			step   int // of a step reply, -1: not a step
		}
		var reqs []byte
		var wants []want
		for i := 0; i < 4; i++ {
			reqs = append(reqs, rawStepRequest(ids[0], body)...)
			wants = append(wants, want{"POST", 200, first + i})
		}
		reqs = append(reqs, "GET /v1/sessions/"+ids[0]+" HTTP/1.1\r\nHost: osap\r\n\r\n"...)
		wants = append(wants, want{"GET", 200, -1})
		reqs = append(reqs, "POST /v1/sessions/"+ids[0]+"/reset HTTP/1.1\r\nHost: osap\r\nContent-Length: 0\r\n\r\n"...)
		wants = append(wants, want{"POST", 204, -1})
		for i := 0; i < 3; i++ {
			reqs = append(reqs, rawStepRequest(ids[0], body)...)
			wants = append(wants, want{"POST", 200, i})
		}
		reqs = append(reqs, rawStepRequest("nope", body)...)
		wants = append(wants, want{"POST", 404, -1})
		reqs = append(reqs, rawStepRequest(ids[0], body)...)
		wants = append(wants, want{"POST", 200, 3})
		if _, err := c.nc.Write(reqs); err != nil {
			t.Fatal(err)
		}
		for i, w := range wants {
			resp, err := http.ReadResponse(c.br, &http.Request{Method: w.method})
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != w.status {
				t.Fatalf("reply %d: status %d, want %d: %s", i, resp.StatusCode, w.status, out)
			}
			if w.step >= 0 {
				var sr stepResponse
				if err := json.Unmarshal(out, &sr); err != nil || sr.Step != w.step {
					t.Fatalf("reply %d: %s, want step %d", i, out, w.step)
				}
			}
		}
	})
}

// TestHTTPStepZeroAllocTCP is TestBinaryStepZeroAllocTCP for HTTP: a
// keep-alive step on a connection the server owns — read, parse,
// decode, step, encode, write — allocates nothing, and neither does
// the test's hand-written client.
func TestHTTPStepZeroAllocTCP(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	ts := httptest.NewServer(s)
	defer ts.Close()
	body := benchBody(t)
	for _, scheme := range []string{SchemeND, SchemeAEns} {
		sess, err := s.createSession(scheme)
		if err != nil {
			t.Fatal(err)
		}
		nc, err := net.Dial("tcp", ts.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		req := rawStepRequest(sess.ID(), body, "Content-Type: application/json")
		buf := make([]byte, 4096)
		var last []byte
		step := func() {
			if _, err := nc.Write(req); err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				m, err := nc.Read(buf[n:])
				if err != nil {
					t.Fatal(err)
				}
				n += m
				if whole := replyLen(buf[:n]); whole > 0 && whole <= n {
					last = buf[:n]
					return
				}
			}
		}
		for i := 0; i < 50; i++ { // the first request takes the connection over
			step()
		}
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Errorf("%s: HTTP step round trip on an owned connection allocates %.2f/op, want 0", scheme, allocs)
		}
		resp, err := http.ReadResponse(bufio.NewReader(bytes.NewReader(last)), nil)
		if err != nil {
			t.Fatal(err)
		}
		var sr stepResponse
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil || resp.StatusCode != 200 || sr.Step != 250 {
			t.Errorf("%s: last reply %q: %v", scheme, last, err)
		}
	}
}

// replyLen is the length of the one reply at the front of b, or 0 if
// its head is not all there. Head and length are read by hand.
func replyLen(b []byte) int {
	end := bytes.Index(b, []byte("\r\n\r\n"))
	if end < 0 {
		return 0
	}
	i := bytes.Index(b[:end], []byte("Content-Length: "))
	if i < 0 {
		return -1
	}
	n := 0
	for i += len("Content-Length: "); b[i] >= '0' && b[i] <= '9'; i++ {
		n = 10*n + int(b[i]-'0')
	}
	return end + 4 + n
}

// TestCloseRacingOwnedStep is TestCloseRacingBinaryStep on an owned
// HTTP connection: a DELETE races pipelined steps of its session.
// Every step is answered — 200, or 404/410 once the session is gone,
// and never a 200 after that — and osap_decisions_total counts the
// 200s. Run it under -race.
func TestCloseRacingOwnedStep(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	ts := httptest.NewServer(s)
	defer ts.Close()
	c := dialRaw(t, ts.Listener.Addr().String())
	c.exchange("GET", "GET /healthz HTTP/1.1\r\nHost: osap\r\n\r\n")
	sess, err := s.createSession(s.factory.Schemes()[0])
	if err != nil {
		t.Fatal(err)
	}
	const batch = 8
	var reqs []byte
	for i := 0; i < batch; i++ {
		reqs = append(reqs, rawStepRequest(sess.ID(), benchBody(t))...)
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	var decisions, gone uint64
	for round := 0; gone == 0; round++ {
		if round == 10_000 {
			t.Fatal("the session was never closed under the steps")
		}
		if _, err := c.nc.Write(reqs); err != nil {
			t.Fatal(err)
		}
		if round == 0 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(http.MethodDelete, "/v1/sessions/"+sess.ID(), nil))
				if rec.Code != http.StatusNoContent {
					t.Errorf("DELETE answered %d, want 204", rec.Code)
				}
			}()
		}
		for i := 0; i < batch; i++ {
			resp, err := http.ReadResponse(c.br, nil)
			if err != nil {
				t.Fatalf("round %d step %d: %v (a step was dropped)", round, i, err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			switch resp.StatusCode {
			case http.StatusOK:
				if gone > 0 {
					t.Fatalf("round %d step %d: 200 after the session was gone", round, i)
				}
				decisions++
			case http.StatusNotFound, http.StatusGone:
				gone++
			default:
				t.Fatalf("round %d step %d: status %d", round, i, resp.StatusCode)
			}
		}
	}
	wg.Wait()
	if got := promCounter(t, s, "osap_decisions_total"); got != decisions {
		t.Fatalf("osap_decisions_total = %d, client received %d decisions (%d refused)", got, decisions, gone)
	}
}

// TestOwnedConnOnDrainAndShutdown: a drain leaves an idle owned
// connection open, as net/http leaves its own keep-alive connections;
// its next step is answered 503 + Retry-After + Connection: close, and
// then the client reads EOF. An owned connection still idle when its
// http.Server's Shutdown begins ends then, and one that Shutdown finds
// half way through a step — taken over again after a handback, so on
// the socket itself and not the handback's wrapper — answers it 503.
func TestOwnedConnOnDrainAndShutdown(t *testing.T) {
	s := batchTestServer(t)
	sess, err := s.createSession(SchemeND)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: s}
	go hs.Serve(ln) //nolint:errcheck // returns on Shutdown
	step := string(rawStepRequest(sess.ID(), benchBody(t)))
	kept, idle, cut := dialRaw(t, ln.Addr().String()), dialRaw(t, ln.Addr().String()), dialRaw(t, ln.Addr().String())
	kept.exchange("POST", step)
	idle.exchange("POST", step)
	cut.exchange("POST", step)
	cut.exchange("GET", "GET /healthz HTTP/1.1\r\nHost: osap\r\n\r\n")
	cut.exchange("POST", step)
	if got := s.metrics.HTTPTakeovers.Load(); got != 4 {
		t.Fatalf("%d takeovers, want 4", got)
	}

	if err := s.Drain(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	r := kept.exchange("POST", step)[0]
	if r.resp.StatusCode != http.StatusServiceUnavailable || r.resp.Header.Get("Retry-After") == "" || !r.resp.Close {
		t.Fatalf("a step on an owned connection after the drain:\n%s\nwant 503, Retry-After, Connection: close", r)
	}
	if !kept.atEOF() {
		t.Fatal("the connection outlived its drained reply")
	}

	if _, err := cut.nc.Write([]byte(step[:len(step)-10])); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if !idle.atEOF() {
		t.Fatal("an idle owned connection outlived its http.Server's Shutdown")
	}
	r = cut.read("POST", step)[0]
	if r.resp.StatusCode != http.StatusServiceUnavailable || r.resp.Header.Get("Retry-After") == "" || !r.resp.Close || !cut.atEOF() {
		t.Fatalf("a step Shutdown cut short on a drained server:\n%s\nwant 503, Retry-After, Connection: close", r)
	}
}

// TestOwnedConnOutlivesTimeouts: the deadlines an http.Server's
// ReadTimeout and WriteTimeout put on a connection do not reach it
// while the server owns it (Hijack clears them): an owned connection
// idle past both still steps.
func TestOwnedConnOutlivesTimeouts(t *testing.T) {
	s := batchTestServer(t)
	sess, err := s.createSession(SchemeND)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	const timeout = 50 * time.Millisecond
	hs := &http.Server{Handler: s, ReadTimeout: timeout, WriteTimeout: timeout}
	go hs.Serve(ln) //nolint:errcheck // returns on Close
	defer hs.Close()
	c := dialRaw(t, ln.Addr().String())
	step := string(rawStepRequest(sess.ID(), benchBody(t)))
	c.exchange("POST", step)
	time.Sleep(3 * timeout)
	if r := c.exchange("POST", step)[0]; r.resp.StatusCode != http.StatusOK {
		t.Fatalf("a step after the server's timeouts: %s", r)
	}
}

// TestWrappedServerLeavesConnections: a handler that wraps the Server
// sees every step of a keep-alive connection, because the Server
// takes a connection over only as its http.Server's own Handler.
func TestWrappedServerLeavesConnections(t *testing.T) {
	s := batchTestServer(t)
	sess, err := s.createSession(SchemeND)
	if err != nil {
		t.Fatal(err)
	}
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Add(1)
		s.ServeHTTP(w, r)
	}))
	defer ts.Close()
	c := dialRaw(t, ts.Listener.Addr().String())
	step := string(rawStepRequest(sess.ID(), benchBody(t)))
	const n = 5
	for i := 0; i < n; i++ {
		if r := c.exchange("POST", step)[0]; r.resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %s", i, r)
		}
	}
	if got := seen.Load(); got != n || s.metrics.HTTPTakeovers.Load() != 0 {
		t.Fatalf("the wrapper saw %d of %d steps on one connection; %d taken over", got, n, s.metrics.HTTPTakeovers.Load())
	}
}

// TestRequestFaultOnOwnedConn: Config.RequestFault runs once before
// every request of a connection the server takes over, on its own
// steps and on the requests it hands back alike, and its rejection is a retryable 503 — Retry-After, no
// "draining" — after which the connection serves on.
func TestRequestFaultOnOwnedConn(t *testing.T) {
	var calls atomic.Int64
	s, ts := newTestServer(t, Config{RequestFault: func() (bool, time.Duration) {
		return calls.Add(1)%2 == 0, 0
	}})
	sess, err := s.createSession(SchemeND)
	if err != nil {
		t.Fatal(err)
	}
	c := dialRaw(t, ts.Listener.Addr().String())
	body := benchBody(t)
	for i := 1; i <= 8; i++ {
		method, raw := "POST", string(rawStepRequest(sess.ID(), body))
		if i%3 == 0 {
			method, raw = "GET", "GET /v1/sessions/"+sess.ID()+" HTTP/1.1\r\nHost: osap\r\n\r\n"
		}
		r := c.exchange(method, raw)[0]
		if i%2 == 1 {
			if r.resp.StatusCode != http.StatusOK {
				t.Fatalf("request %d: %s, want 200", i, r)
			}
			continue
		}
		if r.resp.StatusCode != http.StatusServiceUnavailable || r.resp.Header.Get("Retry-After") == "" ||
			r.resp.Close || bytes.Contains(r.body, []byte("draining")) {
			t.Fatalf("request %d: %s, want a retryable 503 that keeps the connection", i, r)
		}
	}
	if got := calls.Load(); got != 8 {
		t.Fatalf("the fault seam ran %d times for 8 requests", got)
	}
}

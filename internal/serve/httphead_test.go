package serve

import (
	"bufio"
	"bytes"
	"net/http"
	"testing"
)

// FuzzHTTPHead holds the fast path's head parser to http.ReadRequest
// and the checks net/http's server adds to it. Whenever parseStepHead takes bytes for a step
// head, http.ReadRequest must take the same bytes as the same request:
// POST to /v1/sessions/{id}/step, the same Content-Length, the same
// close flag, no Transfer-Encoding, a Host, header fields net/http's
// server accepts, and a head of the same length. Whenever it asks for
// more, the bytes must not hold a whole head, or the connection would
// wait for bytes the client will never send.
func FuzzHTTPHead(f *testing.F) {
	for _, seed := range []string{
		"POST /v1/sessions/abc-1/step HTTP/1.1\r\nHost: 127.0.0.1:8080\r\nContent-Type: application/json\r\nContent-Length: 12\r\n\r\n{\"obs\":[1]}\n",
		"POST /v1/sessions/abc-1/step HTTP/1.1\r\nhost: x\r\ncontent-length: 0\r\nConnection: close\r\n\r\n",
		"POST /v1/sessions/abc-1/step HTTP/1.1\r\nHost: x\r\nContent-Length: 007\r\nConnection: Keep-Alive\r\nX-A:\t v \r\n\r\n",
		"POST /v1/sessions/abc-1/step HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\n",
		"POST /v1/sessions/abc-1/step HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n",
		"POST /v1/sessions/abc-1/step HTTP/1.1\nHost: x\nContent-Length: 1\n\n",
		"POST /v1/sessions/abc-1/step HTTP/1.0\r\nHost: x\r\nContent-Length: 1\r\n\r\n",
		"POST /v1/sessions/../step HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n\r\n",
		"POST /v1/sessions/abc-1/step HTTP/1.1\r\nHost: x\r\nContent-Length: 1\r\n",
		"POST /v1/sessions/abc",
		"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var h stepHead
		switch parseStepHead(b, &h) {
		case headStep:
			rd := bytes.NewReader(b)
			br := bufio.NewReader(rd)
			req, err := http.ReadRequest(br)
			if err != nil {
				t.Fatalf("the fast path takes %q, http.ReadRequest refuses it: %v", b, err)
			}
			if consumed := len(b) - rd.Len() - br.Buffered(); consumed != h.headLen {
				t.Fatalf("%q: a head of %d bytes, http.ReadRequest read %d", b, h.headLen, consumed)
			}
			if req.Method != http.MethodPost || req.URL.Path != "/v1/sessions/"+string(h.id)+"/step" || req.URL.RawQuery != "" {
				t.Fatalf("%q: the fast path reads a step of %q, http.ReadRequest %s %s", b, h.id, req.Method, req.URL)
			}
			if req.ContentLength != int64(h.bodyLen) || req.Close != h.close || len(req.TransferEncoding) != 0 {
				t.Fatalf("%q: fast path length %d close %v; http.ReadRequest length %d close %v transfer %v",
					b, h.bodyLen, h.close, req.ContentLength, req.Close, req.TransferEncoding)
			}
			if req.Header.Get("Expect") != "" {
				t.Fatalf("%q: the fast path takes an Expect", b)
			}
			if why := serverRefuses(req); why != "" || req.Host == "" {
				t.Fatalf("%q: the fast path takes a request net/http's server refuses (host %q): %s", b, req.Host, why)
			}
		case headMore:
			// A head ends at its first empty line, CRLF or bare LF.
			if bytes.Contains(b, []byte("\n\n")) || bytes.Contains(b, []byte("\n\r\n")) {
				t.Fatalf("the fast path waits for more of %q, which holds a whole head", b)
			}
		}
	})
}

// TestStepHeadPrefixes: every proper prefix of a step head asks for
// more bytes, so a head that arrives in pieces is still served on the
// fast path.
func TestStepHeadPrefixes(t *testing.T) {
	full := []byte("POST /v1/sessions/abc-1/step HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\nConnection: close\r\n\r\n")
	var h stepHead
	for i := 0; i < len(full); i++ {
		if got := parseStepHead(full[:i], &h); got != headMore {
			t.Fatalf("prefix %q: %d, want headMore", full[:i], got)
		}
	}
	if got := parseStepHead(full, &h); got != headStep || h.headLen != len(full) || h.bodyLen != 3 || !h.close || string(h.id) != "abc-1" {
		t.Fatalf("whole head: %d %+v", got, h)
	}
	allocs := testing.AllocsPerRun(100, func() { parseStepHead(full, &h) })
	if allocs != 0 {
		t.Fatalf("parseStepHead allocates %.1f times", allocs)
	}
}

// serverRefuses is why net/http's server refuses a request that
// http.ReadRequest parsed ("" if it does not), as far as a step head
// can draw it: a protocol not HTTP/1.x, a missing or malformed Host,
// a header field name that is not a token or a value with a control
// byte. http.ReadRequest has moved the Host field to req.Host, so an
// empty one reads as missing here.
func serverRefuses(req *http.Request) string {
	every := func(s string, ok func(byte) bool) bool {
		for i := 0; i < len(s); i++ {
			if !ok(s[i]) {
				return false
			}
		}
		return true
	}
	switch {
	case req.ProtoMajor != 1:
		return "unsupported protocol version"
	case req.ProtoAtLeast(1, 1) && req.Host == "":
		return "missing required Host header"
	case !every(req.Host, isHostByte):
		return "malformed Host header"
	}
	for k, vv := range req.Header {
		if k == "" || !every(k, isTokenByte) {
			return "invalid header name"
		}
		for _, v := range vv {
			if !every(v, isFieldByte) {
				return "invalid header value"
			}
		}
	}
	return ""
}

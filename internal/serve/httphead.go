package serve

import "strings"

// The fast path's parser of a step request head: POST
// /v1/sessions/{id}/step HTTP/1.1, one Host, one Content-Length, at
// most one Connection (close or keep-alive), no Transfer-Encoding, no
// Expect, every line ended by CRLF. It reads the head in place and
// allocates nothing. Whatever it cannot vouch for it declines, and the
// connection goes back to net/http, which reads it instead; FuzzHTTPHead
// holds what it accepts to net/http's own reading of the same bytes.

// What parseStepHead found.
const (
	headOther = iota // not a step head the fast path serves
	headMore         // a prefix of one: read on
	headStep         // a whole step head
)

// stepHead is a step request's head.
type stepHead struct {
	id      []byte // the {id} path segment, in the read buffer
	headLen int    // bytes up to and including the blank line
	bodyLen int    // Content-Length
	close   bool   // Connection: close
}

const (
	stepLineStart = "POST /v1/sessions/"
	stepLineEnd   = "/step HTTP/1.1\r\n"
)

// parseStepHead parses the head at the front of b into h.
//
//osap:hotpath
func parseStepHead(b []byte, h *stepHead) int {
	i, r := expect(b, 0, stepLineStart)
	if r != headStep {
		return r
	}
	start := i
	for i < len(b) && isIDByte(b[i]) {
		i++
	}
	if i == len(b) {
		return headMore
	}
	if i == start {
		return headOther
	}
	h.id = b[start:i]
	if i, r = expect(b, i, stepLineEnd); r != headStep {
		return r
	}
	hosts, lengths, conns := 0, 0, 0
	h.bodyLen, h.close = 0, false
	for {
		if i == len(b) {
			return headMore
		}
		if b[i] == '\r' {
			break
		}
		start := i
		for i < len(b) && isTokenByte(b[i]) {
			i++
		}
		if i == len(b) {
			return headMore
		}
		if b[i] != ':' || i == start {
			return headOther
		}
		name := b[start:i]
		for i++; i < len(b) && (b[i] == ' ' || b[i] == '\t'); i++ {
		}
		from := i
		for i < len(b) && b[i] != '\r' {
			if !isFieldByte(b[i]) {
				return headOther
			}
			i++
		}
		if i+1 >= len(b) {
			return headMore
		}
		if b[i+1] != '\n' {
			return headOther
		}
		to := i
		for to > from && (b[to-1] == ' ' || b[to-1] == '\t') {
			to--
		}
		val := b[from:to]
		i += 2
		switch {
		case foldEq(name, "host"):
			hosts++
			if len(val) == 0 {
				return headOther
			}
			for _, c := range val {
				if !isHostByte(c) {
					return headOther
				}
			}
		case foldEq(name, "content-length"):
			lengths++
			if len(val) == 0 || len(val) > 7 {
				return headOther
			}
			n := 0
			for _, c := range val {
				if c < '0' || c > '9' {
					return headOther
				}
				n = 10*n + int(c-'0')
			}
			if n > maxStepBody {
				return headOther
			}
			h.bodyLen = n
		case foldEq(name, "connection"):
			conns++
			switch {
			case foldEq(val, "close"):
				h.close = true
			case !foldEq(val, "keep-alive"):
				return headOther
			}
		case foldEq(name, "transfer-encoding"), foldEq(name, "expect"):
			return headOther
		}
	}
	// b[i] is the blank line's CR.
	if i+1 == len(b) {
		return headMore
	}
	if b[i+1] != '\n' || hosts != 1 || lengths != 1 || conns > 1 {
		return headOther
	}
	h.headLen = i + 2
	return headStep
}

// expect matches lit at b[i:]: headStep and the index past it, headMore
// if b ends inside it, headOther if b departs from it.
//
//osap:hotpath
func expect(b []byte, i int, lit string) (int, int) {
	for k := 0; k < len(lit); k++ {
		if i+k == len(b) {
			return 0, headMore
		}
		if b[i+k] != lit[k] {
			return 0, headOther
		}
	}
	return i + len(lit), headStep
}

// isIDByte admits the bytes of a session id the routes match as they
// are: no escape, no dot, no separator to clean.
func isIDByte(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || c == '-' || c == '_'
}

// isTokenByte admits the bytes of a header field name (an RFC 7230
// token), as net/http's server requires.
func isTokenByte(c byte) bool {
	return c < 0x80 && c > ' ' && c != 0x7f && !strings.ContainsRune(`"(),/:;<=>?@[\]{}`, rune(c))
}

// isFieldByte admits a header field value's bytes: no control byte
// but a tab.
func isFieldByte(c byte) bool { return c >= ' ' && c != 0x7f || c == '\t' }

// isHostByte admits the bytes net/http accepts in a Host field.
func isHostByte(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' ||
		strings.IndexByte("!$%&'()*+,-.:;=[]_~", c) >= 0
}

// foldEq reports whether b equals the lower-case ASCII s, ignoring case.
func foldEq(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

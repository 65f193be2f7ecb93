package serve

// The step codec: the two JSON messages of POST /v1/sessions/{id}/step,
// read and written by hand so that an HTTP step costs what its bytes
// cost — no reflection, no interface boxing, no allocation on a steady
// step (DESIGN.md §7, "HTTP step anatomy").
//
// The contract is encoding/json's, which served this endpoint before:
// the decoder accepts exactly the bodies that
//
//	json.NewDecoder(io.LimitReader(body, 1<<20)).Decode(&struct{ Obs []float64 `json:"obs"` }{})
//
// accepted and decodes them to the same values, and the encoder writes
// the bytes json.NewEncoder(w).Encode wrote. encoding/json stays the
// oracle: FuzzStepRequest and TestStepResponseBytes compare the two on
// every input (stepcodec_test.go).

import (
	"io"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"
)

const (
	// maxStepBody caps how much of a request body is read and parsed.
	maxStepBody = 1 << 20
	// maxJSONDepth is encoding/json's nesting limit: a value nested deeper
	// is a syntax error, and skipValue needs no more stack than this.
	maxJSONDepth = 10000
	// Scratch grown past these by one outsized request is dropped, not
	// pooled: a pool of megabyte buffers is resident memory nobody uses.
	maxPooledBody = 1 << 16
	maxPooledObs  = 1 << 12
)

// stepScratch is what one HTTP step needs between its first byte and
// its last: the body, the decoded observation and the reply. Nothing on
// the step path retains obs, so the scratch returns to the pool as soon
// as the reply is handed to net/http.
type stepScratch struct {
	body []byte
	out  []byte
	dec  stepDecoder
}

var stepScratchPool = sync.Pool{New: func() any {
	return &stepScratch{body: make([]byte, 0, 2048), out: make([]byte, 0, 256)}
}}

// release returns the scratch to the pool.
func (sc *stepScratch) release() {
	if cap(sc.body) > maxPooledBody {
		sc.body = nil
	}
	if cap(sc.dec.obs) > maxPooledObs {
		sc.dec.obs = nil
	}
	stepScratchPool.Put(sc)
}

// readBody reads up to maxStepBody bytes of the request body
// (readBody). A read error ends the body where it struck, as it did
// under json.Decoder: a value that was complete by then still decodes,
// a cut one is a syntax error.
//
//osap:hotpath
func (sc *stepScratch) readBody(body io.Reader) {
	b, _ := readBody(sc.body, body)
	sc.body = b[:min(len(b), maxStepBody)]
}

// stepDecoder parses one step request. The result is obs[:n].
type stepDecoder struct {
	// obs holds, at index i, the last number any "obs" array of this
	// body stored at i. encoding/json decodes a repeated key into the
	// slice the earlier one left, and a null element stores nothing, so
	// `{"obs":[1,2],"obs":[null]}` is [1]; an empty array or a null in
	// place of the array starts over.
	obs     []float64
	n       int
	typeErr bool
	// nest is skipValue's stack, one bit per open container (1: object).
	nest [(maxJSONDepth + 63) / 64]uint64
}

// decode parses the first JSON value of b the way json.Decoder.Decode
// into a struct{ Obs []float64 `json:"obs"` } does and ignores what
// follows it. It returns statusOK, statusBadSyntax (not a JSON value, or
// one the body's end cut short: json.SyntaxError) or statusBadType (a
// JSON value, but not {"obs":[numbers]}: json.UnmarshalTypeError). A
// syntax error anywhere in the value wins over a type error, as it
// does there: the decoder scans the whole value first.
//
//osap:hotpath
func (d *stepDecoder) decode(b []byte) status {
	d.obs, d.n, d.typeErr = d.obs[:0], 0, false
	i := skipSpace(b, 0)
	if i == len(b) {
		return statusBadSyntax
	}
	if b[i] != '{' {
		// Not an object, so not a step; null alone decodes to no values.
		if _, ok := d.skipValue(b, i, 0); !ok {
			return statusBadSyntax
		}
		if b[i] == 'n' {
			return statusOK
		}
		return statusBadType
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return statusOK
	}
	for {
		end, val := scanKey(b, i)
		if val < 0 {
			return statusBadSyntax
		}
		key := b[i+1 : end-1]
		i = val
		var ok bool
		if isObsKey(key) {
			i, ok = d.obsValue(b, i)
		} else {
			i, ok = d.skipValue(b, i, 1)
		}
		if !ok {
			return statusBadSyntax
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return statusBadSyntax
		}
		if b[i] == '}' {
			break
		}
		if b[i] != ',' {
			return statusBadSyntax
		}
		i = skipSpace(b, i+1)
	}
	if d.typeErr {
		return statusBadType
	}
	return statusOK
}

// obsValue decodes the value of an "obs" member starting at b[i] and
// returns the index past it; false is a syntax error. Anything but an
// array of numbers and nulls is a type error, noted and parsed past.
//
//osap:hotpath
func (d *stepDecoder) obsValue(b []byte, i int) (int, bool) {
	if i == len(b) {
		return 0, false
	}
	if b[i] == 'n' {
		d.obs, d.n = d.obs[:0], 0
		return d.skipValue(b, i, 1)
	}
	if b[i] != '[' {
		d.typeErr = true
		return d.skipValue(b, i, 1)
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		d.obs, d.n = d.obs[:0], 0
		return i + 1, true
	}
	k := 0
	for {
		if i == len(b) {
			return 0, false
		}
		if k == len(d.obs) {
			d.obs = append(d.obs, 0)
		}
		switch c := b[i]; {
		case c == '-' || isDigit(c):
			end := scanNumber(b, i)
			if end < 0 {
				return 0, false
			}
			// The grammar is checked first: ParseFloat alone takes "+1",
			// ".5", "0x1p-2", "NaN". What it still refuses is out of range.
			f, err := strconv.ParseFloat(string(b[i:end]), 64)
			if err != nil {
				d.typeErr = true
			} else {
				d.obs[k] = f
			}
			i = end
		default:
			// A null stores nothing; anything else is not a number.
			d.typeErr = d.typeErr || c != 'n'
			var ok bool
			if i, ok = d.skipValue(b, i, 2); !ok {
				return 0, false
			}
		}
		k++
		i = skipSpace(b, i)
		if i == len(b) {
			return 0, false
		}
		if b[i] == ']' {
			d.n = k
			return i + 1, true
		}
		if b[i] != ',' {
			return 0, false
		}
		i = skipSpace(b, i+1)
	}
}

// skipValue checks the grammar of the JSON value starting at b[i], of
// any shape, and returns the index past it. depth counts the containers
// already open around it. It loops where a parser would recurse: its
// stack is d.nest, so a body of a million '[' costs what its bytes cost
// and is refused at maxJSONDepth like any other.
//
//osap:hotpath
func (d *stepDecoder) skipValue(b []byte, i, depth int) (int, bool) {
	base := depth
	for {
		// A value starts at b[i].
		if i == len(b) {
			return 0, false
		}
		switch c := b[i]; {
		case c == '{' || c == '[':
			if depth == maxJSONDepth {
				return 0, false
			}
			word, bit := &d.nest[depth/64], uint64(1)<<(depth%64)
			depth++
			closer := byte(']')
			*word &^= bit
			if c == '{' {
				closer = '}'
				*word |= bit
			}
			i = skipSpace(b, i+1)
			if i == len(b) {
				return 0, false
			}
			if b[i] == closer {
				i++
				depth--
				break // an empty container is a finished value
			}
			if c == '{' {
				if _, i = scanKey(b, i); i < 0 {
					return 0, false
				}
			}
			continue
		case c == '"':
			i = scanString(b, i)
		case c == '-' || isDigit(c):
			i = scanNumber(b, i)
		case c == 't':
			i = scanLiteral(b, i, "true")
		case c == 'f':
			i = scanLiteral(b, i, "false")
		case c == 'n':
			i = scanLiteral(b, i, "null")
		default:
			return 0, false
		}
		if i < 0 {
			return 0, false
		}
		// A value ended at b[i]: close every container it completes, or
		// step to the next value of the innermost one still open.
		for {
			if depth == base {
				return i, true
			}
			i = skipSpace(b, i)
			if i == len(b) {
				return 0, false
			}
			object := d.nest[(depth-1)/64]>>((depth-1)%64)&1 == 1
			if c := b[i]; c == ',' {
				i = skipSpace(b, i+1)
				if object {
					if _, i = scanKey(b, i); i < 0 {
						return 0, false
					}
				}
				break
			} else if object && c == '}' || !object && c == ']' {
				i++
				depth--
			} else {
				return 0, false
			}
		}
	}
}

// scanKey checks `"key" :` starting at b[i] and returns the index past
// the key's closing quote and the index of the member's value, or -1
// for the latter.
func scanKey(b []byte, i int) (end, val int) {
	if i == len(b) || b[i] != '"' {
		return 0, -1
	}
	if end = scanString(b, i); end < 0 {
		return 0, -1
	}
	i = skipSpace(b, end)
	if i == len(b) || b[i] != ':' {
		return 0, -1
	}
	return end, skipSpace(b, i+1)
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString checks the string whose opening quote is b[i] and returns
// the index past its closing quote, or -1. As in encoding/json, bytes
// that are not valid UTF-8 pass; control characters and unknown escapes
// do not.
func scanString(b []byte, i int) int {
	for i++; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			return i + 1
		case c < 0x20:
			return -1
		case c == '\\':
			i++
			if i == len(b) {
				return -1
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if len(b)-i <= 4 || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					return -1
				}
				i += 4
			default:
				return -1
			}
		}
	}
	return -1
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// scanNumber checks the JSON number starting at b[i] — optional minus;
// 0 or a digit string not starting with 0; optional fraction; optional
// exponent — and returns the index past it, or -1. The number ends at
// the first byte that cannot continue it; whether that byte may follow
// a value is the caller's to check.
func scanNumber(b []byte, i int) int {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i == len(b) || !isDigit(b[i]) {
		return -1
	}
	if b[i] == '0' {
		i++
	} else {
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i == len(b) || !isDigit(b[i]) {
			return -1
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return -1
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
	}
	return i
}

func scanLiteral(b []byte, i int, lit string) int {
	if len(b)-i < len(lit) || string(b[i:i+len(lit)]) != lit {
		return -1
	}
	return i + len(lit)
}

// obsFold is, letter by letter, every rune that bytes.EqualFold equates
// with "obs" — the match encoding/json applies to a key once it has
// unquoted it. So "OBS" is the obs member, and so is "obſ".
var obsFold = [3]string{"oO", "bB", "sSſ"}

// isObsKey reports whether key — the bytes between the quotes of a
// string scanString has passed — names the obs member.
func isObsKey(key []byte) bool {
	i := 0
	for _, fold := range obsFold {
		if i == len(key) {
			return false
		}
		var r rune
		switch c := key[i]; {
		case c == '\\':
			// Of the escapes only \uXXXX can spell a letter.
			if key[i+1] != 'u' {
				return false
			}
			for _, h := range key[i+2 : i+6] {
				r = r<<4 | rune(hexValue(h))
			}
			i += 6
		case c < utf8.RuneSelf:
			r = rune(c)
			i++
		default:
			var n int
			r, n = utf8.DecodeRune(key[i:])
			i += n
		}
		if !strings.ContainsRune(fold, r) {
			return false
		}
	}
	return i == len(key)
}

func hexValue(c byte) byte {
	switch {
	case c <= '9':
		return c - '0'
	case c <= 'F':
		return c - 'A' + 10
	default:
		return c - 'a' + 10
	}
}

// encode appends the step reply for res to the scratch's reply buffer
// and returns it: byte for byte what json.NewEncoder(w).Encode wrote
// for the reply struct, trailing newline included. The score is finite
// (Session.settleLocked) and the policy names need no escaping.
//
//osap:hotpath
func (sc *stepScratch) encode(res *StepResult) []byte {
	b := sc.out[:0]
	b = append(b, `{"action":`...)
	b = strconv.AppendInt(b, int64(res.Action), 10)
	b = append(b, `,"score":`...)
	b = appendJSONFloat(b, res.Decision.Score)
	b = append(b, `,"fallback":`...)
	b = strconv.AppendBool(b, res.Decision.UsedDefault)
	b = append(b, `,"fired":`...)
	b = strconv.AppendBool(b, res.Decision.Fired)
	b = append(b, `,"policy":"`...)
	b = append(b, res.Decision.Policy()...)
	b = append(b, `","step":`...)
	b = strconv.AppendInt(b, int64(res.Decision.Step), 10)
	b = append(b, `,"demoted":`...)
	b = strconv.AppendBool(b, res.Demoted())
	if res.Probation() {
		b = append(b, `,"probation":true`...)
	}
	if res.Recovered() {
		b = append(b, `,"recovered":true`...)
	}
	if res.GateAdmitted {
		b = append(b, `,"learned":true`...)
	}
	b = append(b, "}\n"...)
	sc.out = b
	return b
}

// appendJSONFloat formats a finite f as encoding/json does (the ES6
// form): plain decimal unless the exponent is below -6 or at least 21,
// then exponent form with a two-digit exponent's leading zero dropped.
func appendJSONFloat(b []byte, f float64) []byte {
	abs := f
	if abs < 0 {
		abs = -abs
	}
	if abs == 0 || 1e-6 <= abs && abs < 1e21 {
		return strconv.AppendFloat(b, f, 'f', -1, 64)
	}
	b = strconv.AppendFloat(b, f, 'e', -1, 64)
	if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

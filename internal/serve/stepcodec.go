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
	"encoding/binary"
	"io"
	"math"
	"math/bits"
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
			end, m, frac := scanNumber(b, i)
			if end < 0 {
				return 0, false
			}
			if frac >= 0 {
				f := decimalFloat(m, frac)
				if c == '-' {
					f = -f
				}
				d.obs[k] = f
			} else if f, err := strconv.ParseFloat(string(b[i:end]), 64); err == nil {
				// The grammar is checked first: ParseFloat alone takes
				// "+1", ".5", "0x1p-2", "NaN". What it still refuses is
				// out of range.
				d.obs[k] = f
			} else {
				d.typeErr = true
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
			i, _, _ = scanNumber(b, i)
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
//
// In the same pass it reads the number's magnitude as m / 10^k, m its
// digits without the point and k the count of digits after it. When
// the number has no exponent part and at most 19 digits that count —
// the integer part's unless it is 0, and every fraction digit —
// decimalFloat(m, k) is its value; otherwise k is -1 and m is not to be
// read.
func scanNumber(b []byte, i int) (end int, m uint64, k int) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i == len(b) || !isDigit(b[i]) {
		return -1, 0, 0
	}
	// 19 digits always fit a uint64; more wrap m, and the count sends
	// the number to ParseFloat.
	sig := 0
	if b[i] == '0' {
		i++
	} else {
		from := i
		i, m = scanDigits(b, i, 0)
		sig = i - from
	}
	if i < len(b) && b[i] == '.' {
		from := i + 1
		if i, m = scanDigits(b, from, m); i == from {
			return -1, 0, 0
		}
		k = i - from
	}
	if sig+k > 19 {
		k = -1
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return -1, 0, 0
		}
		for i < len(b) && isDigit(b[i]) {
			i++
		}
		k = -1
	}
	return i, m, k
}

// scanDigits reads the digit string starting at b[i] onto m, as
// 10^len·m + its value, and returns the index past it. It takes eight
// digits at a time where the body has them: a client's floats carry 16
// or 17 digits each.
func scanDigits(b []byte, i int, m uint64) (int, uint64) {
	for len(b)-i >= 8 {
		v := binary.LittleEndian.Uint64(b[i:])
		// Eight ASCII digits: each byte's high nibble is 3, and adding 6
		// keeps it 3.
		if v&0xF0F0F0F0F0F0F0F0|(v+0x0606060606060606)&0xF0F0F0F0F0F0F0F0>>4 != 0x3333333333333333 {
			break
		}
		// Pairs, then fours, then all eight: the first digit is the low
		// byte, the most significant.
		v = (v & 0x0F0F0F0F0F0F0F0F) * (10<<8 + 1) >> 8
		v = (v & 0x00FF00FF00FF00FF) * (100<<16 + 1) >> 16
		v = (v & 0x0000FFFF0000FFFF) * (10000<<32 + 1) >> 32
		m = 100000000*m + v
		i += 8
	}
	for i < len(b) && isDigit(b[i]) {
		m = 10*m + uint64(b[i]-'0')
		i++
	}
	return i, m
}

// pow10 and pow10u hold 10^k for k ≤ 19, every one exact in both.
var (
	pow10 = [20]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
	pow10u = [20]uint64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
		1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}
)

// decimalFloat returns m / 10^k rounded to the nearest float64, ties to
// even — what strconv.ParseFloat returns for the decimal — for m < 10^19
// and 0 ≤ k ≤ 19 (scanNumber's exact case).
//
// Up to 2^53 both m and 10^k are float64s, so one division rounds once:
// strconv's own exact path. Above it, m·2^s is divided by 10^k in
// integers, s chosen so that the quotient q has 63 or 64 bits; q's top
// 53 bits are the significand, and the bits below them with the
// remainder decide the rounding. The value lies between 2^53/10^19 and
// 10^19, so the result is a normal number.
func decimalFloat(m uint64, k int) float64 {
	if m <= 1<<53 {
		return float64(int64(m)) / pow10[k]
	}
	div := pow10u[k]
	// m·2^s < 2^(63+len(div)) ≤ div·2^64: the quotient fits 64 bits, and
	// it is at least 2^(len(m)-1+s-len(div)) = 2^62.
	s := 63 + bits.Len64(div) - bits.Len64(m)
	var hi, lo uint64
	if s >= 64 {
		hi = m << (s - 64)
	} else {
		hi, lo = m>>(64-s), m<<s
	}
	q, rem := bits.Div64(hi, lo, div)
	drop := bits.Len64(q) - 53 // 10 or 11
	mant, low, half := q>>drop, q&(1<<drop-1), uint64(1)<<(drop-1)
	if low > half || low == half && (rem != 0 || mant&1 == 1) {
		mant++
	}
	// The value is mant·2^(drop-s), mant in [2^52, 2^53] after rounding.
	e := 52 + drop - s
	if mant == 1<<53 {
		mant >>= 1
		e++
	}
	return math.Float64frombits(uint64(e+1023)<<52 | mant&(1<<52-1))
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

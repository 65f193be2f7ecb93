package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"

	"osap/internal/abr"
	"osap/internal/chaos"
	"osap/internal/core"
	"osap/internal/experiments"
	"osap/internal/mdp"
	"osap/internal/serve/proto"
	"osap/internal/stats"
)

// stepRequest and stepResponse are the step endpoint's two messages as
// encoding/json sees them: what served the endpoint before the codec,
// and the oracle the codec is tested against.
type stepRequest struct {
	Obs []float64 `json:"obs"`
}

type stepResponse struct {
	Action    int     `json:"action"`
	Score     float64 `json:"score"`
	Fallback  bool    `json:"fallback"`
	Fired     bool    `json:"fired"`
	Policy    string  `json:"policy"`
	Step      int     `json:"step"`
	Demoted   bool    `json:"demoted"`
	Probation bool    `json:"probation,omitempty"`
	Recovered bool    `json:"recovered,omitempty"`
	Learned   bool    `json:"learned,omitempty"`
}

// oracleDecode is the decode the endpoint used to do.
func oracleDecode(body []byte) ([]float64, status) {
	var req stepRequest
	err := json.NewDecoder(io.LimitReader(bytes.NewReader(body), 1<<20)).Decode(&req)
	var typeErr *json.UnmarshalTypeError
	switch {
	case err == nil:
		return req.Obs, statusOK
	case errors.As(err, &typeErr):
		return nil, statusBadType
	default:
		return nil, statusBadSyntax
	}
}

// checkAgainstOracle decodes body both ways and reports any difference.
func checkAgainstOracle(t *testing.T, sc *stepScratch, body []byte) {
	t.Helper()
	sc.readBody(bytes.NewReader(body))
	got := sc.dec.decode(sc.body)
	want, wantStatus := oracleDecode(body)
	show := body
	if len(show) > 80 {
		show = show[:80]
	}
	if got != wantStatus {
		t.Fatalf("%q: decode status %d, encoding/json says %d", show, got, wantStatus)
	}
	if got != statusOK {
		return
	}
	obs := sc.dec.obs[:sc.dec.n]
	if len(obs) != len(want) {
		t.Fatalf("%q: %d values, encoding/json decodes %d", show, len(obs), len(want))
	}
	for i := range obs {
		if math.Float64bits(obs[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%q: value %d is %v, encoding/json decodes %v", show, i, obs[i], want[i])
		}
	}
}

func benchBody(t testing.TB) []byte {
	t.Helper()
	body, err := json.Marshal(map[string][]float64{"obs": obsStream(3, abr.ObsDim, 1)[0]})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// stepRequestCorpus is the seed corpus of FuzzStepRequest: the shapes
// whose treatment by encoding/json is easy to get wrong by hand.
func stepRequestCorpus(t testing.TB) [][]byte {
	deep := func(n int) []byte {
		return []byte(`{"x":` + strings.Repeat("[", n) + strings.Repeat("]", n) + `}`)
	}
	overCap := append([]byte(`{"obs":[`), bytes.Repeat([]byte("0,"), 1<<19)...)
	corpus := [][]byte{
		benchBody(t),
		nil,
		[]byte(" \n\t"),
		[]byte(`{"obs":[1,2,3]}`),
		[]byte(`{"OBS":[1]}`), []byte(`{"Obs":[1]}`), []byte(`{"obſ":[1]}`), []byte(`{"ob\u017f":[1]}`),
		[]byte(`{"\u006f\u0062\u0073":[1]}`), []byte(`{"ob\u0073x":[1]}`), []byte(`{"o\bs":[1]}`), []byte(`{"obs\ud83d\ude00":[1]}`),
		[]byte(`{"obK":[1]}`), []byte("{\"ob\xc5\":[1]}"), []byte(`{"ob":[1]}`), []byte(`{"":[1]}`),
		[]byte(`null`), []byte(`nullx`), []byte(`null x`), []byte(`{}`), []byte(`{"obs":null}`), []byte(`{"obs":[]}`),
		[]byte(`{"obs":[1e999]}`), []byte(`{"obs":[-1e999]}`), []byte(`{"obs":[1e-999]}`), []byte(`{"obs":[01]}`),
		[]byte(`{"obs":[.5]}`), []byte(`{"obs":[+1]}`), []byte(`{"obs":[NaN]}`), []byte(`{"obs":[1.]}`), []byte(`{"obs":[1e]}`),
		[]byte(`{"obs":[-]}`), []byte(`{"obs":[-0]}`), []byte(`{"obs":[0x10]}`), []byte(`{"obs":[1_0]}`), []byte(`{"obs":[Infinity]}`),
		[]byte(`{"obs":[-0.0e-0, 1E+2, 123456789012345678901234567890123456789012345678901234567890]}`),
		[]byte(`{"obs":[1,2,3],"obs":[4]}`), []byte(`{"obs":[1,2,3],"obs":[null,null]}`), []byte(`{"obs":[1,2,3],"obs":[null,null,null,null]}`),
		[]byte(`{"obs":[1,2,3],"obs":[],"obs":[null]}`), []byte(`{"obs":[1,2,3],"obs":null,"obs":[null]}`), []byte(`{"obs":[1,2],"OBS":[null,5,6]}`),
		[]byte(`{"obs":[1,null,3]}`), []byte(`{"obs":[1,"x",3]}`), []byte(`{"obs":[1,true]}`), []byte(`{"obs":[[1]]}`), []byte(`{"obs":[{}]}`),
		[]byte(`{"obs":"x"}`), []byte(`{"obs":1}`), []byte(`{"obs":{}}`), []byte(`{"obs":true}`), []byte(`{"obs":[1,"x",}`),
		[]byte(`{"a":{"b":[1,{"c":null,"d":[[],{}]}],"e":"\u00e9\n"},"obs":[7],"z":false}`),
		[]byte(`{"obs":[1]} trailing`), []byte(`{"obs":[1]}{"obs":[2]}`), []byte(`{"obs":[1]`), []byte(`{"obs":[1],}`), []byte(`{"obs":[1,]}`),
		[]byte(`{"obs" [1]}`), []byte(`{obs:[1]}`), []byte(`{"obs":[1] "x":1}`), []byte("{\"a\":\"\x01\"}"), []byte(`{"a":"\x"}`), []byte(`{"a":"\u12g4"}`),
		[]byte(`[1,2]`), []byte(`[1,2`), []byte(`3`), []byte(`3x`), []byte(`-`), []byte(`"s"`), []byte(`"s`), []byte(`true`), []byte(`tru`), []byte(`trux`),
		[]byte("\xef\xbb\xbf{}"), []byte(`{"a":tru}`), []byte(`{"a":nul}`),
		deep(maxJSONDepth - 1), deep(maxJSONDepth),
		bytes.Repeat([]byte("["), 1<<20),
		append(overCap, []byte("0]}")...),
		append(append([]byte(`{"obs":[1]}`), bytes.Repeat([]byte(" "), 1<<20)...), 'x'),
		// Halfway between two float64s: ties go to the even significand.
		[]byte(`{"obs":[9007199254740993,9007199254740995,-9007199254740993]}`),
		[]byte(`{"obs":[4503599627370496.5,4503599627370497.5,4503599627370496.51,0.30000000000000004]}`),
	}
	return corpus
}

// stepNumberEdges are the numbers TestStepNumberMatchesParseFloat names:
// ties, decimals a hair above a tie (where only the remainder of the
// division rounds up), the 19-digit limit of the decoder's own
// conversion, signed zeros and the smallest fractions it converts
// itself.
var stepNumberEdges = []string{
	"9007199254740993", "9007199254740995", "9007199254740992", "9007199254740994", "-9007199254740993",
	"4503599627370496.5", "4503599627370497.5", "4503599627370496.51", "4503599627370496.49",
	"0.30000000000000004", "0.1", "0.2", "0.3", "1.7976931348623157",
	"1234567890123456789", "12345678901234567890", "9999999999999999999", "99999999999999999999",
	"0.1234567890123456789", "0.12345678901234567891", "123456789.0123456789", "1234567890.123456789",
	"18446744073709551615", "18446744073709551616",
	"0", "-0", "0.0", "-0.0", "-0.0000000000000000000", "0.00000000000000000000",
	"0.4319656596841454921", "10981631610.79824543", "387.2395186846770514", "3855991.540524690645",
	"0.0000000000000000001", "0.00000000000000000001", "0.0000000000000000009", "0.0000000000000000010",
	"-0.0000000000000000001", "0.9999999999999999999", "0.99999999999999999999",
	"1e-19", "1E-19", "1e+2", "1e999", "-1e999", "1e-999", "5e-324", "2.2250738585072014e-308",
}

// TestStepNumberMatchesParseFloat: every number the decoder converts
// itself is the float64 strconv.ParseFloat returns, bit for bit — over
// shortest and fixed-precision forms of random float64s, random
// decimals of 1–21 significant digits with leading and trailing zeros,
// 19-digit decimals beside a tie, and the named edges.
func TestStepNumberMatchesParseFloat(t *testing.T) {
	var (
		sc    = stepScratchPool.New().(*stepScratch)
		nums  []string
		body  []byte
		count int
	)
	flush := func() {
		body = append(body[:0], `{"obs":[`...)
		for i, n := range nums {
			if i > 0 {
				body = append(body, ',')
			}
			body = append(body, n...)
		}
		body = append(body, "]}"...)
		got := sc.dec.decode(body)
		for i, n := range nums {
			want, err := strconv.ParseFloat(n, 64)
			if err != nil {
				if got != statusBadType {
					t.Fatalf("%s: ParseFloat says %v, decode status %d", n, err, got)
				}
				continue
			}
			if got != statusOK {
				t.Fatalf("%s: decode status %d, ParseFloat says %v", n, got, want)
			}
			if math.Float64bits(sc.dec.obs[i]) != math.Float64bits(want) {
				t.Fatalf("%s: decoded %v (%#x), ParseFloat says %v (%#x)",
					n, sc.dec.obs[i], math.Float64bits(sc.dec.obs[i]), want, math.Float64bits(want))
			}
		}
		count += len(nums)
		nums = nums[:0]
	}
	add := func(n string) {
		if nums = append(nums, n); len(nums) == 64 {
			flush()
		}
	}
	// Out-of-range numbers are type errors that fail the whole body, so
	// each edge goes alone.
	for _, n := range stepNumberEdges {
		add(n)
		flush()
	}

	rng := stats.NewRNG(55)
	rounds := 50000
	if testing.Short() {
		rounds = 5000
	}
	for r := 0; r < rounds; r++ {
		// A float64 of any bit pattern, then one whose magnitude is near
		// 1, where most of the decoder's own conversions land.
		var f float64
		if r%2 == 0 {
			f = math.Float64frombits(rng.Uint64())
		} else {
			f = math.Ldexp(float64(rng.Uint64()>>11), -53+rng.Intn(141)-70)
			if rng.Intn(2) == 0 {
				f = -f
			}
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		add(strconv.FormatFloat(f, 'g', -1, 64))
		if r%8 == 0 || math.Abs(f) < 1e25 && math.Abs(f) > 1e-25 {
			for prec := -1; prec <= 19; prec++ {
				add(strconv.FormatFloat(f, 'f', prec, 64))
			}
		}

		// A decimal of 1–21 significant digits, the point anywhere from
		// five leading zeros before them to five trailing zeros after.
		nd := 1 + rng.Intn(21)
		digits := make([]byte, 0, 32)
		digits = append(digits, byte('1'+rng.Intn(9)))
		for len(digits) < nd {
			digits = append(digits, byte('0'+rng.Intn(10)))
		}
		var num []byte
		if rng.Intn(2) == 0 {
			num = append(num, '-')
		}
		switch point := rng.Intn(nd+11) - 5; {
		case point <= 0:
			num = append(num, "0."...)
			num = append(num, strings.Repeat("0", -point)...)
			num = append(num, digits...)
		case point >= nd:
			num = append(num, digits...)
			num = append(num, strings.Repeat("0", point-nd)...)
			if rng.Intn(2) == 0 {
				num = append(num, ".0"...)
			}
		default:
			num = append(num, digits[:point]...)
			num = append(num, '.')
			num = append(num, digits[point:]...)
			num = append(num, strings.Repeat("0", rng.Intn(4))...)
		}
		add(string(num))
	}

	// The 19-digit decimals on either side of a point halfway between
	// two float64s: h = (2·mant+1)/2^p, whose digits are (2·mant+1)·5^p.
	for r := 0; r < rounds/10; r++ {
		p := 1 + rng.Intn(54)
		h := new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(p)), nil)
		h.Mul(h, new(big.Int).SetUint64(2*(1<<52|rng.Uint64()>>12)+1))
		digits := h.String()
		intLen := len(digits) - p
		if len(digits) <= 19 || intLen < 1 {
			continue
		}
		below, _ := new(big.Int).SetString(digits[:19], 10)
		above := new(big.Int).Add(below, big.NewInt(1))
		for _, d := range []string{below.String(), above.String()} {
			if len(d) != 19 {
				continue
			}
			if intLen >= 19 {
				add(d + strings.Repeat("0", intLen-19))
			} else {
				add(d[:intLen] + "." + d[intLen:])
			}
		}
	}
	flush()
	t.Logf("%d numbers decoded as ParseFloat reads them", count)
}

// FuzzStepRequest: on arbitrary bytes the codec's decoder and
// encoding/json agree on accept or reject, on the kind of rejection,
// and on every decoded bit.
func FuzzStepRequest(f *testing.F) {
	for _, body := range stepRequestCorpus(f) {
		f.Add(body)
	}
	sc := stepScratchPool.New().(*stepScratch)
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, sc, body)
	})
}

// TestStepDecodeTokenSoup: short random sequences of JSON tokens reach
// the corners of the grammar — a comma before a brace, a key where a
// value belongs, a repeated obs after a null one — far sooner than
// byte mutation does. Every one must decode as encoding/json decodes it.
func TestStepDecodeTokenSoup(t *testing.T) {
	tokens := []string{"{", "}", "[", "]", ",", ":", " ", `"obs"`, `"OBS"`, `"ob\u017f"`, `"x"`, `"\n"`,
		"null", "true", "false", "0", "-1.5", "2e3", "1e999", "01", "-", "1.", "\"", "nul"}
	rng := stats.NewRNG(24)
	sc := stepScratchPool.New().(*stepScratch)
	var body []byte
	for round := 0; round < 200000; round++ {
		body = body[:0]
		if rng.Intn(2) == 0 {
			body = append(body, `{"obs":`...) // half of them start like a step
		}
		for n := rng.Intn(12); n > 0; n-- {
			body = append(body, tokens[rng.Intn(len(tokens))]...)
		}
		checkAgainstOracle(t, sc, body)
	}
}

// TestStepDecoderReusesScratch: a pooled decoder carries nothing from
// one body to the next — not the values of a longer one, and not the
// state of one it refused half way.
func TestStepDecoderReusesScratch(t *testing.T) {
	sc := stepScratchPool.New().(*stepScratch)
	corpus := stepRequestCorpus(t)
	for round := 0; round < 2; round++ {
		for _, body := range corpus {
			checkAgainstOracle(t, sc, body)
		}
	}
	sc.release()
	if sc.body != nil || cap(sc.dec.obs) > maxPooledObs {
		t.Errorf("scratch kept %d body bytes and %d values after a 1 MiB body", cap(sc.body), cap(sc.dec.obs))
	}
}

// TestStepDecodeDeepBodyZeroAlloc: nesting costs bits in the scratch,
// not stack and not heap.
func TestStepDecodeDeepBodyZeroAlloc(t *testing.T) {
	sc := stepScratchPool.New().(*stepScratch)
	body := bytes.Repeat([]byte("["), 1<<20)
	allocs := testing.AllocsPerRun(3, func() {
		if sc.dec.decode(body) != statusBadSyntax {
			t.Fatal("1 MiB of '[' decoded")
		}
	})
	if allocs != 0 {
		t.Errorf("decoding 1 MiB of '[' allocates %.0f times, want 0", allocs)
	}
}

// TestObsKeyFold pins obsFold to the fold orbits bytes.EqualFold walks.
func TestObsKeyFold(t *testing.T) {
	for i, r := range "obs" {
		orbit := string(r)
		for f := unicode.SimpleFold(r); f != r; f = unicode.SimpleFold(f) {
			orbit += string(f)
		}
		if len(orbit) != len(obsFold[i]) {
			t.Errorf("obsFold[%d] = %q, the letter's orbit is %q", i, obsFold[i], orbit)
		}
		for _, f := range orbit {
			if !strings.ContainsRune(obsFold[i], f) {
				t.Errorf("obsFold[%d] = %q lacks %q", i, obsFold[i], f)
			}
		}
	}
}

// TestStepResponseBytes: the encoder's output is json.Encoder's, byte
// for byte.
func TestStepResponseBytes(t *testing.T) {
	scores := []float64{0, math.Copysign(0, -1), 1e-7, 1e-6, 1e21, 1e20, 5e-324, math.MaxFloat64,
		0.1 + 0.2, -1e-7, -1e21, 1.5e-9, 123456.789, 1e-10, 9.999999e-7, 1e100, 2.5e-300}
	sc := stepScratchPool.New().(*stepScratch)
	var want bytes.Buffer
	for _, score := range scores {
		for flags := 0; flags < 1<<7; flags++ {
			bit := func(i int) bool { return flags>>i&1 == 1 }
			// Bits 3..6 pick the transition: every (from, to) pair.
			res := StepResult{
				Action:       flags % 7,
				Decision:     core.Decision{Score: score, UsedDefault: bit(0), Fired: bit(1), Step: 1000 * flags},
				From:         sessionMode(flags >> 3 & 3),
				To:           sessionMode(flags >> 5 & 3),
				GateAdmitted: bit(2),
			}
			want.Reset()
			if err := json.NewEncoder(&want).Encode(stepResponse{
				Action:    res.Action,
				Score:     res.Decision.Score,
				Fallback:  res.Decision.UsedDefault,
				Fired:     res.Decision.Fired,
				Policy:    res.Decision.Policy(),
				Step:      res.Decision.Step,
				Demoted:   res.Demoted(),
				Probation: res.Probation(),
				Recovered: res.Recovered(),
				Learned:   res.GateAdmitted,
			}); err != nil {
				t.Fatal(err)
			}
			if got := sc.encode(&res); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("score %v flags %07b:\n got %s\nwant %s", score, flags, got, want.Bytes())
			}
		}
	}
	// The encoder writes the policy name between quotes as it is.
	for _, usedDefault := range []bool{false, true} {
		name := core.Decision{UsedDefault: usedDefault}.Policy()
		if quoted, err := json.Marshal(name); err != nil || string(quoted) != `"`+name+`"` {
			t.Errorf("policy name %q needs escaping: %s", name, quoted)
		}
	}
}

// TestServedScoreIsFinite: the encoder has no answer for NaN or Inf and
// needs none — a non-finite score demotes the session on the step that
// produced it, and the reply carries the safe decision's 0, then and on
// every shadow step after it.
func TestServedScoreIsFinite(t *testing.T) {
	for _, kind := range []chaos.Kind{chaos.NaNScore, chaos.InfScore} {
		for _, readmitL := range []int{0, 3} {
			const faultStep = 2
			_, ts := newTestServerGuard(t, GuardConfig{Probation: experiments.Probation{ReadmitL: readmitL, ReadmitCap: -1}}, Config{
				WrapGuard: func(_ uint64, g *core.Guard) {
					script(g, chaos.Fault{Step: faultStep, Kind: kind})
				},
			})
			cr := createSession(t, ts.URL, SchemeND)
			for i := 0; i < 6; i++ {
				resp, body := postJSON(t, ts.URL+"/v1/sessions/"+cr.ID+"/step", map[string][]float64{"obs": make([]float64, abr.ObsDim)})
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%v step %d: status %d: %s", kind, i, resp.StatusCode, body)
				}
				var sr stepResponse
				if err := json.Unmarshal(body, &sr); err != nil {
					t.Fatalf("%v step %d: reply is not JSON: %v (%s)", kind, i, err, body)
				}
				if i == faultStep && (!sr.Demoted || sr.Score != 0 || !bytes.Contains(body, []byte(`"score":0,`))) {
					t.Fatalf("%v: the faulting step's reply is %s, want demoted with score 0", kind, body)
				}
			}
		}
	}
}

// replayBody is a request body that can be rewound and read again.
type replayBody struct{ bytes.Reader }

func (*replayBody) Close() error { return nil }

// replyStub is a ResponseWriter that keeps the last reply and nothing
// else.
type replyStub struct {
	header http.Header
	code   int
	body   []byte
}

func (w *replyStub) Header() http.Header  { return w.header }
func (w *replyStub) WriteHeader(code int) { w.code = code }
func (w *replyStub) Write(b []byte) (int, error) {
	w.body = append(w.body[:0], b...)
	return len(b), nil
}

// TestHTTPStepZeroAlloc: a steady HTTP step allocates nothing between
// net/http handing handleStep the request and handleStep handing back
// the reply.
func TestHTTPStepZeroAlloc(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	raw := benchBody(t)
	for _, scheme := range []string{SchemeND, SchemeAEns} {
		sess, err := s.createSession(scheme)
		if err != nil {
			t.Fatal(err)
		}
		body := &replayBody{}
		r := httptest.NewRequest(http.MethodPost, "/v1/sessions/"+sess.ID()+"/step", nil)
		r.SetPathValue("id", sess.ID())
		r.Body = body
		w := &replyStub{header: http.Header{}, body: make([]byte, 0, 512)}
		step := func() {
			body.Reset(raw)
			s.handleStep(w, r)
		}
		for i := 0; i < 50; i++ { // warm scratch, pools and histograms
			step()
		}
		// Under the race detector the scratch pool loses a quarter of its
		// Puts on purpose; the steps still run, for the detector's sake.
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 && !raceEnabled {
			t.Errorf("%s: handleStep allocates %.2f/op, want 0", scheme, allocs)
		}
		var sr stepResponse
		if err := json.Unmarshal(w.body, &sr); err != nil || w.code != 0 || sr.Step != 250 {
			t.Errorf("%s: last reply %q (WriteHeader %d): %v", scheme, w.body, w.code, err)
		}
		if ct := w.header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", scheme, ct)
		}
	}
}

// TestStepTransportsAgree: HTTP and the binary connection are two
// codecs over one Server.step. The same tape stepped over each, against
// one server, yields the decisions of a sequential guard, bit for bit,
// and moves the same counters by the same amounts.
func TestStepTransportsAgree(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go s.ServeBinary(ln) //nolint:errcheck // ends with the listener
	bc := dialBinary(t, ln.Addr().String())
	defer bc.nc.Close()

	// What one step must move by exactly one, whichever codec brought
	// it: decisions, the version's decisions, the "step" endpoint's
	// latency series as /metrics renders it and the generation's
	// histogram, batches flushed.
	type counts [5]uint64
	read := func() counts {
		gen := s.rollout.Active()
		return counts{s.metrics.Decisions.Load(), gen.stats.Decisions.Load(),
			promCounter(t, s, `osap_request_duration_seconds_count{endpoint="step"}`),
			gen.stats.Latency.Count(), s.metrics.BatchSize.Count()}
	}
	moved := func(after, before counts) counts {
		for i := range after {
			after[i] -= before[i]
		}
		return after
	}
	const steps = 40
	for cid, scheme := range []string{SchemeND, SchemeAEns, SchemeVEns} {
		tape := obsStream(uint64(20+cid), abr.ObsDim, steps)
		ref, err := s.factory.NewGuard(scheme)
		if err != nil {
			t.Fatal(err)
		}
		cr := createSession(t, ts.URL, scheme)
		bc.open(uint32(cid), scheme)
		for i, obs := range tape {
			want := ref.Decide(obs)
			wantAction := mdp.ArgmaxAction(want.Probs)

			before := read()
			resp, body := postJSON(t, ts.URL+"/v1/sessions/"+cr.ID+"/step", map[string][]float64{"obs": obs})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s step %d over HTTP: status %d: %s", scheme, i, resp.StatusCode, body)
			}
			var sr stepResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			afterHTTP := read()
			d, err := bc.step(uint32(cid), uint32(i+1), obs)
			if err != nil {
				t.Fatalf("%s step %d over binary: %v", scheme, i, err)
			}
			afterBinary := read()

			if sr.Action != wantAction || sr.Step != want.Step || sr.Fallback != want.UsedDefault || sr.Fired != want.Fired ||
				math.Float64bits(sr.Score) != math.Float64bits(want.Score) || sr.Demoted {
				t.Fatalf("%s step %d over HTTP: %+v, sequential guard decides %+v (action %d)", scheme, i, sr, want, wantAction)
			}
			if int(d.Action) != wantAction || int(d.Step) != want.Step || (d.Flags&proto.FlagFallback != 0) != want.UsedDefault ||
				(d.Flags&proto.FlagFired != 0) != want.Fired || math.Float64bits(d.Score) != math.Float64bits(want.Score) ||
				d.Flags&proto.FlagDemoted != 0 {
				t.Fatalf("%s step %d over binary: %+v, sequential guard decides %+v (action %d)", scheme, i, d, want, wantAction)
			}
			one := counts{1, 1, 1, 1, 1}
			if got := moved(afterHTTP, before); got != one {
				t.Fatalf("%s step %d over HTTP moved [decisions version step-hist gen-hist batches] by %v, want all 1", scheme, i, got)
			}
			if got := moved(afterBinary, afterHTTP); got != one {
				t.Fatalf("%s step %d over binary moved [decisions version step-hist gen-hist batches] by %v, want all 1", scheme, i, got)
			}
		}
	}
}

// TestStepStatusTable: what the step endpoint answers to a request it
// does not serve, and how it counts the bodies among them.
func TestStepStatusTable(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	live := createSession(t, ts.URL, SchemeND)
	closed := createSession(t, ts.URL, SchemeND)
	// A session closed under a step that had already looked it up: close
	// it but leave it in the table, which no API call can do.
	sess, ok := s.table.Get(closed.ID)
	if !ok {
		t.Fatal("could not close the session")
	}
	sess.close()
	good := string(benchBody(t))
	post := func(id, body string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions/"+id+"/step", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(out)
	}
	var bodyBytes uint64
	rejects := [len(httpStepRejectReasons)]uint64{}
	for _, tc := range []struct {
		name, id, body string
		code           int
		errPrefix      string
		reason         int // index into HTTPStepRejects, -1: the body was not judged
	}{
		{"served", live.ID, good, http.StatusOK, "", -1},
		{"served, key folded, unknown members", live.ID, `{"junk":{"a":[1,"x"]},"OBS":` + good[len(`{"obs":`):], http.StatusOK, "", -1},
		{"malformed JSON", live.ID, "{nope", http.StatusBadRequest, "decode request: ", rejectSyntax},
		{"empty body", live.ID, "", http.StatusBadRequest, "decode request: ", rejectSyntax},
		{"cut body", live.ID, good[:len(good)/2], http.StatusBadRequest, "decode request: ", rejectSyntax},
		{"obs not an array", live.ID, `{"obs":"x"}`, http.StatusBadRequest, "decode request: ", rejectType},
		{"number out of range", live.ID, `{"obs":[1e999]}`, http.StatusBadRequest, "decode request: ", rejectType},
		{"body not an object", live.ID, `[1,2,3]`, http.StatusBadRequest, "decode request: ", rejectType},
		{"wrong dimension", live.ID, `{"obs":[1,2,3]}`, http.StatusBadRequest, fmt.Sprintf("obs has 3 values, want %d", abr.ObsDim), rejectDim},
		{"no obs", live.ID, `{}`, http.StatusBadRequest, fmt.Sprintf("obs has 0 values, want %d", abr.ObsDim), rejectDim},
		{"null", live.ID, `null`, http.StatusBadRequest, fmt.Sprintf("obs has 0 values, want %d", abr.ObsDim), rejectDim},
		{"unknown id", "nope", good, http.StatusNotFound, "unknown session", -2},
		{"closed session", closed.ID, good, http.StatusGone, ErrSessionClosed.Error(), -1},
	} {
		resp, out := post(tc.id, tc.body)
		if resp.StatusCode != tc.code {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, resp.StatusCode, tc.code, out)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s: Content-Type %q", tc.name, ct)
		}
		if tc.code != http.StatusOK {
			var er errorResponse
			if err := json.Unmarshal([]byte(out), &er); err != nil || !strings.HasPrefix(er.Error, tc.errPrefix) {
				t.Errorf("%s: error body %q, want prefix %q", tc.name, out, tc.errPrefix)
			}
		}
		if tc.reason != -2 { // an unknown id is answered before its body is read
			bodyBytes += uint64(len(tc.body))
		}
		if tc.reason >= 0 {
			rejects[tc.reason]++
		}
	}
	if got := s.metrics.HTTPStepBodyBytes.Load(); got != bodyBytes {
		t.Errorf("HTTPStepBodyBytes = %d, want %d", got, bodyBytes)
	}
	for i, reason := range httpStepRejectReasons {
		if got := s.metrics.HTTPStepRejects[i].Load(); got != rejects[i] {
			t.Errorf("HTTPStepRejects[%s] = %d, want %d", reason, got, rejects[i])
		}
	}
	if got := s.metrics.Decisions.Load(); got != 2 {
		t.Errorf("Decisions = %d, want 2", got)
	}
	_, prom := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		fmt.Sprintf("osap_http_step_body_bytes_total %d\n", bodyBytes),
		fmt.Sprintf("osap_http_step_rejects_total{reason=\"syntax\"} %d\n", rejects[rejectSyntax]),
		fmt.Sprintf("osap_http_step_rejects_total{reason=\"type\"} %d\n", rejects[rejectType]),
		fmt.Sprintf("osap_http_step_rejects_total{reason=\"dim\"} %d\n", rejects[rejectDim]),
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}

	// Draining: 503 + Retry-After, before the id is looked at.
	if err := s.Drain(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{live.ID, "nope"} {
		resp, out := post(id, good)
		if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" || !strings.Contains(out, "draining") {
			t.Errorf("draining, id %q: status %d, Retry-After %q, body %s", id, resp.StatusCode, resp.Header.Get("Retry-After"), out)
		}
	}
	if got := s.metrics.DrainRejected.Load(); got != 2 {
		t.Errorf("DrainRejected = %d, want 2", got)
	}
}

// TestDrainNotHostageToStalledBody: a client that stops half way
// through a step or a create body holds nothing Drain waits for. The
// drain finishes at once, and the request, when its body does arrive,
// is told the server is draining — whether it is the first request on
// its connection (net/http reads the body the server asked for) or a
// later one on a connection a step took over, which the drain leaves
// open: a step there is read by the owned connection, a create goes
// back to net/http.
func TestDrainNotHostageToStalledBody(t *testing.T) {
	for _, tc := range []struct {
		name, path string
		body       []byte
		owned      bool   // a step before it took the connection over
		reading    string // a frame on the handler's stack while it waits for the rest of the body
	}{
		{"step", "/v1/sessions/{id}/step", benchBody(t), false, "serve.readBody("},
		{"create", "/v1/sessions", []byte(`{"scheme":"` + SchemeAEns + `"}`), false, "(*Server).handleCreate("},
		{"step on an owned connection", "/v1/sessions/{id}/step", benchBody(t), true, "(*httpConn).run("},
		{"create on an owned connection", "/v1/sessions", []byte(`{"scheme":"` + SchemeAEns + `"}`), true, "(*Server).handleCreate("},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{})
			cr := createSession(t, ts.URL, SchemeND)
			nc, err := net.Dial("tcp", ts.Listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer nc.Close()
			br := bufio.NewReader(nc)
			if tc.owned {
				if _, err := nc.Write(rawStepRequest(cr.ID, benchBody(t))); err != nil {
					t.Fatal(err)
				}
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
			head := fmt.Sprintf("POST %s HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
				strings.ReplaceAll(tc.path, "{id}", cr.ID), len(tc.body))
			if _, err := nc.Write(append([]byte(head), tc.body[:len(tc.body)/2]...)); err != nil {
				t.Fatal(err)
			}
			// Wait until the handler is past its checks and blocked on the
			// missing half.
			stacks := make([]byte, 1<<20)
			for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
				if bytes.Contains(stacks[:runtime.Stack(stacks, true)], []byte(tc.reading)) {
					break
				}
				if time.Now().After(deadline) {
					t.Fatal("the handler never reached its body read")
				}
			}

			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			start := time.Now()
			if err := s.Drain(ctx, nil); err != nil {
				t.Fatalf("drain with a stalled body in flight: %v", err)
			}
			if took := time.Since(start); took > time.Second {
				t.Fatalf("drain took %v with a stalled body in flight", took)
			}

			if _, err := nc.Write(tc.body[len(tc.body)/2:]); err != nil {
				t.Fatal(err)
			}
			resp, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			out, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
				t.Fatalf("stalled request completed after drain: status %d, Retry-After %q, body %s; want 503 with Retry-After",
					resp.StatusCode, resp.Header.Get("Retry-After"), out)
			}
		})
	}
}

package serve

import (
	"bufio"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram()
	// 90 fast observations, 10 slow ones.
	for i := 0; i < 90; i++ {
		h.Observe(40e-6) // 40 µs → bucket le=5e-5
	}
	for i := 0; i < 10; i++ {
		h.Observe(0.2) // → bucket le=0.25
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d, want 100", h.Count())
	}
	if got, want := h.Sum(), 90*40e-6+10*0.2; math.Abs(got-want) > 1e-9 {
		t.Errorf("Sum = %v, want %v", got, want)
	}
	if q := h.Quantile(0.5); q < 2.5e-5 || q > 5e-5 {
		t.Errorf("p50 = %v, want within (2.5e-5, 5e-5]", q)
	}
	if q := h.Quantile(0.99); q < 0.1 || q > 0.25 {
		t.Errorf("p99 = %v, want within (0.1, 0.25]", q)
	}
}

func TestHistogramOverflowGoesToInf(t *testing.T) {
	h := NewHistogram()
	h.Observe(30) // beyond the last 1 s bound
	if got := h.counts[len(latencyBuckets)].Load(); got != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", got)
	}
}

// promLine matches one Prometheus text-format sample line:
// metric_name{label="v",...} value
var promLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? (NaN|[+-]?Inf|[+-]?[0-9]*\.?[0-9]+([eE][+-]?[0-9]+)?)$`)

// TestWritePromParsesAsPrometheusText renders a populated registry and
// validates the exposition format line by line: every sample matches
// the grammar, every sample's family has HELP/TYPE headers, histogram
// buckets are cumulative and end in +Inf, and _count equals the +Inf
// bucket.
func TestWritePromParsesAsPrometheusText(t *testing.T) {
	m := NewMetrics()
	m.SessionsRejected.Add(2)
	m.Decisions.Add(100)
	for i := 0; i < 50; i++ {
		m.Latency("step").Observe(float64(i+1) * 1e-4)
	}
	m.Latency("create").Observe(3e-3)

	var b strings.Builder
	if err := m.WriteProm(&b, 42, 3, 1); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	typed := map[string]string{} // family → type
	var lastBucket struct {
		endpoint string
		cum      uint64
		sawInf   bool
	}
	counts := map[string]uint64{} // endpoint → _count value
	infCum := map[string]uint64{} // endpoint → +Inf cumulative
	samples := 0

	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			if len(f) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[f[2]] = f[3]
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unknown comment form: %q", line)
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line does not parse as a Prometheus sample: %q", line)
		}
		samples++
		name := line[:strings.IndexAny(line, "{ ")]
		family := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if _, ok := typed[family]; !ok {
			t.Errorf("sample %q has no TYPE header for family %q", name, family)
		}

		if strings.HasPrefix(name, "osap_request_duration_seconds") {
			ep := labelValue(t, line, "endpoint")
			valStr := line[strings.LastIndex(line, " ")+1:]
			switch {
			case strings.HasSuffix(name, "_bucket"):
				v, err := strconv.ParseUint(valStr, 10, 64)
				if err != nil {
					t.Fatalf("bucket value %q: %v", valStr, err)
				}
				if lastBucket.endpoint == ep && v < lastBucket.cum {
					t.Errorf("endpoint %q: bucket counts not cumulative (%d after %d)", ep, v, lastBucket.cum)
				}
				lastBucket.endpoint, lastBucket.cum = ep, v
				if labelValue(t, line, "le") == "+Inf" {
					infCum[ep] = v
					lastBucket = struct {
						endpoint string
						cum      uint64
						sawInf   bool
					}{}
				}
			case strings.HasSuffix(name, "_count"):
				v, _ := strconv.ParseUint(valStr, 10, 64)
				counts[ep] = v
			}
		}
	}
	if samples < 12 {
		t.Fatalf("only %d samples rendered:\n%s", samples, out)
	}
	if typed["osap_sessions_live"] != "gauge" {
		t.Errorf("osap_sessions_live TYPE = %q, want gauge", typed["osap_sessions_live"])
	}
	if typed["osap_decisions_total"] != "counter" {
		t.Errorf("osap_decisions_total TYPE = %q, want counter", typed["osap_decisions_total"])
	}
	if typed["osap_request_duration_seconds"] != "histogram" {
		t.Errorf("latency TYPE = %q, want histogram", typed["osap_request_duration_seconds"])
	}
	for _, ep := range []string{"step", "create"} {
		if counts[ep] == 0 {
			t.Errorf("endpoint %q: no _count sample", ep)
		}
		if counts[ep] != infCum[ep] {
			t.Errorf("endpoint %q: _count %d != +Inf bucket %d", ep, counts[ep], infCum[ep])
		}
	}
	if counts["step"] != 50 {
		t.Errorf("step _count = %d, want 50", counts["step"])
	}
	if !strings.Contains(out, "osap_sessions_live 42") {
		t.Errorf("live gauge missing the passed value:\n%s", out)
	}
}

func labelValue(t *testing.T, line, label string) string {
	t.Helper()
	re := regexp.MustCompile(label + `="([^"]*)"`)
	m := re.FindStringSubmatch(line)
	if m == nil {
		t.Fatalf("line %q has no %s label", line, label)
	}
	return m[1]
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func() {
			for i := 0; i < 1000; i++ {
				h.Observe(1e-4)
			}
			done <- struct{}{}
		}()
	}
	for w := 0; w < 4; w++ {
		<-done
	}
	if h.Count() != 4000 {
		t.Fatalf("Count = %d, want 4000", h.Count())
	}
	if got, want := h.Sum(), 0.4; math.Abs(got-want) > 1e-9 {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

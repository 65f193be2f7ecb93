package serve

import (
	"bufio"
	"bytes"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"osap/internal/abr"
	"osap/internal/learn"
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

// TestHistogramResolvesAStep: a step's decision takes a few
// microseconds, so sub-10 µs observations must land in buckets of their
// own rather than all in the first.
func TestHistogramResolvesAStep(t *testing.T) {
	bucket := func(sec float64) int {
		h := NewHistogram()
		h.Observe(sec)
		for i := range h.counts {
			if h.counts[i].Load() == 1 {
				return i
			}
		}
		t.Fatalf("observation %v landed in no bucket", sec)
		return -1
	}
	if a, b := bucket(0.5e-6), bucket(3e-6); a == b {
		t.Errorf("0.5 µs and 3 µs both landed in bucket %d", a)
	}
	// The wait for a shard is a few hundred nanoseconds.
	if a, b := bucket(0.2e-6), bucket(0.7e-6); a == b {
		t.Errorf("0.2 µs and 0.7 µs both landed in bucket %d", a)
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
	if typed["osap_sessions_rejected_total"] != "counter" {
		t.Errorf("osap_sessions_rejected_total TYPE = %q, want counter", typed["osap_sessions_rejected_total"])
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

// benchHistograms is what Metrics.WriteProm renders for the three
// histogram families bench/run.go parses, after the observations in
// TestWritePromBenchHistogramsPinned. The bench compares runs across
// commits, so these bytes may not move.
const benchHistograms = `# HELP osap_step_queue_seconds Step wait for its inference shard.
# TYPE osap_step_queue_seconds histogram
osap_step_queue_seconds_bucket{le="1e-07"} 0
osap_step_queue_seconds_bucket{le="2.5e-07"} 0
osap_step_queue_seconds_bucket{le="5e-07"} 0
osap_step_queue_seconds_bucket{le="1e-06"} 0
osap_step_queue_seconds_bucket{le="2.5e-06"} 0
osap_step_queue_seconds_bucket{le="5e-06"} 0
osap_step_queue_seconds_bucket{le="1e-05"} 1
osap_step_queue_seconds_bucket{le="2.5e-05"} 1
osap_step_queue_seconds_bucket{le="5e-05"} 3
osap_step_queue_seconds_bucket{le="0.0001"} 3
osap_step_queue_seconds_bucket{le="0.00025"} 4
osap_step_queue_seconds_bucket{le="0.0005"} 4
osap_step_queue_seconds_bucket{le="0.001"} 4
osap_step_queue_seconds_bucket{le="0.0025"} 4
osap_step_queue_seconds_bucket{le="0.005"} 4
osap_step_queue_seconds_bucket{le="0.01"} 5
osap_step_queue_seconds_bucket{le="0.025"} 5
osap_step_queue_seconds_bucket{le="0.05"} 5
osap_step_queue_seconds_bucket{le="0.1"} 5
osap_step_queue_seconds_bucket{le="0.25"} 5
osap_step_queue_seconds_bucket{le="0.5"} 5
osap_step_queue_seconds_bucket{le="1"} 6
osap_step_queue_seconds_bucket{le="+Inf"} 7
osap_step_queue_seconds_sum 2.70727
osap_step_queue_seconds_count 7
# HELP osap_step_decision_seconds Step time from holding its shard to decided.
# TYPE osap_step_decision_seconds histogram
osap_step_decision_seconds_bucket{le="1e-07"} 0
osap_step_decision_seconds_bucket{le="2.5e-07"} 0
osap_step_decision_seconds_bucket{le="5e-07"} 0
osap_step_decision_seconds_bucket{le="1e-06"} 0
osap_step_decision_seconds_bucket{le="2.5e-06"} 0
osap_step_decision_seconds_bucket{le="5e-06"} 1
osap_step_decision_seconds_bucket{le="1e-05"} 1
osap_step_decision_seconds_bucket{le="2.5e-05"} 3
osap_step_decision_seconds_bucket{le="5e-05"} 3
osap_step_decision_seconds_bucket{le="0.0001"} 4
osap_step_decision_seconds_bucket{le="0.00025"} 4
osap_step_decision_seconds_bucket{le="0.0005"} 4
osap_step_decision_seconds_bucket{le="0.001"} 4
osap_step_decision_seconds_bucket{le="0.0025"} 4
osap_step_decision_seconds_bucket{le="0.005"} 5
osap_step_decision_seconds_bucket{le="0.01"} 5
osap_step_decision_seconds_bucket{le="0.025"} 5
osap_step_decision_seconds_bucket{le="0.05"} 5
osap_step_decision_seconds_bucket{le="0.1"} 5
osap_step_decision_seconds_bucket{le="0.25"} 5
osap_step_decision_seconds_bucket{le="0.5"} 6
osap_step_decision_seconds_bucket{le="1"} 7
osap_step_decision_seconds_bucket{le="+Inf"} 7
osap_step_decision_seconds_sum 1.353635
osap_step_decision_seconds_count 7
# HELP osap_batch_size Rows per inference call (1 per step).
# TYPE osap_batch_size histogram
osap_batch_size_bucket{le="1"} 2
osap_batch_size_bucket{le="2"} 2
osap_batch_size_bucket{le="4"} 3
osap_batch_size_bucket{le="8"} 3
osap_batch_size_bucket{le="16"} 3
osap_batch_size_bucket{le="32"} 3
osap_batch_size_bucket{le="64"} 4
osap_batch_size_bucket{le="128"} 4
osap_batch_size_bucket{le="256"} 4
osap_batch_size_bucket{le="512"} 4
osap_batch_size_bucket{le="1024"} 4
osap_batch_size_bucket{le="+Inf"} 5
osap_batch_size_sum 2069
osap_batch_size_count 5
`

// TestWritePromBenchHistogramsPinned feeds the step histograms a fixed
// set of observations, one of them past every bound, and requires the
// lines of the three families the bench reads, in order, to be exactly
// benchHistograms.
func TestWritePromBenchHistogramsPinned(t *testing.T) {
	m := NewMetrics()
	for _, v := range []float64{1e-5, 3e-5, 3e-5, 2e-4, 7e-3, 0.7, 2} {
		m.QueueLatency.Observe(v)
		m.DecisionLatency.Observe(v / 2)
	}
	for _, n := range []float64{1, 1, 3, 64, 2000} {
		m.BatchSize.Observe(n)
	}
	m.Latency("step").Observe(1e-4) // the endpoint family shares the writer
	var b strings.Builder
	if err := m.WriteProm(&b, 3, 1, 0); err != nil {
		t.Fatal(err)
	}
	var got strings.Builder
	for _, line := range strings.SplitAfter(b.String(), "\n") {
		for _, fam := range []string{"osap_step_queue_seconds", "osap_step_decision_seconds", "osap_batch_size"} {
			if strings.HasPrefix(line, "# HELP "+fam+" ") || strings.HasPrefix(line, "# TYPE "+fam+" ") ||
				strings.HasPrefix(line, fam+"_") {
				got.WriteString(line)
			}
		}
	}
	if got.String() != benchHistograms {
		t.Fatalf("the bench's histogram families moved:\n%s\nwant:\n%s", got.String(), benchHistograms)
	}
}

// TestEveryMetricFamilyDocumented scrapes a server with every optional
// family switched on — a learner, a staged candidate, an endpoint
// histogram — and requires each family it declares with a # TYPE line
// to be named in README.md or DESIGN.md, so that a new counter cannot
// ship undocumented.
func TestEveryMetricFamilyDocumented(t *testing.T) {
	learner, err := learn.New(learn.Config{Artifacts: sharedArtifacts(t), Extract: abr.LastThroughputMbps, FlushInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer learner.Stop() //nolint:errcheck // no log configured
	srv, _ := testRolloutServer(t, GuardConfig{}, Config{Learner: learner})
	v2, err := srv.loadGeneration("v2")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.rollout.Stage(v2, 0.5, time.Now()); err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if err := srv.writeProm(&prom); err != nil {
		t.Fatal(err)
	}
	var docs []byte
	for _, name := range []string{"README.md", "DESIGN.md"} {
		b, err := os.ReadFile("../../" + name)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, b...)
	}
	families := 0
	for _, line := range strings.Split(prom.String(), "\n") {
		f := strings.Fields(line)
		if len(f) != 4 || f[0] != "#" || f[1] != "TYPE" {
			continue
		}
		families++
		if !regexp.MustCompile(`\b` + f[2] + `\b`).Match(docs) {
			t.Errorf("metric family %s is named in neither README.md nor DESIGN.md", f[2])
		}
	}
	if families < 50 {
		t.Fatalf("only %d families scraped; the server under test is missing some:\n%s", families, prom.String())
	}
}

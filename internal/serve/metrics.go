package serve

import (
	"fmt"
	"io"
	"maps"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// latencyBuckets are the fixed histogram bounds in seconds (upper
// inclusive, Prometheus convention), spanning 100 ns to 1 s: from a
// step's wait for its shard, which takes well under a microsecond, and
// its decision, which takes a few, to an HTTP request with its JSON
// framing.
var latencyBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1,
}

// batchSizeBuckets bound the batch-size histogram: powers of two. Every
// observation is 1 (a step is one row on its shard); the bounds stay so
// that /metrics keeps its shape.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024}

// Histogram is a lock-free fixed-bucket histogram in the Prometheus
// cumulative style: counts[i] observations ≤ bounds[i], with a
// trailing +Inf bucket, plus a running sum of observed values.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last is +Inf
	sum    atomic.Uint64   // math.Float64bits of the running sum
	total  atomic.Uint64
}

// NewHistogram returns an empty latency histogram over the standard
// request-latency buckets.
func NewHistogram() *Histogram { return NewHistogramBuckets(latencyBuckets) }

// NewHistogramBuckets returns an empty histogram over custom ascending
// upper bounds.
func NewHistogramBuckets(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one value (seconds for latency histograms).
//
//osap:hotpath
func (h *Histogram) Observe(sec float64) {
	i := sort.SearchFloat64s(h.bounds, sec)
	h.counts[i].Add(1)
	h.total.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + sec)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
//
//osap:ignore deadcode tests read histogram counts, cmd/osap-serve's load selftest among them
func (h *Histogram) Count() uint64 { return h.total.Load() }

// Sum returns the sum of observed seconds.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// merge adds src's observations to h, a histogram over the same bounds
// that nothing else writes yet (Server.view's fleet sum).
func (h *Histogram) merge(src *Histogram) {
	for i := range src.counts {
		h.counts[i].Add(src.counts[i].Load())
	}
	h.total.Add(src.total.Load())
	h.sum.Store(math.Float64bits(h.Sum() + src.Sum()))
}

// Quantile estimates a quantile (0..1) by linear interpolation within
// the containing bucket — the same estimate Prometheus' histogram_quantile
// computes server-side. Returns 0 on an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i := range h.counts {
		c := h.counts[i].Load()
		if float64(cum)+float64(c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := 2 * lo // +Inf bucket: extrapolate one doubling
			if i < len(h.bounds) {
				hi = h.bounds[i]
			}
			if c == 0 {
				return hi
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (hi-lo)*frac
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Metrics aggregates the server's own counters and per-endpoint
// latency histograms. All fields are updated atomically; WriteProm
// renders them in the Prometheus text exposition format (version
// 0.0.4). The step-outcome counters live on each generation
// (VersionStats, declared once in the counters table); Server.writeProm
// renders their fleet sums beside these.
type Metrics struct {
	SessionsRejected atomic.Uint64 // admission-control 429s
	SessionsEvicted  atomic.Uint64 // TTL sweeper
	SessionsDeleted  atomic.Uint64 // explicit client DELETEs
	SessionsDrained  atomic.Uint64 // closed by graceful shutdown
	Decisions        atomic.Uint64 // steps served; /metrics renders the generations' sum
	DrainRejected    atomic.Uint64 // operations refused while draining, counted by Server.refused alone

	// Shard instrumentation (see shard.go). QueueLatency is the wait for
	// the session's shard lock, DecisionLatency runs from holding it to
	// decided — together they decompose a step's server-side latency.
	// BatchSize observes 1 per step, so that readers of osap_batch_size
	// keep working.
	QueueLatency    *Histogram
	DecisionLatency *Histogram
	BatchSize       *Histogram

	// Binary transport counts (see binary.go): frames served, read bursts
	// (runs of frames served between two waits on the socket) and
	// write-buffer flushes. Frames per burst is the coalescing a
	// connection gets; flushes per decision is its write(2) cost.
	BinaryFrames     atomic.Uint64
	BinaryReadBursts atomic.Uint64
	BinaryFlushes    atomic.Uint64

	// HTTP step counts (see stepcodec.go): request-body bytes read by the
	// step endpoint, and the bodies it refused with a 400, by reason.
	// Bytes per decision is what an HTTP step costs on the wire; the
	// rejects are the malformed-client rate.
	HTTPStepBodyBytes atomic.Uint64
	HTTPStepRejects   [len(httpStepRejectReasons)]atomic.Uint64

	// Owned HTTP connections (see httpconn.go): steps that took their
	// connection over from net/http, and requests that handed one back.
	// Handbacks per takeover is the share of a connection's traffic
	// that is not steps.
	HTTPTakeovers atomic.Uint64
	HTTPHandbacks atomic.Uint64

	mu        sync.Mutex
	latencies map[string]*Histogram
}

// Indices into Metrics.HTTPStepRejects, and their reason labels.
const (
	rejectSyntax = iota // the body is not a JSON value
	rejectType          // it is, but not {"obs":[numbers]}
	rejectDim           // obs has the wrong number of values
)

var httpStepRejectReasons = [...]string{rejectSyntax: "syntax", rejectType: "type", rejectDim: "dim"}

// NewMetrics returns a zeroed metrics registry.
func NewMetrics() *Metrics {
	return &Metrics{
		latencies:       make(map[string]*Histogram),
		QueueLatency:    NewHistogram(),
		DecisionLatency: NewHistogram(),
		BatchSize:       NewHistogramBuckets(batchSizeBuckets),
	}
}

// Latency returns (creating on first use) the histogram for an
// endpoint label ("create", "step", "delete", …).
func (m *Metrics) Latency(endpoint string) *Histogram {
	m.mu.Lock()
	h, ok := m.latencies[endpoint]
	if !ok {
		h = NewHistogram()
		m.latencies[endpoint] = h
	}
	m.mu.Unlock()
	return h
}

// promFloat formats a float the way Prometheus expects (no exponent
// mangling needed for our magnitudes; +Inf spelled literally).
func promFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// promFamily writes a family's HELP and TYPE lines.
func promFamily(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeScalar writes a family of one unlabelled sample.
func writeScalar(w io.Writer, name, help, typ string, v uint64) {
	promFamily(w, name, help, typ)
	fmt.Fprintf(w, "%s %d\n", name, v)
}

// writeHist writes h's cumulative buckets, sum and count under name;
// label, when not empty, is one label pair every sample carries.
func writeHist(w io.Writer, name, label string, h *Histogram) {
	sel, sep := "", ""
	if label != "" {
		sel, sep = "{"+label+"}", label+","
	}
	var cum uint64
	for b := range h.counts {
		cum += h.counts[b].Load()
		le := math.Inf(+1)
		if b < len(h.bounds) {
			le = h.bounds[b]
		}
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, sep, promFloat(le), cum)
	}
	fmt.Fprintf(w, "%s_sum%s %s\n%s_count%s %d\n", name, sel, promFloat(h.Sum()), name, sel, cum)
}

// WriteProm renders the registry in Prometheus text exposition format.
// liveSessions, demotedLive and probationLive are passed in because
// they are read from the session table.
func (m *Metrics) WriteProm(w io.Writer, liveSessions, demotedLive, probationLive int) error {
	writeScalar(w, "osap_sessions_live", "Currently live guard sessions.", "gauge", uint64(liveSessions))
	writeScalar(w, "osap_sessions_demoted_live", "Live sessions serving in degraded mode.", "gauge", uint64(demotedLive))
	writeScalar(w, "osap_sessions_probation_live", "Live demoted sessions still recoverable (shadow scoring).", "gauge", uint64(probationLive))

	writeScalar(w, "osap_sessions_rejected_total", "Sessions refused by admission control.", "counter", m.SessionsRejected.Load())
	writeScalar(w, "osap_sessions_evicted_total", "Sessions evicted by the idle-TTL sweeper.", "counter", m.SessionsEvicted.Load())
	writeScalar(w, "osap_sessions_deleted_total", "Sessions deleted by clients.", "counter", m.SessionsDeleted.Load())
	writeScalar(w, "osap_sessions_drained_total", "Sessions closed by graceful shutdown.", "counter", m.SessionsDrained.Load())
	writeScalar(w, "osap_drain_rejected_total", "Requests refused while draining.", "counter", m.DrainRejected.Load())

	writeScalar(w, "osap_binary_frames_total", "Binary-protocol frames served after the handshake.", "counter", m.BinaryFrames.Load())
	writeScalar(w, "osap_binary_read_bursts_total", "Runs of binary frames served between two waits on the socket.", "counter", m.BinaryReadBursts.Load())
	writeScalar(w, "osap_binary_flushes_total", "Binary connection write-buffer flushes.", "counter", m.BinaryFlushes.Load())

	writeScalar(w, "osap_http_step_body_bytes_total", "Request-body bytes read by the HTTP step endpoint.", "counter", m.HTTPStepBodyBytes.Load())
	writeScalar(w, "osap_http_takeovers_total", "HTTP connections a step request took over from net/http.", "counter", m.HTTPTakeovers.Load())
	writeScalar(w, "osap_http_handbacks_total", "Owned HTTP connections handed back to net/http at a request that is not a step.", "counter", m.HTTPHandbacks.Load())
	promFamily(w, "osap_http_step_rejects_total", "HTTP step bodies refused with a 400, by reason.", "counter")
	for i, reason := range httpStepRejectReasons {
		fmt.Fprintf(w, "osap_http_step_rejects_total{reason=%q} %d\n", reason, m.HTTPStepRejects[i].Load())
	}

	promFamily(w, "osap_step_queue_seconds", "Step wait for its inference shard.", "histogram")
	writeHist(w, "osap_step_queue_seconds", "", m.QueueLatency)
	promFamily(w, "osap_step_decision_seconds", "Step time from holding its shard to decided.", "histogram")
	writeHist(w, "osap_step_decision_seconds", "", m.DecisionLatency)
	promFamily(w, "osap_batch_size", "Rows per inference call (1 per step).", "histogram")
	writeHist(w, "osap_batch_size", "", m.BatchSize)

	// Histograms are never removed, so a copy of the map taken under
	// the lock is rendered after it, in stable endpoint order.
	m.mu.Lock()
	lat := maps.Clone(m.latencies)
	m.mu.Unlock()
	eps := make([]string, 0, len(lat))
	for ep := range lat {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	if len(eps) > 0 {
		promFamily(w, "osap_request_duration_seconds", "Request latency by endpoint.", "histogram")
	}
	for _, ep := range eps {
		writeHist(w, "osap_request_duration_seconds", fmt.Sprintf("endpoint=%q", ep), lat[ep])
	}
	return nil
}

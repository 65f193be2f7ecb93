package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"osap/internal/experiments"
	"osap/internal/serve"
	"osap/internal/serve/proto"
	"osap/internal/stats"
)

// Workload kinds.
const (
	kindSteady = iota // standing sessions, open loop then saturation, binary
	kindLone          // a few closed-loop players, HTTP/JSON
	kindChurn         // viewer arrivals beside idle standing sessions, binary
)

// workload is one traffic mix.
type workload struct {
	name    string
	kind    int
	schemes []string
	// rates are the three fixed open-loop rates of a steady workload,
	// steps/s; the middle one is the gated one. Frozen on the seed
	// commit at about a quarter, a half and nine tenths of the measured
	// saturation throughput (see README.md).
	rates [3]float64
}

var workloads = []workload{
	{name: "nd_steady", kind: kindSteady, schemes: []string{serve.SchemeND}, rates: [3]float64{12000, 24000, 60000}},
	{name: "ens_steady", kind: kindSteady, schemes: []string{serve.SchemeAEns, serve.SchemeVEns}, rates: [3]float64{5000, 10000, 27000}},
	{name: "lone_http", kind: kindLone, schemes: []string{serve.SchemeAEns}},
	{name: "churn", kind: kindChurn, schemes: schemeNames[:]},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// latencyLimitUs is the p99 limit a rate must meet to count as
// sustained: ROADMAP item 2's stated goal.
const latencyLimitUs = 1000

// scale sizes a run. fullScale is what the benchmark measures; tests
// run a miniature.
type scale struct {
	tapes, tapeLen int
	sessions       int           // steady: standing sessions
	loneSessions   int           // lone: players, one connection each
	loneThink      time.Duration // lone: pause between a reply and the player's next step
	standing       int           // churn: idle standing sessions
	viewerSlots    int           // churn: most viewers alive at once before arrivals are refused
	viewerRate     float64
	viewerHalf     int // churn: steps before and after the Reset
	satViewers     int // churn: viewers kept alive in the closed-loop phase
	warmup         time.Duration
	setupReps      int
	ladderSlice    time.Duration
	probeSteps     int // lone round trips per transport probe
	rateScale      float64
}

var fullScale = scale{
	tapes: 64, tapeLen: 240, sessions: 512, loneSessions: 2, loneThink: 100 * time.Microsecond, standing: 2048, viewerSlots: 1024,
	viewerRate: 400, viewerHalf: 12, satViewers: 32, warmup: time.Second, setupReps: 3,
	ladderSlice: 20 * time.Millisecond, probeSteps: 2000, rateScale: 1,
}

// harness is one set-up server with its generator attached, ready to
// be measured.
type harness struct {
	w       workload
	sc      scale
	dir     string
	arts    *experiments.Artifacts
	factory *serve.GuardFactory
	child   *child
	tapes   []tape
	orc     *oracle
	cnt     *counts
	tr      *tracer
	rng     *stats.RNG

	m     *mux
	std   *steady
	chn   *churn
	lone  []*httpSession
	opens []sample

	trainS  float64
	setupS  float64
	expLive int // sessions the server should hold when the run ends
}

// setUp does everything a measurement needs first: train and save the
// artifacts, boot the child on them, record the tapes, compute the
// reference, open the standing sessions and warm the path up.
func setUp(w workload, sc scale, seed uint64, dir string) (*harness, error) {
	start := time.Now()
	h := &harness{w: w, sc: sc, dir: dir, cnt: &counts{}, tr: &tracer{}, rng: stats.NewRNG(seed ^ 0x5eed)}
	var err error
	if h.arts, err = trainArtifacts(); err != nil {
		return nil, err
	}
	h.trainS = time.Since(start).Seconds()
	path, err := experiments.SaveArtifacts(dir, h.arts)
	if err != nil {
		return nil, err
	}
	if h.child, err = startChild(path); err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			h.tearDown()
		}
	}()
	if h.factory, err = newFactory(h.arts); err != nil {
		return nil, err
	}
	if h.tapes, err = makeTapes(seed, sc.tapes, sc.tapeLen); err != nil {
		return nil, err
	}
	if h.orc, err = buildOracle(h.factory, h.tapes, w.schemes); err != nil {
		return nil, err
	}
	if err := h.connect(); err != nil {
		return nil, err
	}
	if _, err := h.gated("warmup", sc.warmup, -1); err != nil {
		return nil, err
	}
	runtime.GC() // start the measurement with set-up's garbage gone
	h.setupS = time.Since(start).Seconds()
	ok = true
	return h, nil
}

// connect opens the workload's connections and standing sessions.
func (h *harness) connect() error {
	var err error
	if h.w.kind == kindLone {
		for i := 0; i < h.sc.loneSessions; i++ {
			s, open, err := dialHTTP(h.child.hello.HTTP, h.w.schemes[i%len(h.w.schemes)], i%len(h.tapes), h.tapes[i%len(h.tapes)])
			if err != nil {
				return err
			}
			h.cnt.attempted++
			h.lone = append(h.lone, s)
			h.opens = append(h.opens, open)
		}
		h.expLive = h.sc.loneSessions
		return nil
	}
	if h.m, err = dialMux(h.child.hello.Binary); err != nil {
		return err
	}
	if err = h.m.handshake(); err != nil {
		return err
	}
	if h.w.kind == kindSteady {
		h.std = &steady{m: h.m, tapes: h.tapes, orc: h.orc, cnt: h.cnt, tr: h.tr}
		h.opens, err = h.std.openSessions(h.sc.sessions, h.w.schemes)
		h.expLive = h.sc.sessions
		return err
	}
	// The standing sessions only occupy the table; their latencies
	// are set-up cost, not the open latency churn reports.
	idle := &steady{m: h.m, tapes: h.tapes, cnt: h.cnt}
	if _, err = idle.openSessions(h.sc.standing, h.w.schemes); err != nil {
		return err
	}
	h.chn = newChurn(h.m, h.tapes, h.orc, h.cnt, h.sc.standing, h.sc.viewerSlots, h.sc.viewerHalf)
	h.chn.tr = h.tr
	h.expLive = h.sc.standing
	return nil
}

// gated runs the workload's gated kind of load for dur: the middle
// rate for a steady workload, the closed loop for lone_http, viewer
// arrivals for churn.
func (h *harness) gated(name string, dur, traceFrom time.Duration) (*phaseStats, error) {
	switch h.w.kind {
	case kindSteady:
		return h.rate(name, h.w.rates[1], dur, traceFrom)
	case kindLone:
		return runLone(name, h.lone, h.orc, h.cnt, h.tr, dur, traceFrom, h.sc.loneThink)
	default:
		sched := poissonSchedule(h.rng.Fork(), h.sc.viewerRate*h.sc.rateScale, dur, 1)
		return h.chn.run(name, h.sc.viewerRate*h.sc.rateScale, dur, traceFrom, sched, 0)
	}
}

func (h *harness) rate(name string, rate float64, dur, traceFrom time.Duration) (*phaseStats, error) {
	rate *= h.sc.rateScale
	return h.std.run(name, rate, dur, traceFrom, poissonSchedule(h.rng.Fork(), rate, dur, len(h.std.sess)))
}

func (h *harness) tearDown() {
	for _, s := range h.lone {
		s.close()
	}
	if h.m != nil {
		h.m.close()
	}
	if h.child != nil {
		h.child.stop()
	}
	os.RemoveAll(h.dir) //nolint:errcheck // scratch directory
}

// phaseShares is each phase's share of a cycle, by workload kind: a
// steady workload spends a fifth at the low rate, two at the gated
// rate, one at the top rate and one saturated; lone_http all of it in
// its closed loop; churn four fifths on arrivals and one saturated.
var phaseShares = [3][]float64{kindSteady: {0.2, 0.4, 0.2, 0.2}, kindLone: {1}, kindChurn: {0.8, 0.2}}

// cycles is how many times a run repeats its sequence of phases. A
// noisy neighbour's burst then spoils one cycle's slice of a phase,
// not the phase, and every reported number is a median over cycles.
const cycles = 4

// phaseReport is one kind of phase, condensed over the cycles.
type phaseReport struct {
	Name       string  `json:"name"`
	Rate       float64 `json:"offered_steps_per_s"`
	Seconds    float64 `json:"seconds_per_cycle"`
	Steps      int     `json:"steps_answered"`
	P50Us      float64 `json:"step_p50_us"`
	P99Us      float64 `json:"step_p99_us"`
	P99MinN    int     `json:"p99_min_samples_per_cycle"`
	Throughput float64 `json:"answered_per_s"`
	GenLagP50  float64 `json:"gen_lag_p50_us"`
	GenLagP99  float64 `json:"gen_lag_p99_us"`
	CPUShare   float64 `json:"client_cpu_share"`
	StallShare float64 `json:"client_stall_share"`
	Tainted    float64 `json:"tainted_share"`
	BacklogEnd float64 `json:"backlog_end"`
	BacklogMax int     `json:"backlog_max"`
	Inflight   float64 `json:"inflight_mean"`
	Invalid    string  `json:"invalid,omitempty"`
}

// report condenses one phase's slices (one per cycle): latency p50 is
// the lower quartile over windows of each window's median, throughput
// the upper quartile over windows, everything else a median over the
// cycles. It also judges whether the generator kept up: a phase
// whose generator lagged is invalid, not slow. Arrivals picked up
// after a stall are tainted and already left out; of the rest, half
// must be picked up within a tenth of the median step latency. The
// p99 of the lag is reported, not judged: a loopback write that has to
// wake the sleeping server costs tens of microseconds once in a
// hundred, whatever the generator does.
func report(slices []*phaseStats) phaseReport {
	first := slices[0]
	r := phaseReport{Name: first.name, Rate: first.rate, Seconds: first.wall.Seconds(), P99MinN: -1}
	var p50, p99, thr, busy, stall, backlog, lag []float64
	var tainted, arrivals int
	var inflight int64
	for _, ps := range slices {
		lat := latencies(ps.steps)
		p50 = append(p50, ps.windowMedians()...)
		p99 = append(p99, stats.Quantile(lat, 0.99))
		if r.P99MinN < 0 || len(lat) < r.P99MinN {
			r.P99MinN = len(lat)
		}
		thr = append(thr, ps.throughputs()...)
		wall := float64(ps.wall.Nanoseconds())
		busy = append(busy, float64(ps.busyNs)/(wall-float64(ps.stallNs)))
		stall = append(stall, float64(ps.stallNs)/wall)
		backlog = append(backlog, float64(ps.backlogEnd))
		r.BacklogMax = max(r.BacklogMax, ps.backlogMax)
		r.Steps += ps.okSteps
		tainted += ps.tainted
		arrivals += len(ps.genLag)
		inflight += ps.inflightSum
		for _, v := range ps.genLag {
			if v <= stallGap {
				lag = append(lag, float64(v)/1e3)
			}
		}
	}
	r.P50Us, r.P99Us, r.Throughput = stats.Quantile(p50, 0.25), stats.Median(p99), stats.Quantile(thr, 0.75)
	r.CPUShare, r.StallShare, r.BacklogEnd = stats.Median(busy), stats.Median(stall), stats.Median(backlog)
	r.GenLagP50, r.GenLagP99 = stats.Median(lag), stats.Quantile(lag, 0.99)
	if r.Steps > 0 {
		r.Tainted = float64(tainted) / float64(r.Steps)
	}
	if arrivals > 0 {
		r.Inflight = float64(inflight) / float64(arrivals)
	}
	switch {
	case r.Rate > 0 && r.GenLagP50 > r.P50Us/10:
		r.Invalid = fmt.Sprintf("generator lag p50 %.1f us exceeds a tenth of step p50 %.1f us", r.GenLagP50, r.P50Us)
	case r.Rate > 0 && r.CPUShare > 0.8:
		r.Invalid = fmt.Sprintf("generator busy %.0f%% of the phase", 100*r.CPUShare)
	}
	return r
}

// sustained says whether a rate phase met the latency limit without a
// growing backlog: at most 5 ms worth of arrivals still unanswered
// when the last one was sent.
func (r phaseReport) sustained() bool {
	return r.Invalid == "" && r.P99Us <= latencyLimitUs && r.BacklogEnd <= 0.005*r.Rate
}

// result is everything one run of one workload produced.
type result struct {
	Workload    string            `json:"workload"`
	Traced      bool              `json:"traced"`
	Correct     bool              `json:"correct"`
	Attempted   int               `json:"attempted"`
	Failed      int               `json:"failed"`
	FailedShare float64           `json:"failed_share"`
	FirstBad    string            `json:"first_failure,omitempty"`
	Invalid     string            `json:"invalid,omitempty"`
	Metrics     map[string]metric `json:"metrics"`
	Phases      []phaseReport     `json:"phases"`
	spans       []span
}

// serverWindow is the server's own account of the gated slices: the
// sum of the counter deltas between the snapshots taken around each.
type serverWindow struct {
	cpuSec              float64
	served, alloc       float64
	gcCount             float64
	gcPauseMs           float64
	queue, decide, size promHist
	goroutines          int
}

func (w *serverWindow) add(before, after snapshot) {
	w.cpuSec += after.CPUSec - before.CPUSec
	w.served += float64(after.Decisions - before.Decisions)
	w.alloc += float64(after.TotalAlloc - before.TotalAlloc)
	w.gcCount += float64(after.NumGC - before.NumGC)
	w.gcPauseMs += after.GCPauseMs - before.GCPauseMs
	w.goroutines = after.Goroutines
	for _, h := range []struct {
		dst  *promHist
		name string
	}{{&w.queue, "osap_step_queue_seconds"}, {&w.decide, "osap_step_decision_seconds"}, {&w.size, "osap_batch_size"}} {
		*h.dst = h.dst.plus(promHistogram(after.Prom, h.name).sub(promHistogram(before.Prom, h.name)))
	}
}

// runWorkload sets the workload up (sc.setupReps times, keeping the
// last), measures it for seconds, and tears it down. A traced run adds
// the layer ladder, the transport probes and client-side spans on the
// second half of every gated slice, and reports the per-layer metrics.
func runWorkload(w workload, sc scale, seed uint64, seconds float64, traced bool, scratch string) (*result, error) {
	var h *harness
	setups := make([]float64, 0, sc.setupReps)
	for rep := 0; rep < sc.setupReps; rep++ {
		if h != nil {
			h.tearDown()
		}
		var err error
		if h, err = setUp(w, sc, seed, filepath.Join(scratch, fmt.Sprintf("%d-%d", os.Getpid(), rep))); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, h.setupS)
	}
	defer h.tearDown()

	res := &result{Workload: w.name, Traced: traced, Metrics: map[string]metric{}}
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	put("setup_s", stats.Median(setups), "s")
	put("experiments.train_s", h.trainS, "s")
	put("experiments.load_artifacts_ms", h.child.hello.LoadMs, "ms")

	if traced {
		if err := h.layers(res); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}

	cycle := seconds * float64(time.Second) / float64(cycles)
	share := func(phase int) time.Duration { return time.Duration(phaseShares[w.kind][phase] * cycle) }
	var low, gated, top, sat []*phaseStats
	var win serverWindow
	var err error
	run := func(dst *[]*phaseStats, f func() (*phaseStats, error)) {
		if err == nil {
			var ps *phaseStats
			if ps, err = f(); ps != nil {
				*dst = append(*dst, ps)
			}
		}
	}
	// measured runs one gated slice between two server snapshots, the
	// second half of it traced in a traced run.
	measured := func(name string, dur time.Duration) {
		traceFrom := time.Duration(-1)
		if traced {
			traceFrom = dur / 2
		}
		var before, after snapshot
		if err == nil {
			before, err = h.child.snapshot()
		}
		run(&gated, func() (*phaseStats, error) { return h.gated(name, dur, traceFrom) })
		if err == nil {
			if after, err = h.child.snapshot(); err == nil {
				win.add(before, after)
			}
		}
	}
	for c := 0; c < cycles && err == nil; c++ {
		switch w.kind {
		case kindSteady:
			run(&low, func() (*phaseStats, error) { return h.rate("rate_low", w.rates[0], share(0), -1) })
			measured("rate_mid", share(1))
			run(&top, func() (*phaseStats, error) { return h.rate("rate_top", w.rates[2], share(2), -1) })
			run(&sat, func() (*phaseStats, error) { return h.std.run("saturation", 0, share(3), -1, nil) })
		case kindLone:
			measured("closed_loop", share(0))
		default:
			measured("arrivals", share(0))
			run(&sat, func() (*phaseStats, error) {
				return h.chn.run("saturation", 0, share(1), -1, nil, h.sc.satViewers)
			})
		}
	}
	var final snapshot
	if err == nil {
		final, err = h.child.command("settle")
	}
	res.Attempted, res.Failed, res.FirstBad = h.cnt.attempted, h.cnt.failed(), h.cnt.firstBad
	if res.Attempted > 0 {
		res.FailedShare = float64(res.Failed) / float64(res.Attempted)
	}
	if err != nil {
		// A run that could not finish still says what failed.
		if res.FirstBad == "" {
			res.FirstBad = err.Error()
		}
		return res, fmt.Errorf("%s: %w", w.name, err)
	}
	if w.kind == kindLone {
		sat = gated
	}
	g := report(gated)
	res.Invalid = g.Invalid
	for _, slices := range [][]*phaseStats{low, gated, top, sat} {
		if len(slices) > 0 && (w.kind != kindLone || len(res.Phases) == 0) {
			res.Phases = append(res.Phases, report(slices))
		}
	}

	// End to end.
	put("step_p50_us", g.P50Us, "us")
	put("capacity_steps_per_s", report(sat).Throughput, "1/s")
	put("cpu_us_per_step", 1e6*win.cpuSec/win.served, "us")
	put("rss_mb", final.RSSMB, "MB")

	// Diagnostics that ride along with every run.
	var pooled, opens []sample
	for _, ps := range gated {
		pooled = append(pooled, ps.steps...)
		opens = append(opens, ps.opens...)
	}
	if w.kind != kindChurn {
		opens = h.opens
	}
	openLat := latencies(opens)
	put("rss_peak_mb", final.MaxRSSMB, "MB")
	put("open_p50_us", stats.Quantile(openLat, 0.5), "us")
	put("open_p99_us", stats.Quantile(openLat, 0.99), "us")
	put("step_p99_us", g.P99Us, "us")
	put("step_p99_min_samples", float64(g.P99MinN), "count")
	put("step_p999_us", stats.Quantile(latencies(pooled), 0.999), "us")
	best := 0.0
	for _, p := range res.Phases {
		if p.Rate > 0 && w.kind == kindSteady && p.sustained() && p.Rate > best {
			best = p.Rate
		}
	}
	put("rate_under_limit", best, "1/s")
	put("failed_share", res.FailedShare, "share")
	put("client.gen_lag_p99_us", g.GenLagP99, "us")
	put("client.backlog_max", float64(g.BacklogMax), "count")
	put("client.inflight_mean", g.Inflight, "count")
	put("client.cpu_share", g.CPUShare, "share")
	put("client.stall_share", g.StallShare, "share")
	put("client.tainted_share", g.Tainted, "share")

	// The server's own view of the gated slices.
	put("serve.queue_p50_us", 1e6*win.queue.quantile(0.5), "us")
	put("serve.queue_p99_us", 1e6*win.queue.quantile(0.99), "us")
	put("serve.decision_p50_us", 1e6*win.decide.quantile(0.5), "us")
	put("serve.decision_p99_us", 1e6*win.decide.quantile(0.99), "us")
	put("serve.batches_flushed", win.size.count, "count")
	if win.size.count > 0 {
		put("serve.batch_size_mean", win.size.sum/win.size.count, "count")
		put("serve.batch_singleton_share", win.size.atMost(1)/win.size.count, "share")
	} else {
		put("serve.batch_size_mean", 0, "count")
		put("serve.batch_singleton_share", 0, "share")
	}
	decisions := int(final.Decisions)
	put("serve.decisions", float64(decisions), "count")
	put("client.ok_steps", float64(h.cnt.okSteps), "count")
	put("serve.sessions_live", float64(final.SessionsLive), "count")
	put("runtime.gc_count", win.gcCount, "count")
	put("runtime.gc_pause_total_ms", win.gcPauseMs, "ms")
	put("runtime.alloc_bytes_per_step", win.alloc/win.served, "B")
	put("runtime.goroutines", float64(win.goroutines), "count")

	if traced {
		var tracedSteps []sample
		for _, ps := range gated {
			tracedSteps = append(tracedSteps, ps.traced...)
		}
		overhead := 0.0
		if len(tracedSteps) > 0 && len(pooled) > 0 {
			overhead = stats.Median(latencies(tracedSteps))/stats.Median(latencies(pooled)) - 1
		}
		put("trace.overhead_share", overhead, "share")
		self := make([][]float64, numSpans)
		for _, s := range h.tr.spans {
			self[s.Name] = append(self[s.Name], float64(s.End-s.Start)/1e3)
		}
		for n := spanGenWait; n < numSpans; n++ {
			put("span."+spanNames[n]+"_p50_us", stats.Median(self[n]), "us")
		}
		put("trace.spans", float64(len(h.tr.spans)), "count")
		res.spans = h.tr.spans
	}

	// Conservation: every step the client saw answered is a decision the
	// server counted, and no session leaked.
	res.Correct = h.cnt.mismatches == 0 &&
		decisions == h.cnt.okSteps+h.cnt.mismatches && final.SessionsLive == h.expLive
	if !res.Correct && res.FirstBad == "" {
		res.FirstBad = fmt.Sprintf("conservation: server counted %d decisions and %d live sessions, client %d answered steps and %d sessions",
			decisions, final.SessionsLive, h.cnt.okSteps, h.expLive)
	}
	return res, nil
}

// layers runs what only a traced run measures before any load: the
// layer ladder, the traffic facts for every scheme, and the lone
// round trips over each transport.
func (h *harness) layers(res *result) error {
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	ladder, err := runLadder(h.arts, h.factory, h.tapes, h.sc.ladderSlice)
	if err != nil {
		return fmt.Errorf("ladder: %w", err)
	}
	for name, m := range ladder {
		res.Metrics[name] = m
	}

	// Traffic facts: what share of each scheme's decisions the default
	// policy takes on each kind of tape. They repeat exactly for a seed.
	all, err := buildOracle(h.factory, h.tapes, schemeNames[:])
	if err != nil {
		return err
	}
	var dec, fb, fired int
	for si, token := range schemeTokens {
		put("core.decide_"+token+"_ns", all.decideNs[si], "ns")
		mine := false
		for _, s := range h.w.schemes {
			mine = mine || s == schemeNames[si]
		}
		for k, kind := range kindNames {
			put("core.fallback_share."+token+"."+kind, float64(all.fallbacks[si][k])/float64(all.decisions[si][k]), "share")
			put("core.trigger_firings."+token+"."+kind, float64(all.firings[si][k]), "count")
			if mine {
				dec += all.decisions[si][k]
				fb += all.fallbacks[si][k]
				fired += all.firings[si][k]
			}
		}
	}
	put("core.fallback_share", float64(fb)/float64(dec), "share")
	put("core.trigger_firings", float64(fired), "count")

	// Transport floor and lone round trips, one step in flight.
	echo, lag, err := probeEcho(h.child.hello.Echo, h.tapes[0].obs[0], h.sc.probeSteps, h.topRate(), h.sc.warmup/2, h.rng.Fork())
	if err != nil {
		return fmt.Errorf("echo probe: %w", err)
	}
	put("transport.echo_rtt_us", echo, "us")
	put("client.echo_gen_lag_p99_us", lag, "us")
	bin, err := h.probeBinary(all)
	if err != nil {
		return fmt.Errorf("binary probe: %w", err)
	}
	put("transport.lone_binary_rtt_us", bin, "us")
	web, err := h.probeHTTP(all)
	if err != nil {
		return fmt.Errorf("http probe: %w", err)
	}
	put("transport.lone_http_rtt_us", web, "us")

	// One lone A-ensemble step, attributed: the wire floor, the four
	// codec calls, the guard's decision and the drift sketch. What is
	// left is hand-offs, locks and queues nothing here can see.
	known := echo*1e3 + all.decideNs[schemeIndex(serve.SchemeAEns)]
	for _, name := range []string{"proto.write_step_ns", "proto.decode_step_ns", "proto.write_decision_ns",
		"proto.decode_decision_ns", "sketch.add_ns"} {
		known += ladder[name].Value
	}
	put("budget.unattributed_share", 1-known/(bin*1e3), "share")
	return nil
}

// topRate is the highest step rate the workload offers.
func (h *harness) topRate() float64 {
	if h.w.kind == kindSteady {
		return h.w.rates[2] * h.sc.rateScale
	}
	return 2 * float64(h.sc.viewerHalf) * h.sc.viewerRate * h.sc.rateScale
}

// probeEcho measures the echo server twice: the median lone round
// trip of a step-sized frame answered by a decision-sized one, and the
// generator's own lag when it offers rate for dur. The second is the
// proof that the generator, not the server, is not what a later number
// measures.
func probeEcho(addr string, obs []float64, rounds int, rate float64, dur time.Duration, rng *stats.RNG) (rttUs, genLagP99Us float64, err error) {
	m, err := dialMux(addr)
	if err != nil {
		return 0, 0, err
	}
	defer m.close()
	rtts := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		t0 := now()
		if err := m.pc.WriteStep(0, uint32(i), obs); err != nil {
			return 0, 0, err
		}
		t, _, err := m.await(t0 + int64(drainGrace))
		if err != nil || t != proto.TypeDecision {
			return 0, 0, fmt.Errorf("echo round %d: type %d: %v", i, t, err)
		}
		rtts = append(rtts, float64(now()-t0)/1e3)
	}
	m.pc.ManualFlush()
	sched := poissonSchedule(rng, rate, dur, 1)
	lags := make([]float64, 0, len(sched))
	start, next, back := now(), 0, 0
	for back < len(sched) {
		t := now()
		if t-start > int64(dur+drainGrace) {
			return 0, 0, fmt.Errorf("echo drive at %.0f/s: %d of %d answered", rate, back, len(sched))
		}
		for next < len(sched) && start+sched[next].at <= t {
			// As in report: an arrival picked up after a stall says
			// nothing about the generator.
			if lag := t - start - sched[next].at; lag <= stallGap {
				lags = append(lags, float64(lag)/1e3)
			}
			if err := m.pc.WriteStep(0, uint32(next), obs); err != nil {
				return 0, 0, err
			}
			m.wrote = true
			next++
		}
		if err := m.flush(); err != nil {
			return 0, 0, err
		}
		if m.pending() {
			if _, _, err := m.readFrame(); err != nil {
				return 0, 0, err
			}
			back++
		}
	}
	return stats.Median(rtts), stats.Quantile(lags, 0.99), nil
}

// probeBinary measures the lone round trip of a real A-ensemble step
// on a binary connection of its own.
func (h *harness) probeBinary(orc *oracle) (float64, error) {
	m, err := dialMux(h.child.hello.Binary)
	if err != nil {
		return 0, err
	}
	defer m.close()
	if err := m.handshake(); err != nil {
		return 0, err
	}
	si := schemeIndex(serve.SchemeAEns)
	if _, err := openOne(m, 0, serve.SchemeAEns, h.cnt); err != nil {
		return 0, err
	}
	tp := h.tapes[0]
	rounds := min(h.sc.probeSteps, len(tp.obs))
	rtts := make([]float64, 0, rounds)
	for pos := 0; pos < rounds; pos++ {
		h.cnt.attempted++
		t0 := now()
		if err := m.pc.WriteStep(0, uint32(pos), tp.obs[pos]); err != nil {
			return 0, err
		}
		if err := m.pc.Flush(); err != nil {
			return 0, err
		}
		t, payload, err := m.await(t0 + int64(drainGrace))
		if err != nil || t != proto.TypeDecision {
			return 0, fmt.Errorf("step %d: type %d: %v", pos, t, err)
		}
		dec, err := proto.DecodeDecision(payload)
		rtts = append(rtts, float64(now()-t0)/1e3)
		if err != nil || !orc.ref[si][0][pos].check(int(dec.Action), dec.Flags&proto.FlagFallback != 0,
			dec.Flags&proto.FlagFired != 0, dec.Flags&proto.FlagDemoted != 0, dec.Step, dec.Score) {
			h.cnt.bad(&h.cnt.mismatches, "binary probe step %d: served %+v", pos, dec)
			continue
		}
		h.cnt.okSteps++
	}
	h.cnt.attempted++
	if err := m.pc.WriteSessionControl(proto.TypeClose, 0); err != nil {
		return 0, err
	}
	if err := m.pc.Flush(); err != nil {
		return 0, err
	}
	if t, _, err := m.await(now() + int64(drainGrace)); err != nil || t != proto.TypeOK {
		return 0, fmt.Errorf("close: type %d: %v", t, err)
	}
	return stats.Median(rtts), nil
}

// probeHTTP measures the same lone step over one keep-alive HTTP
// connection.
func (h *harness) probeHTTP(orc *oracle) (float64, error) {
	s, _, err := dialHTTP(h.child.hello.HTTP, serve.SchemeAEns, 0, h.tapes[0])
	if err != nil {
		return 0, err
	}
	defer s.close()
	h.cnt.attempted++
	rounds := min(h.sc.probeSteps, len(h.tapes[0].obs))
	rtts := make([]float64, 0, rounds)
	for i := 0; i < rounds; i++ {
		smp, err := s.step(orc, h.cnt)
		if err != nil {
			return 0, fmt.Errorf("step %d: %w", i, err)
		}
		rtts = append(rtts, float64(smp.lat)/1e3)
	}
	h.cnt.attempted++
	return stats.Median(rtts), s.remove()
}

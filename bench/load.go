package main

import (
	"fmt"
	"time"

	"osap/internal/serve/proto"
	"osap/internal/stats"
)

// sample is one answered operation: when it was due and how long
// after that its reply had been checked.
type sample struct{ due, lat int64 }

// Span names. A step span covers due time → reply checked; its four
// children tile it.
const (
	spanStep = iota
	spanGenWait
	spanEncodeWrite
	spanServerWire
	spanDecodeCheck
	numSpans
)

var spanNames = [numSpans]string{"step", "gen_wait", "encode_write", "server_wire", "decode_check"}

// span is one traced interval. parent indexes the enclosing span in
// the same slice (-1 for a root); step identifies the request.
type span struct {
	Name   uint8  `json:"name"`
	Parent int32  `json:"parent"`
	Step   uint32 `json:"step"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	spans []span
	steps uint32
}

// step records one request's five spans from its boundary timestamps.
func (t *tracer) step(due, picked, written, received, checked int64) {
	id := t.steps
	t.steps++
	root := int32(len(t.spans))
	t.spans = append(t.spans,
		span{spanStep, -1, id, due, checked},
		span{spanGenWait, root, id, due, picked},
		span{spanEncodeWrite, root, id, picked, written},
		span{spanServerWire, root, id, written, received},
		span{spanDecodeCheck, root, id, received, checked})
}

// arrival is one entry of a precomputed open-loop schedule.
type arrival struct {
	at   int64 // offset from the phase start, ns
	sess int32
}

// poissonSchedule draws every arrival of a phase up front, so the
// generator's only job under load is to send what is due.
func poissonSchedule(rng *stats.RNG, rate float64, dur time.Duration, sessions int) []arrival {
	sched := make([]arrival, 0, int(rate*dur.Seconds()*1.1)+16)
	gap := 1e9 / rate
	for t := rng.ExpFloat64() * gap; t < float64(dur); t += rng.ExpFloat64() * gap {
		sched = append(sched, arrival{at: int64(t), sess: int32(rng.Intn(sessions))})
	}
	return sched
}

// phaseStats is what one load phase measured.
type phaseStats struct {
	name    string
	rate    float64 // offered steps/s; 0 for a closed loop
	wall    time.Duration
	steps   []sample // answered steps, untraced part of the phase
	traced  []sample // answered steps whose spans were recorded
	opens   []sample // churn: due → Opened
	okSteps int      // every answered, correct step (traced, tainted or not)
	start   int64
	perWin  []float64 // correct steps answered in each whole window of the phase

	genLag      []int64 // per arrival: pickup time − due time
	backlogEnd  int     // due but unanswered when the last arrival was sent
	backlogMax  int
	inflightSum int64 // outstanding steps summed at each arrival
	busyNs      int64 // loop time spent doing work rather than spinning
	stallNs     int64 // loop time lost to gaps longer than stallGap
	tainted     int   // answered steps left out because a stall overlapped them
}

// stallGap is the longest the generator's loop may go without turning
// before the gap counts as a stall: the process lost its processor
// (another tenant, the hypervisor, a throttled quota). An iteration's
// real work is a few microseconds. A step whose life overlaps a stall
// was measured by an absent generator, so it is counted as tainted and
// left out of the latency samples: invalid, not slow.
const stallGap = int64(100 * time.Microsecond)

// stallClock notices stalls between loop iterations.
type stallClock struct {
	last      int64 // previous iteration's timestamp
	worked    bool  // whether that iteration did anything
	lastStall int64 // when the most recent stall ended
}

// tick takes the iteration's timestamp and books the time since the
// previous one.
func (c *stallClock) tick(ps *phaseStats) int64 {
	t := now()
	switch gap := t - c.last; {
	case gap > stallGap:
		ps.stallNs += gap
		c.lastStall = t
	case c.worked:
		ps.busyNs += gap
	}
	c.last, c.worked = t, false
	return t
}

// window is the grain at which a phase is cut up for robust
// statistics. The hypervisor parks a vCPU for milliseconds at a time,
// more often when its host is busy, so quarter-second windows of one
// phase differ by the neighbours' load; quantiles over windows tell
// the machine's mood from the code's cost.
const window = 250 * time.Millisecond

func newPhaseStats(name string, rate float64, dur time.Duration) *phaseStats {
	return &phaseStats{name: name, rate: rate, wall: dur, start: now(), perWin: make([]float64, int(dur/window))}
}

// answered books one correct step answered at time at.
func (ps *phaseStats) answered(at int64) {
	ps.okSteps++
	if i := int((at - ps.start) / int64(window)); i < len(ps.perWin) {
		ps.perWin[i]++
	}
}

// throughputs returns the steps answered per second in each window.
func (ps *phaseStats) throughputs() []float64 {
	if len(ps.perWin) == 0 {
		return []float64{float64(ps.okSteps) / ps.wall.Seconds()}
	}
	out := make([]float64, len(ps.perWin))
	for i, n := range ps.perWin {
		out[i] = n / window.Seconds()
	}
	return out
}

// windowMedians returns the median latency in microseconds of the
// untainted steps due in each window that has enough of them.
func (ps *phaseStats) windowMedians() []float64 {
	const enough = 100
	n := max(len(ps.perWin), 1)
	buckets := make([][]sample, n)
	for _, smp := range ps.steps {
		if i := int((smp.due - ps.start) / int64(window)); i >= 0 && i < n {
			buckets[i] = append(buckets[i], smp)
		} else if n == 1 {
			buckets[0] = append(buckets[0], smp)
		}
	}
	var out []float64
	for _, b := range buckets {
		if len(b) >= enough || n == 1 && len(b) > 0 {
			out = append(out, stats.Median(latencies(b)))
		}
	}
	return out
}

// counts is the run-wide tally the failure share is made of.
type counts struct {
	attempted  int // steps, opens, resets and closes put on the wire or refused
	okSteps    int
	mismatches int // replies that differ from the sequential reference
	errors     int // Error frames, HTTP non-2xx, protocol surprises
	refused    int // arrivals the generator had no free slot for
	unanswered int // still outstanding at a phase deadline
	firstBad   string
}

func (c *counts) failed() int { return c.mismatches + c.errors + c.refused + c.unanswered }

func (c *counts) bad(kind *int, format string, args ...any) {
	*kind++
	if c.firstBad == "" {
		c.firstBad = fmt.Sprintf(format, args...)
	}
}

// maxBurst bounds the replies a closed loop handles before it flushes
// the follow-up steps they released.
const maxBurst = 64

// drainGrace is how long after a phase's last arrival the generator
// waits for outstanding replies before calling them unanswered.
const drainGrace = 3 * time.Second

// lsession is the generator's view of one standing session.
type lsession struct {
	scheme uint8
	tape   int32
	pos    int32 // next tape step to send
	busy   bool  // a step or a reset is outstanding
	traced bool
	due    int64
	picked int64
	sentAt int64
	queue  []int64 // due times of arrivals waiting behind the outstanding one
	qhead  int
}

// steady drives the standing sessions of nd_steady and ens_steady.
type steady struct {
	m        *mux
	tapes    []tape
	orc      *oracle
	sess     []lsession
	cnt      *counts
	tr       *tracer
	out      int  // steps and resets outstanding on the wire
	queued   int  // arrivals waiting behind a busy session
	saturate bool // closed loop: a freed session steps again at once
	stopAt   int64
	ps       *phaseStats
	traceAt  int64 // arrivals due at or after this are traced; 0 = never
	clk      stallClock
	err      error
}

// openSessions opens n sessions one after another, scheme i%len(schemes)
// and tape i%len(tapes), and returns each Open's latency.
func (d *steady) openSessions(n int, schemes []string) ([]sample, error) {
	opens := make([]sample, 0, n)
	d.sess = make([]lsession, n)
	for i := range d.sess {
		scheme := schemes[i%len(schemes)]
		d.sess[i] = lsession{scheme: uint8(schemeIndex(scheme)), tape: int32(i % len(d.tapes))}
		lat, err := openOne(d.m, uint32(i), scheme, d.cnt)
		if err != nil {
			return nil, fmt.Errorf("open session %d: %w", i, err)
		}
		opens = append(opens, lat)
	}
	return opens, nil
}

// openOne performs one sequential Open → Opened exchange.
func openOne(m *mux, cid uint32, scheme string, cnt *counts) (sample, error) {
	cnt.attempted++
	t0 := now()
	if err := m.pc.WriteOpen(cid, scheme); err != nil {
		return sample{}, err
	}
	if err := m.pc.Flush(); err != nil {
		return sample{}, err
	}
	t, payload, err := m.await(t0 + int64(drainGrace))
	if err != nil {
		return sample{}, err
	}
	if t != proto.TypeOpened {
		return sample{}, fmt.Errorf("frame type %d in reply to Open: %s", t, frameText(t, payload))
	}
	return sample{due: t0, lat: now() - t0}, nil
}

func frameText(t proto.Type, payload []byte) string {
	if t == proto.TypeError {
		if _, code, msg, err := proto.DecodeError(payload); err == nil {
			return proto.ErrorString(code, msg)
		}
	}
	if t == proto.TypeGoAway {
		return "go away: " + string(payload)
	}
	return fmt.Sprintf("%d payload bytes", len(payload))
}

// send puts session i's next step on the wire.
func (d *steady) send(i int, due, picked int64) {
	s := &d.sess[i]
	s.busy, s.due, s.picked = true, due, picked
	s.traced = d.traceAt != 0 && due >= d.traceAt
	d.cnt.attempted++
	d.out++
	if err := d.m.pc.WriteStep(uint32(i), uint32(s.pos), d.tapes[s.tape].obs[s.pos]); err != nil {
		d.err = err
		return
	}
	d.m.wrote = true
	if s.traced {
		// A traced step is flushed alone so its write has an end.
		d.err = d.m.flush()
		s.sentAt = now()
	}
}

// arrive handles one due arrival: send it, or queue it behind the
// session's outstanding step — the wait counts, because latency runs
// from the due time.
func (d *steady) arrive(a arrival, due, t int64) {
	d.ps.genLag = append(d.ps.genLag, t-due)
	d.ps.inflightSum += int64(d.out)
	s := &d.sess[a.sess]
	if s.busy {
		s.queue = append(s.queue, due)
		d.queued++
	} else {
		d.send(int(a.sess), due, t)
	}
	if b := d.out + d.queued; b > d.ps.backlogMax {
		d.ps.backlogMax = b
	}
}

// freed runs when session i has no frame outstanding any more.
func (d *steady) freed(i int, t int64) {
	s := &d.sess[i]
	s.busy = false
	switch {
	case s.qhead < len(s.queue):
		due := s.queue[s.qhead]
		s.qhead++
		if s.qhead == len(s.queue) {
			s.queue, s.qhead = s.queue[:0], 0
		}
		d.queued--
		d.send(i, due, t)
	case d.saturate && t < d.stopAt:
		d.send(i, t, t)
	}
}

// handle reads and checks one frame.
func (d *steady) handle() {
	t, payload, err := d.m.readFrame()
	received := now()
	if err != nil {
		d.err = err
		return
	}
	switch t {
	case proto.TypeDecision:
		dec, err := proto.DecodeDecision(payload)
		if err != nil || int(dec.Cid) >= len(d.sess) || !d.sess[dec.Cid].busy {
			d.cnt.bad(&d.cnt.errors, "undecodable or unexpected Decision frame")
			return
		}
		i := int(dec.Cid)
		s := &d.sess[i]
		d.out--
		ref := d.orc.ref[s.scheme][s.tape][s.pos]
		ok := dec.Seq == uint32(s.pos) && ref.check(int(dec.Action), dec.Flags&proto.FlagFallback != 0,
			dec.Flags&proto.FlagFired != 0, dec.Flags&proto.FlagDemoted != 0, dec.Step, dec.Score)
		checked := now()
		if !ok {
			d.cnt.bad(&d.cnt.mismatches, "session %d (%s, tape %d) step %d: served %+v, reference %+v",
				i, schemeNames[s.scheme], s.tape, s.pos, dec, ref)
		} else {
			d.cnt.okSteps++
			d.ps.answered(checked)
			switch smp := (sample{due: s.due, lat: checked - s.due}); {
			case d.clk.lastStall > s.due:
				d.ps.tainted++
			case s.traced:
				d.ps.traced = append(d.ps.traced, smp)
				d.tr.step(s.due, s.picked, s.sentAt, received, checked)
			default:
				d.ps.steps = append(d.ps.steps, smp)
			}
		}
		if s.pos++; int(s.pos) == len(d.tapes[s.tape].obs) {
			// The tape wrapped: start a new episode before the next step.
			s.pos = 0
			d.cnt.attempted++
			d.out++
			if err := d.m.pc.WriteSessionControl(proto.TypeReset, dec.Cid); err != nil {
				d.err = err
			}
			d.m.wrote = true
			return
		}
		d.freed(i, checked)
	case proto.TypeOK:
		cid, err := proto.DecodeCid(payload)
		if err != nil || int(cid) >= len(d.sess) || !d.sess[cid].busy {
			d.cnt.bad(&d.cnt.errors, "unexpected OK frame")
			return
		}
		d.out--
		d.freed(int(cid), received)
	default:
		d.cnt.bad(&d.cnt.errors, "server sent %s", frameText(t, payload))
		if cid, ok := proto.StepCid(payload); ok && t == proto.TypeError && int(cid) < len(d.sess) && d.sess[cid].busy {
			d.out--
			d.freed(int(cid), received)
		}
	}
}

// run executes one phase: an open loop over sched when rate > 0, a
// closed loop with every session kept busy otherwise. traceFrom < 0
// disables tracing; otherwise arrivals due that far into the phase or
// later are traced.
func (d *steady) run(name string, rate float64, dur, traceFrom time.Duration, sched []arrival) (*phaseStats, error) {
	ps := newPhaseStats(name, rate, dur)
	ps.steps, ps.genLag = make([]sample, 0, len(sched)+1024), make([]int64, 0, len(sched))
	d.ps = ps
	start := ps.start
	d.stopAt = start + int64(dur)
	d.traceAt = 0
	if traceFrom >= 0 {
		d.traceAt = start + int64(traceFrom)
		ps.traced = make([]sample, 0, len(sched))
	}
	d.saturate = rate == 0
	if d.saturate {
		ps.steps = make([]sample, 0, 1<<20)
		for i := range d.sess {
			if !d.sess[i].busy {
				d.send(i, start, start)
			}
		}
	}
	next := 0
	d.clk = stallClock{last: now(), worked: true}
	deadline := d.stopAt + int64(drainGrace)
	for d.err == nil {
		t := d.clk.tick(ps)
		for next < len(sched) && start+sched[next].at <= t {
			d.arrive(sched[next], start+sched[next].at, t)
			if next++; next == len(sched) {
				ps.backlogEnd = d.out + d.queued
			}
			d.clk.worked = true
		}
		// Open loop: one frame per turn, so a due arrival never waits
		// behind a burst of replies. Closed loop: the whole burst, then
		// one flush, so the follow-up steps leave in one write.
		for k := 0; d.m.pending() && d.err == nil; k++ {
			d.handle()
			d.clk.worked = true
			if !d.saturate || k == maxBurst {
				break
			}
		}
		if d.m.wrote {
			d.err = d.m.flush()
		}
		if next == len(sched) && t >= d.stopAt && d.out == 0 {
			break
		}
		if d.saturate && d.out > 0 && !d.clk.worked {
			d.m.wait()
			d.clk.last = now() // time parked is neither work nor a stall
		}
		if t > deadline {
			d.cnt.bad(&d.cnt.unanswered, "%s: %d steps unanswered %v after the phase ended", name, d.out+d.queued, drainGrace)
			d.cnt.unanswered += d.out + d.queued - 1
			return ps, fmt.Errorf("%s: server stopped answering", name)
		}
	}
	if d.saturate {
		ps.backlogEnd = 0
	}
	return ps, d.err
}

// ---- churn ----

// Viewer stages.
const (
	vOpening = iota
	vFirstHalf
	vResetting
	vSecondHalf
	vClosing
)

// viewer is one short-lived session: Open → n steps → Reset → n steps
// → Close, each frame sent as soon as the previous reply is checked.
type viewer struct {
	live   bool
	scheme uint8
	stage  uint8
	tape   int32
	pos    int32
	traced bool
	due    int64 // when the outstanding frame was due (arrival, or previous reply)
	sentAt int64
}

// churn drives viewer arrivals beside a block of idle standing
// sessions on the same connection.
type churn struct {
	m        *mux
	tapes    []tape
	orc      *oracle
	cnt      *counts
	base     uint32 // first viewer cid; standing sessions sit below it
	viewers  []viewer
	free     []int32
	half     int32 // steps per half
	arrivals int   // viewers started so far: picks scheme and tape
	out      int   // frames outstanding
	refill   bool  // closed loop: a departing viewer is replaced at once
	stopAt   int64
	traceAt  int64 // steps sent at or after this are traced; 0 = never
	tr       *tracer
	ps       *phaseStats
	clk      stallClock
	err      error
}

func newChurn(m *mux, tapes []tape, orc *oracle, cnt *counts, standing, slots, half int) *churn {
	c := &churn{m: m, tapes: tapes, orc: orc, cnt: cnt, base: uint32(standing), half: int32(half),
		viewers: make([]viewer, slots), free: make([]int32, slots)}
	for i := range c.free {
		c.free[i] = int32(slots - 1 - i)
	}
	return c
}

// start admits one viewer, due at the given time.
func (c *churn) start(due int64) {
	k := c.arrivals
	c.arrivals++
	c.cnt.attempted++
	if len(c.free) == 0 {
		c.cnt.bad(&c.cnt.refused, "churn: no free viewer slot (%d in use)", len(c.viewers))
		return
	}
	slot := c.free[len(c.free)-1]
	c.free = c.free[:len(c.free)-1]
	c.viewers[slot] = viewer{live: true, scheme: uint8(k % len(schemeNames)), tape: int32(k % len(c.tapes)), due: due}
	c.out++
	if err := c.m.pc.WriteOpen(c.base+uint32(slot), schemeNames[k%len(schemeNames)]); err != nil {
		c.err = err
	}
	c.m.wrote = true
}

func (c *churn) step(slot int32, v *viewer, t int64) {
	v.due = t
	c.cnt.attempted++
	c.out++
	if err := c.m.pc.WriteStep(c.base+uint32(slot), uint32(v.pos), c.tapes[v.tape].obs[v.pos]); err != nil {
		c.err = err
	}
	c.m.wrote = true
	if v.traced = c.traceAt != 0 && t >= c.traceAt; v.traced {
		c.err = c.m.flush()
		v.sentAt = now()
	}
}

func (c *churn) control(typ proto.Type, slot int32, v *viewer, t int64) {
	v.due = t
	c.cnt.attempted++
	c.out++
	if err := c.m.pc.WriteSessionControl(typ, c.base+uint32(slot)); err != nil {
		c.err = err
	}
	c.m.wrote = true
}

func (c *churn) handle() {
	t, payload, err := c.m.readFrame()
	received := now()
	if err != nil {
		c.err = err
		return
	}
	cid, ok := proto.StepCid(payload)
	slot := int32(cid - c.base)
	if !ok || cid < c.base || int(slot) >= len(c.viewers) || !c.viewers[slot].live {
		c.cnt.bad(&c.cnt.errors, "churn: server sent %s", frameText(t, payload))
		return
	}
	v := &c.viewers[slot]
	c.out--
	switch {
	case t == proto.TypeOpened && v.stage == vOpening:
		at := now()
		if c.clk.lastStall <= v.due {
			c.ps.opens = append(c.ps.opens, sample{due: v.due, lat: at - v.due})
		}
		v.stage = vFirstHalf
		c.step(slot, v, at)
	case t == proto.TypeDecision && (v.stage == vFirstHalf || v.stage == vSecondHalf):
		dec, err := proto.DecodeDecision(payload)
		ref := c.orc.ref[v.scheme][v.tape][v.pos]
		good := err == nil && dec.Seq == uint32(v.pos) && ref.check(int(dec.Action), dec.Flags&proto.FlagFallback != 0,
			dec.Flags&proto.FlagFired != 0, dec.Flags&proto.FlagDemoted != 0, dec.Step, dec.Score)
		at := now()
		if !good {
			c.cnt.bad(&c.cnt.mismatches, "viewer (%s, tape %d) step %d: served %+v, reference %+v",
				schemeNames[v.scheme], v.tape, v.pos, dec, ref)
		} else {
			c.cnt.okSteps++
			c.ps.answered(at)
			switch smp := (sample{due: v.due, lat: at - v.due}); {
			case c.clk.lastStall > v.due:
				c.ps.tainted++
			case v.traced:
				c.ps.traced = append(c.ps.traced, smp)
				c.tr.step(v.due, v.due, v.sentAt, received, at)
			default:
				c.ps.steps = append(c.ps.steps, smp)
			}
		}
		switch v.pos++; {
		case v.pos < c.half:
			c.step(slot, v, at)
		case v.stage == vFirstHalf:
			// Replay the same steps after the Reset: a reset guard must
			// answer exactly as a fresh one did.
			v.stage, v.pos = vResetting, 0
			c.control(proto.TypeReset, slot, v, at)
		default:
			v.stage = vClosing
			c.control(proto.TypeClose, slot, v, at)
		}
	case t == proto.TypeOK && v.stage == vResetting:
		v.stage = vSecondHalf
		c.step(slot, v, now())
	case t == proto.TypeOK && v.stage == vClosing:
		v.live = false
		c.free = append(c.free, slot)
		if at := now(); c.refill && at < c.stopAt {
			c.start(at)
		}
	default:
		c.cnt.bad(&c.cnt.errors, "churn: viewer in stage %d got %s", v.stage, frameText(t, payload))
		v.live = false
		c.free = append(c.free, slot)
	}
}

// run executes one churn phase: open-loop viewer arrivals over sched
// when rate > 0, otherwise a closed loop that keeps `concurrent`
// viewers alive back to back.
func (c *churn) run(name string, rate float64, dur, traceFrom time.Duration, sched []arrival, concurrent int) (*phaseStats, error) {
	ps := newPhaseStats(name, rate, dur)
	ps.steps = make([]sample, 0, 2*int(c.half)*(len(sched)+1024)+1<<16)
	ps.opens, ps.genLag = make([]sample, 0, len(sched)+1<<14), make([]int64, 0, len(sched))
	c.ps = ps
	start := ps.start
	c.stopAt = start + int64(dur)
	c.traceAt = 0
	if traceFrom >= 0 {
		c.traceAt = start + int64(traceFrom)
		ps.traced = make([]sample, 0, cap(ps.steps))
	}
	c.refill = rate == 0
	if c.refill {
		for i := 0; i < concurrent; i++ {
			c.start(start)
		}
	}
	next := 0
	c.clk = stallClock{last: now(), worked: true}
	deadline := c.stopAt + int64(drainGrace)
	for c.err == nil {
		t := c.clk.tick(ps)
		for next < len(sched) && start+sched[next].at <= t {
			ps.genLag = append(ps.genLag, t-(start+sched[next].at))
			ps.inflightSum += int64(c.out)
			c.start(start + sched[next].at)
			if c.out > ps.backlogMax {
				ps.backlogMax = c.out
			}
			if next++; next == len(sched) {
				ps.backlogEnd = c.out
			}
			c.clk.worked = true
		}
		for k := 0; c.m.pending() && c.err == nil; k++ {
			c.handle()
			c.clk.worked = true
			if !c.refill || k == maxBurst {
				break
			}
		}
		if c.m.wrote {
			c.err = c.m.flush()
		}
		if next == len(sched) && t >= c.stopAt && c.out == 0 {
			break
		}
		if c.refill && c.out > 0 && !c.clk.worked {
			c.m.wait()
			c.clk.last = now() // time parked is neither work nor a stall
		}
		if t > deadline {
			c.cnt.bad(&c.cnt.unanswered, "%s: %d frames unanswered %v after the phase ended", name, c.out, drainGrace)
			c.cnt.unanswered += c.out - 1
			return ps, fmt.Errorf("%s: server stopped answering", name)
		}
	}
	if c.refill {
		ps.backlogEnd = 0
	}
	return ps, c.err
}

package serve

// Cross-session micro-batching. Every session shares one trained
// artifact set, so the expensive part of an ensemble step — the member
// forwards, and with them the deployed actor's — is the same chain of
// layers repeated per session. Two classes of session have such a part
// and are fused: U_π (policy ensemble) and U_V (value ensemble). A
// fused step that finds its collector idle is flushed then and there,
// on the goroutine that brought it: a batch of one that pays no park
// and no wake. One that finds the collector at work parks, and the
// collector's own goroutine flushes everything that parked as soon as
// the flush in progress is done, so the steps that arrive while one
// flush computes are the next batch. A flush fuses the parked sessions'
// observations into one matrix, runs each network once over the whole
// batch (rl.BatchScorer), and completes every parked call with inputs
// bit-identical to what its private guard would have computed alone.
//
// The third class, U_S and any wrapped signal, has nothing to fuse: its
// score is a sequential Observe, and the one forward a fused flush
// could run for it — the deployed actor's — is wasted on every step the
// default policy answers. Such a step is served by Session.step on the
// caller's goroutine and never touches a collector.
//
// There is one step path: Session.step(obs, ev, now). The collector
// passes in ev what the fused forwards computed for the session; ev ==
// nil (Session.Step) makes the guard run its own forwards — the deployed
// one only when the learned policy acts — and is the sequential
// reference the batched path is tested against. Per-session state
// (signal scratch, trigger, mode, episode bookkeeping) advances in that
// one function under the session's own lock either way.
//
// Sharding: sessions are assigned round-robin to one of N collectors
// at creation (N defaults to GOMAXPROCS); a session's steps always
// flow through its own collector, each collector owns a private
// BatchScorer, and collectors never share mutable state — the
// single-goroutine inference contract holds per collector.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"osap/internal/core"
	"osap/internal/linalg"
	"osap/internal/rl"
)

// batchClass says how much of a session's step the batch engine can
// compute. Classified once at session creation (the guard's policies
// and signal never change afterwards).
type batchClass uint8

const (
	// classBatchState: nothing is batched; the signal (U_S, or any
	// wrapped/custom signal) is evaluated sequentially via Observe and
	// the step is served without a collector.
	classBatchState batchClass = iota
	// classBatchPolicy: U_π member forwards batched; the deployed actor
	// is member 0.
	classBatchPolicy
	// classBatchValue: deployed forward and U_V member forwards batched.
	classBatchValue
)

// classifyGuard inspects a freshly built guard and picks the widest
// batch class its signal's concrete type supports. Anything
// unrecognized — a chaos-wrapped signal — degrades to classBatchState,
// never to an error. The fused classes take the deployed forward from
// the batch: the learned policy is always the factory's
// rl.GreedyInference (Config.WrapGuard may replace only the signal).
func classifyGuard(g *core.Guard) batchClass {
	switch g.Signal.(type) {
	case *core.PolicySignal:
		return classBatchPolicy
	case *core.ValueSignal:
		return classBatchValue
	default:
		return classBatchState
	}
}

// BatchConfig sizes the micro-batching engine.
type BatchConfig struct {
	// MaxBatch caps sessions fused into one GEMM (0 → 32). The cap
	// bounds per-flush decision latency — a flush costs roughly
	// batch-size × per-row inference — and the overflow of a long queue
	// is flushed as successive chunks, never dropped. GEMM amortization
	// saturates well before 32 rows, so larger caps buy little
	// throughput and cost tail latency. A binary connection's read
	// buffer holds this many step frames.
	MaxBatch int
	// Collectors is the shard count (0 → GOMAXPROCS).
	Collectors int
}

func (c BatchConfig) withDefaults() BatchConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 32
	}
	if c.Collectors <= 0 {
		c.Collectors = runtime.GOMAXPROCS(0)
	}
	return c
}

// stepCall is one parked step. done is buffered so the flusher never
// blocks handing a result back; calls are pooled and live for exactly
// one park→complete round trip.
type stepCall struct {
	sess *Session
	obs  []float64
	now  time.Time
	enq  time.Time
	res  StepResult
	err  error
	done chan struct{}
}

var callPool = sync.Pool{New: func() any { return &stepCall{done: make(chan struct{}, 1)} }}

// Batcher owns the collector shards; every Generation a Server serves
// has one.
type Batcher struct {
	metrics    *Metrics
	collectors []*collector
	assign     atomic.Uint64
}

// newBatcher starts cfg.Collectors shards; cfg has its defaults filled
// in (Config.withDefaults).
func newBatcher(f *GuardFactory, m *Metrics, cfg BatchConfig) (*Batcher, error) {
	b := &Batcher{metrics: m, collectors: make([]*collector, cfg.Collectors)}
	for i := range b.collectors {
		scorer, err := f.frozen.NewBatchScorer(cfg.MaxBatch)
		if err != nil {
			return nil, err
		}
		b.collectors[i] = newCollector(scorer, m, cfg)
		go b.collectors[i].run()
	}
	return b, nil
}

// assignShard round-robins a new session onto a collector.
func (b *Batcher) assignShard() int {
	return int(b.assign.Add(1) % uint64(len(b.collectors)))
}

// do serves one step and blocks until it is decided. A session whose
// step has nothing to fuse is stepped here, sequentially; it is still
// observed as a batch of one that did not queue, so the three
// histograms count every decision whatever its class. A fused session
// goes to its collector: flushed alone if the shard is idle, parked
// otherwise. enq is the caller's reading of the clock when the step
// entered the server (queue and decision latency are measured from it,
// so the step is not charged a second reading); now stamps the
// session's idle clock. Callers must have validated the observation
// length already (the matrix copy trusts it).
//
//osap:hotpath
func (b *Batcher) do(sess *Session, obs []float64, enq, now time.Time) (StepResult, error) {
	if sess.class == classBatchState {
		b.metrics.BatchSize.Observe(1)
		b.metrics.QueueLatency.Observe(0)
		res, err := sess.step(obs, nil, now)
		b.metrics.DecisionLatency.Observe(time.Since(enq).Seconds())
		return res, err
	}
	call := callPool.Get().(*stepCall)
	call.sess, call.obs, call.now, call.enq = sess, obs, now, enq
	if c := b.collectors[sess.shard]; !c.flushAlone(call) {
		c.park(call)
	}
	<-call.done // buffered: already there after flushAlone
	res, err := call.res, call.err
	call.sess, call.obs, call.err = nil, nil, nil
	call.res = StepResult{}
	callPool.Put(call)
	return res, err
}

// Stop terminates every collector, flushing any parked calls first.
// Call only after all steppers have finished (Drain waits for its
// in-flight handlers before stopping the batcher).
func (b *Batcher) Stop() {
	for _, c := range b.collectors {
		close(c.stop)
	}
	for _, c := range b.collectors {
		<-c.done
	}
}

// collector is one batching shard: a parked-call queue, a goroutine
// that flushes it whenever it is non-empty, and private scoring
// scratch. The scratch below the mutex section belongs to whoever set
// busy: the collector goroutine, or a caller flushing its own step
// because it found the shard idle.
type collector struct {
	cfg     BatchConfig
	scorer  *rl.BatchScorer
	metrics *Metrics

	mu     sync.Mutex
	parked []*stepCall
	spare  []*stepCall // flushed-side buffer; ping-pongs with parked
	busy   bool        // a flush is in progress

	wake chan struct{} // buffered 1: batch went non-empty
	stop chan struct{}
	done chan struct{}

	// Flush scratch (whoever holds busy).
	lone        [1]*stepCall  // flushAlone's batch of one
	order       []*stepCall   // calls reordered [policy | value]
	obs         linalg.Matrix // fused observations, MaxBatch×obsDim capacity
	polObsView  linalg.Matrix // row-limited views into obs for the scorer
	valObsView  linalg.Matrix
	deployedOut *linalg.Matrix // deployed rows of the value partition; policy rows read polDists[0]
	polDists    []*linalg.Matrix
	valCols     [][]float64
	ev          batchEval
	evDists     [][]float64
	evVals      []float64
}

func newCollector(scorer *rl.BatchScorer, m *Metrics, cfg BatchConfig) *collector {
	dim := scorer.ObsDim()
	c := &collector{
		cfg:     cfg,
		scorer:  scorer,
		metrics: m,
		parked:  make([]*stepCall, 0, cfg.MaxBatch),
		spare:   make([]*stepCall, 0, cfg.MaxBatch),
		wake:    make(chan struct{}, 1),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		order:   make([]*stepCall, 0, cfg.MaxBatch),
		evDists: make([][]float64, scorer.NumMembers()),
		evVals:  make([]float64, scorer.NumValueNets()),
	}
	c.obs = *linalg.NewMatrix(cfg.MaxBatch, dim)
	c.polObsView = linalg.Matrix{Rows: 0, Cols: dim}
	c.valObsView = linalg.Matrix{Rows: 0, Cols: dim}
	return c
}

// flushAlone serves call on the caller's goroutine if nothing is
// parked and no flush is running, and says whether it did. At the
// rates a server is normally run at that is almost every step, and it
// saves the step two goroutine switches: to the collector and back.
//
//osap:hotpath
func (c *collector) flushAlone(call *stepCall) bool {
	c.mu.Lock()
	if c.busy || len(c.parked) > 0 {
		c.mu.Unlock()
		return false
	}
	c.busy = true
	c.mu.Unlock()
	c.lone[0] = call
	c.flush(c.lone[:])
	c.lone[0] = nil
	c.release()
	return true
}

// release ends a flush, and wakes the run loop if steps parked while
// it ran: the loop may have woken for them already and found the
// scratch taken.
func (c *collector) release() {
	c.mu.Lock()
	c.busy = false
	waiting := len(c.parked) > 0
	c.mu.Unlock()
	if waiting {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// park enqueues a call; the first call of a batch wakes the run loop.
func (c *collector) park(call *stepCall) {
	c.mu.Lock()
	//osap:ignore hotpath-closure parked is presized to MaxBatch and recycled via the spare swap; growth only absorbs transient overshoot
	c.parked = append(c.parked, call)
	n := len(c.parked)
	c.mu.Unlock()
	if n == 1 {
		select {
		case c.wake <- struct{}{}:
		default:
		}
	}
}

// run is the collector loop: sleep until a batch opens, flush, repeat.
func (c *collector) run() {
	defer close(c.done)
	for {
		select {
		case <-c.stop:
			c.flushAll()
			return
		case <-c.wake:
			c.flushAll()
		}
	}
}

// flushAll swaps out the parked queue and flushes it in MaxBatch
// chunks — unless a caller is flushing alone right now, whose release
// will wake the loop again.
func (c *collector) flushAll() {
	c.mu.Lock()
	if c.busy {
		c.mu.Unlock()
		return
	}
	c.busy = true
	batch := c.parked
	c.parked = c.spare[:0]
	c.spare = batch
	c.mu.Unlock()
	for rest := batch; len(rest) > 0; {
		n := len(rest)
		if n > c.cfg.MaxBatch {
			n = c.cfg.MaxBatch
		}
		c.flush(rest[:n])
		rest = rest[n:]
	}
	for i := range batch {
		batch[i] = nil // drop session/obs refs until the next swap
	}
	c.release()
}

// flush serves one micro-batch: fused forward passes, then per-call
// completion under each session's own lock. Queue latency is
// enqueue→flush-start; decision latency is flush-start→completion, so
// the two histograms split waiting-to-batch from deciding.
//
//osap:hotpath
func (c *collector) flush(calls []*stepCall) {
	start := time.Now()
	c.metrics.BatchSize.Observe(float64(len(calls)))
	qh := c.metrics.QueueLatency
	for _, call := range calls {
		qh.Observe(start.Sub(call.enq).Seconds())
	}
	dh := c.metrics.DecisionLatency
	nPol, ok := c.prepare(calls) //osap:hotpath-stop prepare is panic containment by design; clean path asserted by TestBatchedStepZeroAlloc
	if !ok {
		// The fused scoring faulted. Serve every call sequentially so
		// the fault surfaces on (and demotes) the session that owns it,
		// not the whole batch.
		for _, call := range calls {
			call.res, call.err = call.sess.Step(call.obs, call.now)
			dh.Observe(time.Since(start).Seconds())
			call.done <- struct{}{}
		}
		return
	}
	for idx, call := range c.order {
		ev := &c.ev
		ev.dists = nil
		ev.vals = nil
		if idx < nPol {
			ev.class = classBatchPolicy
			dists := c.evDists[:len(c.polDists)]
			for m := range c.polDists {
				dists[m] = c.polDists[m].Row(idx)
			}
			ev.dists = dists
			ev.deployed = dists[0] // member 0 is the deployed agent (rl.BatchScorer)
		} else {
			ev.class = classBatchValue
			ev.deployed = c.deployedOut.Row(idx - nPol)
			vals := c.evVals[:len(c.valCols)]
			for m := range c.valCols {
				vals[m] = c.valCols[m][idx-nPol]
			}
			ev.vals = vals
		}
		call.res, call.err = call.sess.step(call.obs, ev, call.now)
		dh.Observe(time.Since(start).Seconds())
		call.done <- struct{}{}
	}
}

// prepare partitions the batch as [policy | value], copies the
// observations into the fused matrix and runs the shared forward
// passes: every ensemble member over its rows, and the deployed actor
// over the value rows only — on a policy row it is member 0 of the
// ensemble pass. Panic-contained: a fault anywhere in the fused scoring
// reports ok=false and the caller falls back to sequential serving.
// Like Session.decide, it is deliberately not //osap:hotpath-annotated
// — the deferred recover is the point, and the clean path's zero-alloc
// guarantee is asserted empirically by TestBatchedStepZeroAlloc.
func (c *collector) prepare(calls []*stepCall) (nPol int, ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	order := c.order[:0]
	for _, call := range calls {
		if call.sess.class == classBatchPolicy {
			order = append(order, call)
		}
	}
	nPol = len(order)
	for _, call := range calls {
		if call.sess.class == classBatchValue {
			order = append(order, call)
		}
	}
	c.order = order
	nb := len(order)
	dim := c.scorer.ObsDim()
	for r := 0; r < nb; r++ {
		copy(c.obs.Data[r*dim:(r+1)*dim], order[r].obs)
	}
	c.polDists = nil
	if nPol > 0 {
		c.polObsView.Rows = nPol
		c.polObsView.Data = c.obs.Data[:nPol*dim]
		c.polDists = c.scorer.PolicyDists(&c.polObsView)
	}
	c.deployedOut, c.valCols = nil, nil
	if nb > nPol {
		c.valObsView.Rows = nb - nPol
		c.valObsView.Data = c.obs.Data[nPol*dim : nb*dim]
		c.deployedOut = c.scorer.Deployed(&c.valObsView)
		c.valCols = c.scorer.Values(&c.valObsView)
	}
	return nPol, true
}

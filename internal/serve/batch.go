package serve

// The shard. Every session shares one trained artifact set, so the
// expensive part of an ensemble step — the member forwards, and with
// them the deployed actor's — is a chain of layers no session needs a
// copy of. Two classes of session have such a part: U_π (policy
// ensemble) and U_V (value ensemble). Their forwards run on a shard: a
// one-row rl.BatchScorer and its scratch behind a mutex. A step takes
// its shard's lock, runs the forwards there, steps its session with
// what they computed and lets go, all on the goroutine that brought it.
// Sessions hold the state a step advances, not the scratch it computes
// in (rl.Frozen builds a session's own workspaces on first use, which a
// fused session never reaches).
//
// The third class, U_S and any wrapped signal, has nothing a shard
// could run for it: its score is a sequential Observe, and the deployed
// forward is wasted on every step the default policy answers. Such a
// step is served by Session.step and never touches a shard.
//
// There is one step path: Session.step(obs, ev, now). The shard passes
// in ev what its forwards computed for the session; ev == nil
// (Session.Step) makes the guard run its own forwards — the deployed one
// only when the learned policy acts — and is the sequential reference
// the shard path is tested against and falls back to. Per-session state
// (signal scratch, trigger, mode, episode bookkeeping) advances in that
// one function under the session's own lock either way; the lock order
// is shard, then session.
//
// Sharding: sessions are assigned round-robin to one of GOMAXPROCS
// shards at creation, and a session's steps always take its own shard.
// Two steps wait on each other only when they share a shard and arrive
// in the same instant.

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"osap/internal/core"
	"osap/internal/linalg"
	"osap/internal/rl"
)

// batchClass says how much of a session's step a shard can compute.
// Classified once at session creation (the guard's policies and signal
// never change afterwards).
type batchClass uint8

const (
	// classBatchState: the signal (U_S, or any wrapped/custom signal) is
	// evaluated sequentially via Observe and the step is served without
	// a shard.
	classBatchState batchClass = iota
	// classBatchPolicy: U_π member forwards on the shard; the deployed
	// actor is member 0.
	classBatchPolicy
	// classBatchValue: deployed forward and U_V member forwards on the
	// shard.
	classBatchValue
)

// classifyGuard inspects a freshly built guard and picks the widest
// batch class its signal's concrete type supports. Anything
// unrecognized — a chaos-wrapped signal — degrades to classBatchState,
// never to an error. The fused classes take the deployed forward from
// the shard: the learned policy is always the factory's
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

// Batcher owns one generation's shards; every Generation a Server
// serves has one.
type Batcher struct {
	metrics *Metrics
	shards  []*shard
	assign  atomic.Uint64
}

// shard is one lock and the one-row inference scratch it guards.
type shard struct {
	mu     sync.Mutex
	scorer *rl.BatchScorer
	obs    linalg.Matrix // a 1×obsDim view of the step's observation
	ev     batchEval
}

// newBatcher builds GOMAXPROCS shards over f's packed networks.
func newBatcher(f *GuardFactory, m *Metrics) (*Batcher, error) {
	b := &Batcher{metrics: m, shards: make([]*shard, runtime.GOMAXPROCS(0))}
	for i := range b.shards {
		scorer, err := f.frozen.NewBatchScorer(1)
		if err != nil {
			return nil, err
		}
		b.shards[i] = &shard{
			scorer: scorer,
			obs:    linalg.Matrix{Rows: 1, Cols: scorer.ObsDim()},
			ev: batchEval{
				dists: make([][]float64, scorer.NumMembers()),
				vals:  make([]float64, scorer.NumValueNets()),
			},
		}
	}
	return b, nil
}

// assignShard round-robins a new session onto a shard.
func (b *Batcher) assignShard() int {
	return int(b.assign.Add(1) % uint64(len(b.shards)))
}

// do serves one step and returns its decision. A session whose step has
// nothing to fuse is stepped alone; one that has waits for its shard,
// then is stepped under the shard's lock with what the shard's forwards
// computed. Every step is observed as a batch of one; queue latency is
// the wait for the shard (0 without one) and decision latency runs from
// holding it to decided. enq is the caller's reading of the clock when
// the step entered the server (so the step is not charged a second
// reading); now stamps the session's idle clock. Callers must have
// validated the observation length already.
//
//osap:hotpath
func (b *Batcher) do(sess *Session, obs []float64, enq, now time.Time) (StepResult, error) {
	m := b.metrics
	m.BatchSize.Observe(1)
	if sess.class == classBatchState {
		m.QueueLatency.Observe(0)
		res, err := sess.step(obs, nil, now)
		m.DecisionLatency.Observe(time.Since(enq).Seconds())
		return res, err
	}
	sh := b.shards[sess.shard]
	sh.mu.Lock()
	start := time.Now()
	m.QueueLatency.Observe(start.Sub(enq).Seconds())
	var res StepResult
	var err error
	if sh.prepare(sess.class, obs) { //osap:hotpath-stop prepare is panic containment by design; clean path asserted by TestBatchedStepZeroAlloc
		res, err = sess.step(obs, &sh.ev, now)
	} else {
		// The shard's forwards faulted. The session's own sequential step
		// runs them again, so the fault surfaces on (and demotes) the
		// session if it is the session's.
		res, err = sess.Step(obs, now)
	}
	m.DecisionLatency.Observe(time.Since(start).Seconds())
	sh.mu.Unlock()
	return res, err
}

// prepare runs the shared forwards of one fused step over obs and
// leaves their rows in sh.ev: the policy ensemble (whose member 0 is
// the deployed actor) for a U_π session, the deployed actor and the
// value ensemble for a U_V one. Panic-contained: a fault anywhere in
// the forwards reports false and the caller falls back to the session's
// sequential step. Like Session.decide, it is deliberately not
// //osap:hotpath-annotated — the deferred recover is the point, and the
// clean path's zero-alloc guarantee is asserted empirically by
// TestBatchedStepZeroAlloc.
func (sh *shard) prepare(class batchClass, obs []float64) (ok bool) {
	defer func() {
		sh.obs.Data = nil
		if recover() != nil {
			ok = false
		}
	}()
	sh.obs.Data = obs
	ev := &sh.ev
	ev.class = class
	if class == classBatchPolicy {
		for m, d := range sh.scorer.PolicyDists(&sh.obs) {
			ev.dists[m] = d.Row(0)
		}
		ev.deployed = ev.dists[0] // member 0 is the deployed agent (rl.BatchScorer)
	} else {
		ev.deployed = sh.scorer.Deployed(&sh.obs).Row(0)
		for m, col := range sh.scorer.Values(&sh.obs) {
			ev.vals[m] = col[0]
		}
	}
	return true
}

package rl

// Allocation-free inference handles. The paper's safety decision runs
// once per video chunk per viewer (§2.5), so the serving hot path —
// ensemble forward passes feeding U_π/U_V plus the deployed agent's own
// decision — must not put pressure on the allocator. A handle runs one
// packed network (nn.PackedNetwork: immutable, shared) on a one-row
// nn.BatchWorkspace it is given and owns no other scratch. Whoever lends
// the workspace keeps its forwards apart: a server shard lends its
// Scratch to the guards of every session assigned to it and steps them
// one at a time under its lock, and an offline guard runs on a Scratch
// of its own. Handles come from a Frozen's Scratch — the one way to get
// them over an artifact set — or, for a lone deployed agent,
// NewGreedyInference.

import (
	"fmt"
	"math"
	"sync"

	"osap/internal/mdp"
	"osap/internal/nn"
	"osap/internal/stats"
)

// Frozen is the packed, read-only inference form of one artifact set:
// the agents' actors (member 0 is the deployed agent) and the value
// ensemble's critics, each packed once. Build it where the artifacts
// are loaded — a server does so once per generation — and hand out
// forward scratch from it: every Scratch shares the packed weights and
// owns only activation buffers. Safe for concurrent use.
type Frozen struct {
	actors []*nn.PackedNetwork
	values []*nn.PackedNetwork
}

// Freeze packs the agents' actors and the value networks as they are
// now; later weight changes do not reach the result. At least the
// deployed agent is required.
func Freeze(agents []*ActorCritic, valueNets []*nn.Network) (*Frozen, error) {
	if len(agents) == 0 {
		return nil, fmt.Errorf("rl: Freeze needs at least the deployed agent")
	}
	f := &Frozen{
		actors: make([]*nn.PackedNetwork, len(agents)),
		values: make([]*nn.PackedNetwork, len(valueNets)),
	}
	for i, a := range agents {
		f.actors[i] = nn.Pack(a.Actor)
	}
	for i, n := range valueNets {
		f.values[i] = nn.Pack(n)
	}
	return f, nil
}

// ObsDim returns the observation length the deployed agent expects.
func (f *Frozen) ObsDim() int { return f.actors[0].InDim() }

// NumActions returns the deployed agent's action-space size.
func (f *Frozen) NumActions() int { return f.actors[0].OutDim() }

// Scratch is one-row forward scratch for every network of a Frozen:
// one workspace per packed network, and the inference handles over
// them, built once. The deployed agent is member 0 of the policy
// ensemble, so the greedy handle and U_π's member 0 run on one
// workspace, and a greedy decision on the observation U_π has just
// scored reads member 0's forward instead of repeating it: an
// A-ensemble step runs one forward per member and no more. Every guard
// built on a Scratch shares its handles; they must not run
// concurrently, and since they alias its buffers a result is valid
// only until the next forward on the same workspace.
type Scratch struct {
	actions  int
	greedy   *GreedyInference
	policies []mdp.Policy
	values   []mdp.ValueFn
}

// NewScratch allocates one-row workspaces for all of f's networks and
// the handles over them.
func (f *Frozen) NewScratch() *Scratch {
	sc := &Scratch{
		actions:  f.NumActions(),
		policies: make([]mdp.Policy, len(f.actors)),
		values:   make([]mdp.ValueFn, len(f.values)),
	}
	sc.policies[0], sc.greedy = newGreedyInference(f.actors[0])
	for i, p := range f.actors[1:] {
		sc.policies[i+1] = &PolicyInference{ws: p.NewBatchWorkspace(1)}
	}
	for i, p := range f.values {
		sc.values[i] = &ValueInference{ws: p.NewBatchWorkspace(1)}
	}
	return sc
}

// NumActions returns the deployed agent's action-space size.
func (sc *Scratch) NumActions() int { return sc.actions }

// Greedy returns the greedy serving handle for the deployed agent.
func (sc *Scratch) Greedy() *GreedyInference { return sc.greedy }

// Policies returns one handle per agent, the U_π ensemble: the same
// slice on every call, which callers must not modify.
func (sc *Scratch) Policies() []mdp.Policy { return sc.policies }

// Values returns one handle per value network, the U_V ensemble: the
// same slice on every call, which callers must not modify.
func (sc *Scratch) Values() []mdp.ValueFn { return sc.values }

// Forwards returns how many forwards the scratch's workspaces have run.
//
//osap:ignore deadcode the guard tests of internal/experiments count an A-ensemble step's forwards with it
func (sc *Scratch) Forwards() uint64 {
	var n uint64
	for _, p := range sc.policies {
		n += p.(*PolicyInference).ws.Forwards()
	}
	for _, v := range sc.values {
		n += v.(*ValueInference).ws.Forwards()
	}
	return n
}

// PolicyInference is an allocation-free policy handle for one agent.
// Probs returns a buffer of the handle's workspace, valid until its
// next forward, which callers must not modify; callers that retain the
// distribution must copy it (mdp.Rollout does).
type PolicyInference struct {
	ws *nn.BatchWorkspace
	// in is a copy of the last forward's input and out that forward's
	// output, kept only on a handle a GreedyInference reads (in is nil
	// on the others).
	in, out []float64
}

// Probs implements mdp.Policy without heap allocation. The result is
// bit-identical to ac.Probs.
//
//osap:hotpath
func (p *PolicyInference) Probs(obs []float64) []float64 {
	out := p.ws.ForwardRow(obs)
	if p.in != nil {
		copy(p.in, obs)
		p.out = out
	}
	return out
}

// last is Probs(obs) read from the last forward when that forward's
// input was obs, bit for bit: the workspace's output is a function of
// its input alone, and nothing writes it between forwards.
//
//osap:hotpath
func (p *PolicyInference) last(obs []float64) []float64 {
	if p.out == nil || len(obs) != len(p.in) {
		return p.Probs(obs)
	}
	for i, x := range obs {
		if math.Float64bits(x) != math.Float64bits(p.in[i]) {
			return p.Probs(obs)
		}
	}
	return p.out
}

// ValueInference is an allocation-free value-function handle for one
// critic network.
type ValueInference struct {
	ws *nn.BatchWorkspace
}

// Value implements mdp.ValueFn without heap allocation. The result is
// bit-identical to NetValueFn.Value.
//
//osap:hotpath
func (v *ValueInference) Value(obs []float64) float64 {
	return v.ws.ForwardRow(obs)[0]
}

// GreedyInference is the serving counterpart of GreedyPolicy: a
// one-hot on the agent's argmax action, without allocating. It reads
// the agent's policy handle, and on the observation that handle has
// just run — the U_π ensemble's member 0 in an A-ensemble step — it
// takes that forward's distribution instead of running its own. Unlike
// GreedyPolicy it passes a non-finite forward through, so the guard
// that serves it can demote a broken actor.
type GreedyInference struct {
	agent  *PolicyInference
	onehot []float64
}

// NewGreedyInference builds a greedy serving handle for an agent, on a
// workspace of its own.
func NewGreedyInference(ac *ActorCritic) *GreedyInference {
	_, g := newGreedyInference(nn.Pack(ac.Actor))
	return g
}

// newGreedyInference builds an agent's policy handle on a workspace of
// its own, which keeps its last forward for the greedy handle returned
// with it.
func newGreedyInference(p *nn.PackedNetwork) (*PolicyInference, *GreedyInference) {
	agent := &PolicyInference{ws: p.NewBatchWorkspace(1), in: make([]float64, p.InDim())}
	return agent, &GreedyInference{agent: agent, onehot: make([]float64, p.OutDim())}
}

// Probs implements mdp.Policy: a one-hot on the agent's argmax, valid
// until the next call. A forward with a non-finite entry is returned as
// it is, valid until the next forward on the agent's workspace, so the
// caller sees a broken actor instead of the one-hot its argmax would
// make (the argmax of an all-NaN distribution is action 0).
//
//osap:hotpath
func (g *GreedyInference) Probs(obs []float64) []float64 {
	probs := g.agent.last(obs)
	if !stats.AllFinite(probs) {
		return probs
	}
	for i := range g.onehot {
		g.onehot[i] = 0
	}
	g.onehot[mdp.ArgmaxAction(probs)] = 1
	return g.onehot
}

// SharedPolicy is a packed copy of an agent's actor that any number of
// goroutines may query at once, for rolling out a frozen agent in
// parallel. Each Probs borrows a one-row workspace from a pool and
// returns a fresh copy of the distribution, bit-identical to ac.Probs.
type SharedPolicy struct{ pool sync.Pool }

// NewSharedPolicy packs the agent's actor as it is now.
func NewSharedPolicy(ac *ActorCritic) *SharedPolicy {
	p := nn.Pack(ac.Actor)
	return &SharedPolicy{pool: sync.Pool{New: func() any { return p.NewBatchWorkspace(1) }}}
}

// Probs implements mdp.Policy.
func (s *SharedPolicy) Probs(obs []float64) []float64 {
	ws := s.pool.Get().(*nn.BatchWorkspace)
	probs := append([]float64(nil), ws.ForwardRow(obs)...)
	s.pool.Put(ws)
	return probs
}

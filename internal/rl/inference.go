package rl

// Allocation-free inference sessions. The paper's safety decision runs
// once per video chunk per viewer (§2.5), so the serving hot path —
// ensemble forward passes feeding U_π/U_V plus the deployed agent's own
// decision — must not put pressure on the allocator. Each session binds
// a packed network (nn.PackedNetwork: immutable, shared) to a private
// one-row nn.BatchWorkspace, so sequential inference is the batched
// path at a batch of one; one session per goroutine, never shared. The
// workspace is built on the session's first forward: a server session
// whose forwards its shard runs never calls one, and holds none.

import (
	"fmt"

	"osap/internal/mdp"
	"osap/internal/nn"
)

// Frozen is the packed, read-only inference form of one artifact set:
// the agents' actors (member 0 is the deployed agent) and the value
// ensemble's critics, each packed once. Build it where the artifacts
// are loaded — a server does so once per generation — and hand out
// sessions and batch scorers from it: they share the packed weights
// and own only their activation buffers. Safe for concurrent use.
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

// Greedy returns a fresh greedy serving session for the deployed agent.
func (f *Frozen) Greedy() *GreedyInference {
	return &GreedyInference{
		p:      &PolicyInference{row: rowForward{net: f.actors[0]}},
		onehot: make([]float64, f.NumActions()),
	}
}

// Policies returns one fresh session per agent: the U_π ensemble. The
// returned policies are single-goroutine as a set — one set per
// Guard/Signal instance.
func (f *Frozen) Policies() []mdp.Policy {
	ps := make([]mdp.Policy, len(f.actors))
	for i, p := range f.actors {
		ps[i] = &PolicyInference{row: rowForward{net: p}}
	}
	return ps
}

// Values returns one fresh session per value network: the U_V
// ensemble, mirroring Policies.
func (f *Frozen) Values() []mdp.ValueFn {
	vs := make([]mdp.ValueFn, len(f.values))
	for i, p := range f.values {
		vs[i] = &ValueInference{row: rowForward{net: p}}
	}
	return vs
}

// rowForward runs one row through a packed network on a private
// workspace that it builds on first use.
type rowForward struct {
	net *nn.PackedNetwork
	ws  *nn.BatchWorkspace
}

//osap:hotpath
func (r *rowForward) forward(obs []float64) []float64 {
	if r.ws == nil {
		r.ws = r.net.NewBatchWorkspace(1) //osap:hotpath-stop built once, on the handle's first forward; later forwards are alloc-tested
	}
	return r.ws.ForwardRow(obs)
}

// PolicyInference is a single-goroutine, allocation-free policy handle
// for one agent. Probs returns a buffer owned by the session, valid
// until the next call; callers that retain the distribution must copy
// it (mdp.Rollout does).
type PolicyInference struct {
	row rowForward
}

// NewPolicyInference packs the agent's actor as it is now. Callers
// building many sessions over the same agents Freeze once instead.
func NewPolicyInference(ac *ActorCritic) *PolicyInference {
	return &PolicyInference{row: rowForward{net: nn.Pack(ac.Actor)}}
}

// Probs implements mdp.Policy without heap allocation after the first
// call. The result is bit-identical to ac.Probs.
//
//osap:hotpath
func (p *PolicyInference) Probs(obs []float64) []float64 {
	return p.row.forward(obs)
}

// ValueInference is a single-goroutine, allocation-free value-function
// handle for one critic network.
type ValueInference struct {
	row rowForward
}

// NewValueInference packs a critic network as it is now.
func NewValueInference(net *nn.Network) *ValueInference {
	return &ValueInference{row: rowForward{net: nn.Pack(net)}}
}

// Value implements mdp.ValueFn without heap allocation after the first
// call. The result is bit-identical to NetValueFn.Value.
//
//osap:hotpath
func (v *ValueInference) Value(obs []float64) float64 {
	return v.row.forward(obs)[0]
}

// GreedyInference is the allocation-free counterpart of GreedyPolicy: a
// one-hot on the agent's argmax action, written into a session-owned
// buffer. Single-goroutine, like every inference session.
type GreedyInference struct {
	p      *PolicyInference
	onehot []float64
}

// NewGreedyInference builds a greedy serving handle for an agent.
func NewGreedyInference(ac *ActorCritic) *GreedyInference {
	return &GreedyInference{
		p:      NewPolicyInference(ac),
		onehot: make([]float64, ac.Actor.OutDim()),
	}
}

// Probs implements mdp.Policy: a one-hot on the agent's argmax, valid
// until the next call.
//
//osap:hotpath
func (g *GreedyInference) Probs(obs []float64) []float64 {
	return g.OneHot(g.p.Probs(obs))
}

// OneHot writes the greedy one-hot for an externally computed action
// distribution into the session-owned buffer — the batched counterpart
// of Probs, bit-identical to it given an identical distribution (same
// argmax, same buffer discipline). Valid until the next Probs/OneHot
// call on g.
//
//osap:hotpath
func (g *GreedyInference) OneHot(probs []float64) []float64 {
	for i := range g.onehot {
		g.onehot[i] = 0
	}
	g.onehot[mdp.ArgmaxAction(probs)] = 1
	return g.onehot
}

// InferencePolicyEnsemble is the one-call entry point for the U_π
// signal: every member packed and given a private workspace, so an
// ensemble evaluation (5 forward passes per chunk) after the first
// does no heap allocation. The returned policies are single-goroutine
// as a set — build one ensemble per Guard/Signal instance.
func InferencePolicyEnsemble(agents []*ActorCritic) []mdp.Policy {
	ps := make([]mdp.Policy, len(agents))
	for i, a := range agents {
		ps[i] = NewPolicyInference(a)
	}
	return ps
}

// InferenceValueEnsemble is the one-call entry point for the U_V
// signal, mirroring InferencePolicyEnsemble.
func InferenceValueEnsemble(nets []*nn.Network) []mdp.ValueFn {
	vs := make([]mdp.ValueFn, len(nets))
	for i, n := range nets {
		vs[i] = NewValueInference(n)
	}
	return vs
}

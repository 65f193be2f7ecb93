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
	"sync"

	"osap/internal/mdp"
	"osap/internal/nn"
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
// workspace. Every guard built on a Scratch shares its handles; they
// must not run concurrently, and since they alias its buffers a result
// is valid only until the next forward on the same workspace.
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
	for i, p := range f.actors {
		ws := p.NewBatchWorkspace(1)
		if i == 0 {
			sc.greedy = &GreedyInference{ws: ws}
		}
		sc.policies[i] = &PolicyInference{ws: ws}
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

// PolicyInference is an allocation-free policy handle for one agent.
// Probs returns a buffer of the handle's workspace, valid until its
// next forward; callers that retain the distribution must copy it
// (mdp.Rollout does).
type PolicyInference struct {
	ws *nn.BatchWorkspace
}

// Probs implements mdp.Policy without heap allocation. The result is
// bit-identical to ac.Probs.
//
//osap:hotpath
func (p *PolicyInference) Probs(obs []float64) []float64 {
	return p.ws.ForwardRow(obs)
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

// GreedyInference is the allocation-free counterpart of GreedyPolicy: a
// one-hot on the agent's argmax action, written over the forward's
// output in the handle's workspace.
type GreedyInference struct {
	ws *nn.BatchWorkspace
}

// NewGreedyInference builds a greedy serving handle for an agent, on a
// workspace of its own.
func NewGreedyInference(ac *ActorCritic) *GreedyInference {
	return &GreedyInference{ws: nn.Pack(ac.Actor).NewBatchWorkspace(1)}
}

// Probs implements mdp.Policy: a one-hot on the agent's argmax, valid
// until the next forward on the handle's workspace.
//
//osap:hotpath
func (g *GreedyInference) Probs(obs []float64) []float64 {
	probs := g.ws.ForwardRow(obs)
	a := mdp.ArgmaxAction(probs)
	for i := range probs {
		probs[i] = 0
	}
	probs[a] = 1
	return probs
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

package rl

// Batched inference. A serving process hosts thousands of sessions
// that all share one trained artifact set, so the forward passes of
// any number of observations can run together: one pass over the batch
// for the deployed actor, one per ensemble member. BatchScorer owns the
// batch workspaces; like every inference session it is single-goroutine
// — internal/serve gives each shard its own, built for one row, all
// over one shared Frozen.

import (
	"fmt"

	"osap/internal/linalg"
	"osap/internal/nn"
)

// BatchScorer evaluates the deployed agent, the policy ensemble and
// the value ensemble over a [batch, obsDim] observation matrix in one
// batched forward pass each. Row r of every result is bit-identical to
// the corresponding single-session inference (PolicyInference /
// ValueInference) on row r alone — the property the serve shard's
// equivalence tests pin down.
//
// Invariant: member 0 of the policy ensemble is the deployed agent —
// the same packed network — so PolicyDists(obs)[0] is, bit for bit,
// what Deployed(obs) returns. A caller that needs both for the same
// rows calls PolicyDists alone and reads member 0; a serve shard runs
// Deployed only for a session no ensemble pass covers.
type BatchScorer struct {
	obsDim int

	deployedWS *nn.BatchWorkspace
	memberWS   []*nn.BatchWorkspace // policy ensemble (nil if < 2 agents)
	valueWS    []*nn.BatchWorkspace // value ensemble (nil if < 2 nets)

	dists []*linalg.Matrix // per-member result views (PolicyDists)
	vals  [][]float64      // per-member value columns (Values)
}

// NewBatchScorer builds a batched scorer over f: the deployed agent,
// the policy ensemble (all agents, when ≥ 2) and the value ensemble
// (when ≥ 2 networks). maxBatch caps the rows a single call may carry.
// Only activation buffers are allocated; the weights are f's.
func (f *Frozen) NewBatchScorer(maxBatch int) (*BatchScorer, error) {
	if maxBatch <= 0 {
		return nil, fmt.Errorf("rl: BatchScorer maxBatch %d", maxBatch)
	}
	b := &BatchScorer{
		obsDim:     f.ObsDim(),
		deployedWS: f.actors[0].NewBatchWorkspace(maxBatch),
	}
	if len(f.actors) >= 2 {
		b.memberWS = make([]*nn.BatchWorkspace, len(f.actors))
		b.dists = make([]*linalg.Matrix, len(f.actors))
		for i, p := range f.actors {
			b.memberWS[i] = p.NewBatchWorkspace(maxBatch)
		}
	}
	if len(f.values) >= 2 {
		b.valueWS = make([]*nn.BatchWorkspace, len(f.values))
		b.vals = make([][]float64, len(f.values))
		for i, p := range f.values {
			b.valueWS[i] = p.NewBatchWorkspace(maxBatch)
			b.vals[i] = make([]float64, maxBatch)
		}
	}
	return b, nil
}

// NewBatchScorer freezes one artifact set — the deployed agent
// (agents[0]), the policy ensemble, the value ensemble — and builds a
// scorer over it: the one-call form for a caller with a single scorer.
func NewBatchScorer(agents []*ActorCritic, valueNets []*nn.Network, maxBatch int) (*BatchScorer, error) {
	f, err := Freeze(agents, valueNets)
	if err != nil {
		return nil, err
	}
	return f.NewBatchScorer(maxBatch)
}

// NumMembers returns the policy-ensemble size (0 without an ensemble).
func (b *BatchScorer) NumMembers() int { return len(b.memberWS) }

// NumValueNets returns the value-ensemble size (0 without an ensemble).
func (b *BatchScorer) NumValueNets() int { return len(b.valueWS) }

// ObsDim returns the observation length every row must have.
func (b *BatchScorer) ObsDim() int { return b.obsDim }

// Deployed runs the deployed agent's actor over obs: row r of the
// result is bit-identical to PolicyInference.Probs(obs.Row(r)). The
// matrix aliases scorer-owned memory, valid until the next Deployed
// call. Zero heap allocation.
//
//osap:hotpath
func (b *BatchScorer) Deployed(obs *linalg.Matrix) *linalg.Matrix {
	return b.deployedWS.Forward(obs)
}

// PolicyDists runs every policy-ensemble member over obs; element m is
// the member's [batch, actions] distribution matrix, row-identical to
// that member's PolicyInference, and element 0 is the deployed agent's
// (see the invariant on BatchScorer). The slice and matrices alias
// scorer-owned memory, valid until the next PolicyDists call. Zero
// heap allocation. Panics if the scorer has no policy ensemble.
//
//osap:hotpath
func (b *BatchScorer) PolicyDists(obs *linalg.Matrix) []*linalg.Matrix {
	if b.memberWS == nil {
		panic("rl: BatchScorer has no policy ensemble")
	}
	for m, ws := range b.memberWS {
		b.dists[m] = ws.Forward(obs)
	}
	return b.dists
}

// Values runs every value-ensemble member over obs; element m is the
// member's per-row value column, entry r bit-identical to
// ValueInference.Value(obs.Row(r)). The slices alias scorer-owned
// memory, valid until the next Values call. Zero heap allocation.
// Panics if the scorer has no value ensemble.
//
//osap:hotpath
func (b *BatchScorer) Values(obs *linalg.Matrix) [][]float64 {
	if b.valueWS == nil {
		panic("rl: BatchScorer has no value ensemble")
	}
	vals := b.vals[:len(b.valueWS)]
	for m, ws := range b.valueWS {
		out := ws.Forward(obs)
		col := b.vals[m][:obs.Rows]
		for r := 0; r < obs.Rows; r++ {
			col[r] = out.At(r, 0)
		}
		vals[m] = col
	}
	return vals
}

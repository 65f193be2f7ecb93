package core

import (
	"fmt"
	"math"

	"osap/internal/mdp"
	"osap/internal/stats"
)

// EnsembleConfig parameterizes the trimmed-ensemble disagreement used by
// both U_π and U_V (§3.1): from an ensemble of Size members, the Discard
// members furthest from the ensemble mean are dropped, and disagreement
// is computed over the survivors.
type EnsembleConfig struct {
	// Discard is the number of most-deviant members dropped before the
	// disagreement is computed (the paper trains i=5 members and keeps
	// the 3 closest, i.e. Discard=2).
	Discard int
}

// DefaultEnsembleConfig matches the paper: keep 3 of 5.
func DefaultEnsembleConfig() EnsembleConfig { return EnsembleConfig{Discard: 2} }

// trimIndicesInto returns the indices of members kept after discarding
// the `discard` members with the largest distance, written into a
// caller-owned index buffer (sliced from idx[:0]; it must have capacity
// len(dists)), so per-chunk signal evaluation stays off the heap.
// Stable insertion sorts replace sort.SliceStable + sort.Ints —
// identical results, and ensembles are tiny (n=5) so O(n²) is
// irrelevant.
//
//osap:hotpath
func trimIndicesInto(idx []int, dists []float64, discard int) []int {
	n := len(dists)
	keep := n - discard
	if keep < 1 {
		keep = 1
	}
	idx = idx[:0]
	for i := 0; i < n; i++ {
		idx = append(idx, i)
	}
	// Stable sort by distance: only strictly-smaller elements move left.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && dists[idx[j]] < dists[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	kept := idx[:keep]
	for i := 1; i < len(kept); i++ {
		for j := i; j > 0 && kept[j] < kept[j-1]; j-- {
			kept[j], kept[j-1] = kept[j-1], kept[j]
		}
	}
	return kept
}

// PolicySignal is U_π: disagreement among an ensemble of agents trained
// identically except for network initialization (§2.4). The uncertainty
// is the sum of KL divergences of the surviving members' action
// distributions from their average.
type PolicySignal struct {
	Members []mdp.Policy
	Cfg     EnsembleConfig

	// Scratch buffers reused across Observe calls so per-chunk signal
	// evaluation does not allocate. Observe therefore mutates the
	// signal: use one PolicySignal instance per goroutine.
	dists [][]float64
	kl    []float64
	mean  []float64
	idx   []int
	surv  [][]float64
}

// NewPolicySignal builds the U_π signal.
func NewPolicySignal(members []mdp.Policy, cfg EnsembleConfig) (*PolicySignal, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("core: PolicySignal needs ≥ 2 members, got %d", len(members))
	}
	if cfg.Discard < 0 || cfg.Discard >= len(members) {
		return nil, fmt.Errorf("core: discard %d out of range for %d members", cfg.Discard, len(members))
	}
	return &PolicySignal{Members: members, Cfg: cfg}, nil
}

// Observe implements Signal. Steady-state calls are allocation-free:
// member distributions, the ensemble mean, and the trim bookkeeping all
// live in scratch buffers owned by the signal.
//
//osap:hotpath
func (p *PolicySignal) Observe(obs []float64) float64 {
	n := len(p.Members)
	if cap(p.dists) < n {
		p.dists = make([][]float64, 0, n)
		p.kl = make([]float64, n)
		p.idx = make([]int, 0, n)
		p.surv = make([][]float64, 0, n)
	}
	dists := p.dists[:0]
	for _, m := range p.Members {
		dists = append(dists, m.Probs(obs)) //osap:hotpath-stop members are annotated rl.PolicyInference sessions, alloc-tested
	}
	if len(p.mean) != len(dists[0]) {
		p.mean = make([]float64, len(dists[0]))
	}
	mean := stats.MeanDistributionInto(p.mean, dists)

	// Distance of each member from the ensemble mean.
	kl := p.kl[:n]
	for i, d := range dists {
		kl[i] = stats.KLDivergence(d, mean)
	}
	kept := trimIndicesInto(p.idx, kl, p.Cfg.Discard)

	// Recompute the average over survivors and sum their KL distances
	// from it.
	surv := p.surv[:0]
	for _, idx := range kept {
		surv = append(surv, dists[idx])
	}
	mean = stats.MeanDistributionInto(p.mean, surv)
	var u float64
	for _, d := range surv {
		u += stats.KLDivergence(d, mean)
	}
	return u
}

// Reset implements Signal (U_π is stateless across steps).
func (p *PolicySignal) Reset() {}

// Name implements Signal.
func (p *PolicySignal) Name() string { return "A-ensemble" }

// ValueSignal is U_V: disagreement among an ensemble of value functions
// trained on the deployed agent's own interaction data, differing only
// in initialization (§2.4). The uncertainty is the total absolute
// distance of the surviving members' value estimates from their average.
type ValueSignal struct {
	Members []mdp.ValueFn
	Cfg     EnsembleConfig

	// Scratch buffers reused across Observe calls (one ValueSignal
	// instance per goroutine, as with PolicySignal).
	vals []float64
	dist []float64
	idx  []int
	surv []float64
}

// NewValueSignal builds the U_V signal.
func NewValueSignal(members []mdp.ValueFn, cfg EnsembleConfig) (*ValueSignal, error) {
	if len(members) < 2 {
		return nil, fmt.Errorf("core: ValueSignal needs ≥ 2 members, got %d", len(members))
	}
	if cfg.Discard < 0 || cfg.Discard >= len(members) {
		return nil, fmt.Errorf("core: discard %d out of range for %d members", cfg.Discard, len(members))
	}
	return &ValueSignal{Members: members, Cfg: cfg}, nil
}

// Observe implements Signal. Steady-state calls are allocation-free,
// mirroring PolicySignal.
//
//osap:hotpath
func (v *ValueSignal) Observe(obs []float64) float64 {
	n := len(v.Members)
	if cap(v.vals) < n {
		v.vals = make([]float64, n)
		v.dist = make([]float64, n)
		v.idx = make([]int, 0, n)
		v.surv = make([]float64, 0, n)
	}
	vals := v.vals[:n]
	for i, m := range v.Members {
		vals[i] = m.Value(obs) //osap:hotpath-stop members are annotated rl.ValueInference sessions, alloc-tested
	}
	mean := stats.Mean(vals)
	dist := v.dist[:n]
	for i, x := range vals {
		dist[i] = math.Abs(x - mean)
	}
	kept := trimIndicesInto(v.idx, dist, v.Cfg.Discard)

	surv := v.surv[:0]
	for _, idx := range kept {
		surv = append(surv, vals[idx])
	}
	mean = stats.Mean(surv)
	var u float64
	for _, x := range surv {
		u += math.Abs(x - mean)
	}
	return u
}

// Reset implements Signal (U_V is stateless across steps).
func (v *ValueSignal) Reset() {}

// Name implements Signal.
func (v *ValueSignal) Name() string { return "V-ensemble" }

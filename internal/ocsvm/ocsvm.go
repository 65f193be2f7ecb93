// Package ocsvm implements the one-class support vector machine of
// Schölkopf et al. ("Estimating the support of a high-dimensional
// distribution", Neural Computation 2001) with an RBF kernel — the
// novelty-detection method behind the paper's U_S uncertainty signal.
//
// The dual problem
//
//	min_α ½ αᵀQα   s.t.  0 ≤ α_i ≤ 1/(νn),  Σα_i = 1,   Q_ij = K(x_i, x_j)
//
// is solved by sequential minimal optimization (most-violating-pair
// working-set selection, as in LIBSVM). The offset ρ is recovered from
// the KKT conditions at the unbounded support vectors. The decision function is
// f(x) = Σ_i α_i K(x_i, x) − ρ, with f(x) ≥ 0 classifying x as
// in-distribution (+1) and f(x) < 0 as an outlier (−1).
//
// Training is a deterministic function of the data, config and seed
// (bit-identical for any worker count); cmd/osap-vet's nondeterminism
// analyzer enforces that.
//
//osap:deterministic
package ocsvm

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"osap/internal/stats"
)

// Config parameterizes training.
type Config struct {
	// Nu in (0,1] upper-bounds the fraction of training outliers and
	// lower-bounds the fraction of support vectors. The classic ND
	// calibration "set the threshold to achieve a prescribed true
	// positive rate (say, 95%)" (§2.5) corresponds to Nu ≈ 0.05.
	Nu float64
	// Gamma is the RBF kernel width: K(x,y) = exp(-Gamma·‖x−y‖²).
	// Gamma <= 0 selects 1/(d·Var(X)) automatically (the "scale"
	// heuristic).
	Gamma float64
	// MaxSamples caps the training-set size; larger inputs are
	// subsampled deterministically with Seed (0 = 1000).
	MaxSamples int
	// Seed drives subsampling.
	Seed uint64
}

// The solver's fixed settings: SMO runs up to smoIters·n pair updates
// and stops once the most-violating pair's gradient gap is below
// smoTol (the KKT-violation tolerance).
const (
	smoIters = 400
	smoTol   = 1e-7
)

// DefaultConfig returns the paper-style configuration (ν = 0.05).
func DefaultConfig() Config {
	return Config{Nu: 0.05}
}

// Model is a trained one-class SVM. It is immutable and safe for
// concurrent use.
type Model struct {
	// SVs are the retained support vectors.
	SVs [][]float64 `json:"svs"`
	// Alpha are the dual coefficients of the support vectors.
	Alpha []float64 `json:"alpha"`
	// Rho is the decision offset.
	Rho float64 `json:"rho"`
	// Gamma is the kernel width used at training time.
	Gamma float64 `json:"gamma"`
	// Dim is the feature dimension.
	Dim int `json:"dim"`

	// Cached ‖sv_i‖², letting Decision use the expansion
	// ‖x−sv‖² = ‖x‖² + ‖sv‖² − 2⟨x,sv⟩ with one pass over each SV.
	// Computed lazily (and exactly once) so models deserialized from
	// JSON work without an init hook; sync.Once keeps the lazy write
	// safe under concurrent Decision calls.
	normsOnce sync.Once
	svNorm2   []float64
}

// ensureNorms populates the ‖sv‖² cache.
func (m *Model) ensureNorms() {
	m.normsOnce.Do(func() {
		norms := make([]float64, len(m.SVs))
		for i, sv := range m.SVs {
			var s float64
			for _, v := range sv {
				s += v * v
			}
			norms[i] = s
		}
		m.svNorm2 = norms
	})
}

func rbf(gamma float64, a, b []float64) float64 {
	var d2 float64
	for i := range a {
		d := a[i] - b[i]
		d2 += d * d
	}
	return math.Exp(-gamma * d2)
}

// autoGamma computes the "scale" kernel width 1/(d·Var) where Var is the
// pooled per-coordinate variance of the data.
func autoGamma(data [][]float64) float64 {
	d := len(data[0])
	var w stats.Welford
	for _, x := range data {
		for _, v := range x {
			w.Add(v)
		}
	}
	v := w.Variance()
	if v < 1e-12 {
		v = 1e-12
	}
	return 1 / (float64(d) * v)
}

// Train fits a one-class SVM to the rows of data.
func Train(data [][]float64, cfg Config) (*Model, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("ocsvm: empty training set")
	}
	dim := len(data[0])
	if dim == 0 {
		return nil, fmt.Errorf("ocsvm: zero-dimensional samples")
	}
	for i, x := range data {
		if len(x) != dim {
			return nil, fmt.Errorf("ocsvm: sample %d has dim %d, want %d", i, len(x), dim)
		}
	}
	if !(cfg.Nu > 0 && cfg.Nu <= 1) {
		return nil, fmt.Errorf("ocsvm: nu %v outside (0,1]", cfg.Nu)
	}
	if cfg.MaxSamples <= 0 {
		cfg.MaxSamples = 1000
	}

	// Deterministic subsampling for large training sets: the kernel
	// matrix is O(n²).
	if len(data) > cfg.MaxSamples {
		rng := stats.NewRNG(cfg.Seed ^ 0x0C5)
		perm := rng.Perm(len(data))
		sub := make([][]float64, cfg.MaxSamples)
		for i := range sub {
			sub[i] = data[perm[i]]
		}
		data = sub
	}
	n := len(data)

	gamma := cfg.Gamma
	if gamma <= 0 {
		gamma = autoGamma(data)
	}

	// Kernel matrix. Rows of the lower triangle are computed by
	// GOMAXPROCS workers; interleaved assignment (worker w takes rows
	// w, w+W, …) balances the triangular row costs. Workers write
	// disjoint rows and every entry uses the same rbf() evaluation as
	// the sequential loop, so the matrix — and hence the model — is
	// bit-identical for any worker count.
	K := make([][]float64, n)
	for i := range K {
		K[i] = make([]float64, n)
	}
	workers := min(runtime.GOMAXPROCS(0), n)
	// Both cells of a symmetric pair are written by the worker that
	// owns row i (i ≥ j), so every matrix element has exactly one
	// writer and no post-pass mirror is needed.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				row := K[i]
				for j := 0; j <= i; j++ {
					v := rbf(gamma, data[i], data[j])
					row[j] = v
					K[j][i] = v
				}
			}
		}(w)
	}
	wg.Wait()

	// Upper bound per coefficient. Guarantee feasibility: n·C ≥ 1.
	C := 1 / (cfg.Nu * float64(n))
	if C*float64(n) < 1 {
		C = 1 / float64(n)
	}

	// LIBSVM-style feasible initialization: fill the first coefficients
	// to the box bound until the simplex constraint Σα = 1 is met.
	alpha := make([]float64, n)
	remaining := 1.0
	for i := 0; i < n && remaining > 0; i++ {
		a := math.Min(C, remaining)
		alpha[i] = a
		remaining -= a
	}

	// grad = K·α.
	grad := make([]float64, n)
	for i := 0; i < n; i++ {
		var s float64
		row := K[i]
		for j, a := range alpha {
			if a != 0 {
				s += row[j] * a
			}
		}
		grad[i] = s
	}

	// SMO: repeatedly move mass from the most-violating "low" index
	// (α > 0 with the largest gradient) to the most-violating "up"
	// index (α < C with the smallest gradient). This preserves both
	// constraints exactly and decreases ½αᵀKα monotonically.
	const boundTol = 1e-12
	for it := 0; it < smoIters*n; it++ {
		up, low := -1, -1
		for i := 0; i < n; i++ {
			if alpha[i] < C-boundTol && (up < 0 || grad[i] < grad[up]) {
				up = i
			}
			if alpha[i] > boundTol && (low < 0 || grad[i] > grad[low]) {
				low = i
			}
		}
		if up < 0 || low < 0 || grad[low]-grad[up] < smoTol {
			break
		}
		eta := K[up][up] + K[low][low] - 2*K[up][low]
		if eta < 1e-12 {
			eta = 1e-12
		}
		t := (grad[low] - grad[up]) / eta
		t = math.Min(t, math.Min(C-alpha[up], alpha[low]))
		if t <= 0 {
			break
		}
		alpha[up] += t
		alpha[low] -= t
		rowUp, rowLow := K[up], K[low]
		for i := 0; i < n; i++ {
			grad[i] += t * (rowUp[i] - rowLow[i])
		}
	}

	// Offset ρ from the KKT conditions: for unbounded SVs
	// (0 < α_i < C), f(x_i) = 0, i.e. ρ = Σ_j α_j K(x_j, x_i). Average
	// over them for robustness; fall back to all SVs if none are
	// strictly inside the box.
	const svTol = 1e-8
	var rho float64
	var nUnbounded int
	for i := 0; i < n; i++ {
		if alpha[i] > svTol && alpha[i] < C-svTol {
			var s float64
			for j, a := range alpha {
				if a > svTol {
					s += a * K[i][j]
				}
			}
			rho += s
			nUnbounded++
		}
	}
	if nUnbounded > 0 {
		rho /= float64(nUnbounded)
	} else {
		// All SVs at the bound (tiny n or extreme ν): use their mean
		// score.
		var cnt int
		for i := 0; i < n; i++ {
			if alpha[i] > svTol {
				var s float64
				for j, a := range alpha {
					s += a * K[i][j]
				}
				rho += s
				cnt++
			}
		}
		if cnt > 0 {
			rho /= float64(cnt)
		}
	}

	// Retain only support vectors.
	m := &Model{Gamma: gamma, Rho: rho, Dim: dim}
	for i, a := range alpha {
		if a > svTol {
			sv := append([]float64(nil), data[i]...)
			m.SVs = append(m.SVs, sv)
			m.Alpha = append(m.Alpha, a)
		}
	}
	if len(m.SVs) == 0 {
		return nil, fmt.Errorf("ocsvm: training produced no support vectors")
	}
	m.ensureNorms()
	return m, nil
}

// Decision returns f(x) = Σ α_i K(sv_i, x) − ρ; x is classified
// in-distribution when f(x) ≥ 0. It panics on a dimension mismatch.
//
// The RBF distance uses the cached-norm expansion
// ‖x−sv‖² = ‖x‖² + ‖sv‖² − 2⟨x,sv⟩ (clamped at 0 against rounding), so
// each SV costs one dot product and the call never allocates.
//
//osap:hotpath
func (m *Model) Decision(x []float64) float64 {
	if len(x) != m.Dim {
		panic(fmt.Sprintf("ocsvm: input dim %d, want %d", len(x), m.Dim))
	}
	m.ensureNorms() //osap:hotpath-stop norm cache builds exactly once per model (sync.Once); steady state is a flag check
	var xn float64
	for _, v := range x {
		xn += v * v
	}
	var s float64
	for i, sv := range m.SVs {
		var dot float64
		for k, v := range sv {
			dot += v * x[k]
		}
		d2 := xn + m.svNorm2[i] - 2*dot
		if d2 < 0 {
			d2 = 0
		}
		s += m.Alpha[i] * math.Exp(-m.Gamma*d2)
	}
	return s - m.Rho
}

// NumSVs returns the number of retained support vectors.
func (m *Model) NumSVs() int { return len(m.SVs) }

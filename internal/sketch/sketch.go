// Package sketch implements a mergeable t-digest-style quantile sketch
// for fleet-level drift observability (DESIGN.md §11): each serving
// shard maintains a small sketch of its guard scores, and the scrape
// path merges the shards into one fleet-wide quantile estimate without
// ever holding the raw stream.
//
// The structure is the merging t-digest of Dunning & Ertl: incoming
// observations buffer in a fixed-size staging array; when it fills,
// the buffer is sorted and merge-walked with the existing centroid
// list under the scale-function weight limit 4·n·q·(1−q)/δ, which
// keeps tail centroids small (accurate p99s) and mid-range centroids
// large (bounded memory). Everything is preallocated at construction:
// the Add hot path performs zero allocations, and compression reuses
// the same scratch arrays forever.
//
// Determinism: a sketch is a pure function of its observation sequence
// — no randomness, no wall clock — and merging is deterministic given
// the operand order. Callers that merge shards (internal/serve's
// scrape path) do so in ascending shard index, so two scrapes over the
// same history produce bit-identical quantiles. The package is listed
// in osap-vet's nondeterminism analyzer to keep it that way.
package sketch

import "math"

// DefaultCompression is the δ parameter used across the serving stack:
// ~1% worst-case rank error at the median, far tighter in the tails,
// with a few hundred centroids of memory.
const DefaultCompression = 100

// bufCap is the staging-buffer size: compression cost is amortized
// over this many Adds.
const bufCap = 256

// Sketch is a single-goroutine t-digest. Not safe for concurrent use;
// wrap it in the owner's lock (internal/serve shards do).
type Sketch struct {
	comp  float64
	total float64 // total merged weight, including the buffer
	n     uint64  // observations accepted
	drop  uint64  // non-finite observations rejected
	min   float64
	max   float64

	// Centroids, sorted ascending by mean; cm/cw[:nc] are live.
	cm, cw []float64
	nc     int

	// Staging buffer of (value, weight) pairs; bv/bw[:bn] are live.
	bv, bw []float64
	bn     int

	// Compression scratch, reused forever.
	sm, sw []float64
}

// New returns an empty sketch. compression < 10 selects
// DefaultCompression.
func New(compression float64) *Sketch {
	if compression < 10 {
		compression = DefaultCompression
	}
	centCap := 4*int(compression) + 32
	return &Sketch{
		comp: compression,
		min:  math.Inf(+1),
		max:  math.Inf(-1),
		cm:   make([]float64, centCap),
		cw:   make([]float64, centCap),
		bv:   make([]float64, bufCap),
		bw:   make([]float64, bufCap),
		sm:   make([]float64, centCap+bufCap),
		sw:   make([]float64, centCap+bufCap),
	}
}

// Count returns how many observations the sketch has accepted.
func (s *Sketch) Count() uint64 { return s.n }

// Dropped returns how many non-finite observations were rejected.
func (s *Sketch) Dropped() uint64 { return s.drop }

// Min returns the smallest accepted observation (+Inf when empty).
func (s *Sketch) Min() float64 { return s.min }

// Max returns the largest accepted observation (−Inf when empty).
func (s *Sketch) Max() float64 { return s.max }

// Add records one observation with weight 1.
//
//osap:hotpath
func (s *Sketch) Add(x float64) { s.AddWeighted(x, 1) }

// AddWeighted records one observation with the given positive weight
// (merge ingestion uses centroid weights). Non-finite values and
// non-positive weights are counted in Dropped and otherwise ignored —
// a poisoned score must never corrupt the digest.
//
//osap:hotpath
func (s *Sketch) AddWeighted(x, w float64) {
	if s.ingest(x, w) {
		s.n++
	}
}

// ingest stages one (value, weight) pair without touching the
// observation count — MergeInto reuses it so merged centroids don't
// inflate Count.
//
//osap:hotpath
func (s *Sketch) ingest(x, w float64) bool {
	if w <= 0 || math.IsNaN(x) || math.IsInf(x, 0) || math.IsNaN(w) || math.IsInf(w, 0) {
		s.drop++
		return false
	}
	if s.bn == len(s.bv) {
		s.compress()
	}
	s.bv[s.bn] = x
	s.bw[s.bn] = w
	s.bn++
	s.total += w
	if x < s.min {
		s.min = x
	}
	if x > s.max {
		s.max = x
	}
	return true
}

// compress folds the staging buffer into the centroid list: sort the
// buffer, merge-walk it with the (already sorted) centroids, and
// cluster greedily under the t-digest weight limit. Allocation-free by
// construction — everything lands in preallocated scratch.
//
//osap:hotpath
func (s *Sketch) compress() {
	if s.bn == 0 {
		return
	}
	sortPairs(s.bv[:s.bn], s.bw[:s.bn])
	i, j, k := 0, 0, 0
	var wSoFar, curM, curW float64
	have := false
	for i < s.nc || j < s.bn {
		var m, w float64
		if j >= s.bn || (i < s.nc && s.cm[i] <= s.bv[j]) {
			m, w = s.cm[i], s.cw[i]
			i++
		} else {
			m, w = s.bv[j], s.bw[j]
			j++
		}
		if !have {
			curM, curW, have = m, w, true
			continue
		}
		proposed := curW + w
		qmid := (wSoFar + proposed/2) / s.total
		// Merge while the combined centroid stays under the scale
		// limit; also merge unconditionally if the centroid list is
		// about to overflow (cannot happen at the configured caps, but
		// the digest must degrade rather than grow).
		if proposed <= 4*s.total*qmid*(1-qmid)/s.comp || k >= len(s.cm)-1 {
			curM += (m - curM) * (w / proposed)
			curW = proposed
		} else {
			s.sm[k], s.sw[k] = curM, curW
			k++
			wSoFar += curW
			curM, curW = m, w
		}
	}
	if have {
		s.sm[k], s.sw[k] = curM, curW
		k++
	}
	copy(s.cm[:k], s.sm[:k])
	copy(s.cw[:k], s.sw[:k])
	s.nc = k
	s.bn = 0
}

// Quantile estimates the q-th (0..1) quantile by interpolating between
// centroid centers, with the true min/max anchoring the extremes.
// Returns NaN on an empty sketch. Compresses pending observations
// first, so it mutates internal state (take the owner's lock).
func (s *Sketch) Quantile(q float64) float64 {
	s.compress()
	if s.nc == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return s.min
	}
	if q >= 1 {
		return s.max
	}
	target := q * s.total
	// Centroid i occupies cumulative weight (cum, cum+cw[i]]; its mean
	// sits at the interval's center.
	prevCenter := 0.0
	prevMean := s.min
	cum := 0.0
	for i := 0; i < s.nc; i++ {
		center := cum + s.cw[i]/2
		if target < center {
			if center == prevCenter {
				return s.cm[i]
			}
			frac := (target - prevCenter) / (center - prevCenter)
			return prevMean + (s.cm[i]-prevMean)*frac
		}
		prevCenter = center
		prevMean = s.cm[i]
		cum += s.cw[i]
	}
	// Past the last center: interpolate toward the true max.
	if s.total == prevCenter {
		return s.max
	}
	frac := (target - prevCenter) / (s.total - prevCenter)
	return prevMean + (s.max-prevMean)*frac
}

// MergeInto folds this sketch's contents into dst: centroids first (in
// ascending mean order), then the staging buffer (in insertion order).
// The receiver is not mutated, so a scrape can merge live shards under
// their locks without perturbing the stream. Deterministic given the
// call order — merge shards in ascending shard index.
func (s *Sketch) MergeInto(dst *Sketch) {
	for i := 0; i < s.nc; i++ {
		dst.ingest(s.cm[i], s.cw[i])
	}
	for j := 0; j < s.bn; j++ {
		dst.ingest(s.bv[j], s.bw[j])
	}
	dst.n += s.n
	dst.drop += s.drop
}

// sortPairs heap-sorts v ascending, swapping w in lockstep. Heapsort:
// in-place, allocation-free, and deterministic for a given input
// order.
//
//osap:hotpath
func sortPairs(v, w []float64) {
	n := len(v)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(v, w, i, n)
	}
	for i := n - 1; i > 0; i-- {
		v[0], v[i] = v[i], v[0]
		w[0], w[i] = w[i], w[0]
		siftDown(v, w, 0, i)
	}
}

//osap:hotpath
func siftDown(v, w []float64, root, n int) {
	for {
		child := 2*root + 1
		if child >= n {
			return
		}
		if r := child + 1; r < n && v[r] > v[child] {
			child = r
		}
		if v[child] <= v[root] {
			return
		}
		v[root], v[child] = v[child], v[root]
		w[root], w[child] = w[child], w[root]
		root = child
	}
}

package learn

import "sync"

// handoff carries admitted samples from the per-session step paths
// (many producers, each under its own session's lock) to the learner
// goroutine through two flat batches: Gate.Check appends to the
// filling one under mu, and take swaps the other in, so the learner
// reads the taken batch in place with no lock held. All storage is
// preallocated, so the producer side is allocation-free; when the
// filling batch is full the sample is dropped and counted rather than
// blocking a serving step.
type handoff struct {
	mu sync.Mutex
	//osap:guardedby mu
	fill *batch
	//osap:guardedby mu
	spare *batch
}

// batch holds up to len(sess) samples in flat parallel arrays: sample
// i's feature vector is feat[i*dim : (i+1)*dim], and pol[i] and val[i]
// are its U_π and U_V trigger statistics.
type batch struct {
	dim, n int
	feat   []float64
	sess   []uint64
	step   []uint64
	pol    []float64
	val    []float64
}

func newBatch(dim, size int) *batch {
	return &batch{
		dim:  dim,
		feat: make([]float64, size*dim),
		sess: make([]uint64, size),
		step: make([]uint64, size),
		pol:  make([]float64, size),
		val:  make([]float64, size),
	}
}

// offer copies one admitted sample into the filling batch; false means
// the batch was full and the sample dropped.
//
//osap:hotpath
func (h *handoff) offer(sessIdx, stepIdx uint64, feat []float64, pol, val float64) bool {
	h.mu.Lock()
	b := h.fill
	if b.n == len(b.sess) {
		h.mu.Unlock()
		return false
	}
	i := b.n
	copy(b.feat[i*b.dim:(i+1)*b.dim], feat)
	b.sess[i], b.step[i], b.pol[i], b.val[i] = sessIdx, stepIdx, pol, val
	b.n++
	h.mu.Unlock()
	return true
}

// take returns the filled batch and puts the emptied spare in its
// place. The caller owns the returned batch until its next take, so
// takes must be serialized (the learner's mu does that).
func (h *handoff) take() *batch {
	h.mu.Lock()
	defer h.mu.Unlock()
	full := h.fill
	h.spare.n = 0
	h.fill, h.spare = h.spare, full
	return full
}

package learn

import "sync"

// ring hands admitted samples from the per-session step paths (many
// producers, under each session's own lock) to the single learner
// goroutine. All storage is flat and preallocated so the producer side
// is allocation-free; when the ring is full the sample is dropped and
// counted rather than blocking a serving step.
type ring struct {
	mu   sync.Mutex
	dim  int
	mask int
	// Flat parallel arrays, cap(mask+1) slots; slot i's feature vector
	// lives at feat[i*dim : (i+1)*dim].
	//osap:guardedby mu
	feat []float64
	//osap:guardedby mu
	sess []uint64
	//osap:guardedby mu
	step []uint64
	//osap:guardedby mu
	pol []float64
	//osap:guardedby mu
	val []float64
	//osap:guardedby mu
	head int
	//osap:guardedby mu
	n int
}

// sample is the learner-side (cold) representation of one admitted
// step; Pol and Val are its U_π and U_V trigger statistics.
type sample struct {
	Session uint64
	Step    uint64
	Pol     float64
	Val     float64
	Feat    []float64
}

func newRing(dim, size int) *ring {
	cap := 1
	for cap < size {
		cap <<= 1
	}
	return &ring{
		dim:  dim,
		mask: cap - 1,
		feat: make([]float64, cap*dim),
		sess: make([]uint64, cap),
		step: make([]uint64, cap),
		pol:  make([]float64, cap),
		val:  make([]float64, cap),
	}
}

// offer copies one admitted sample into the ring; false means the ring
// was full and the sample dropped.
//
//osap:hotpath
func (r *ring) offer(sessIdx, stepIdx uint64, feat []float64, pol, val float64) bool {
	r.mu.Lock()
	if r.n > r.mask {
		r.mu.Unlock()
		return false
	}
	i := (r.head + r.n) & r.mask
	copy(r.feat[i*r.dim:(i+1)*r.dim], feat)
	r.sess[i] = sessIdx
	r.step[i] = stepIdx
	r.pol[i] = pol
	r.val[i] = val
	r.n++
	r.mu.Unlock()
	return true
}

// drainInto appends every buffered sample to dst (copying features out
// of the flat storage) and empties the ring. Cold path: only the
// learner goroutine calls it.
func (r *ring) drainInto(dst []sample) []sample {
	r.mu.Lock()
	defer r.mu.Unlock()
	for ; r.n > 0; r.n-- {
		i := r.head
		r.head = (r.head + 1) & r.mask
		dst = append(dst, sample{
			Session: r.sess[i],
			Step:    r.step[i],
			Pol:     r.pol[i],
			Val:     r.val[i],
			Feat:    append([]float64(nil), r.feat[i*r.dim:(i+1)*r.dim]...),
		})
	}
	return dst
}

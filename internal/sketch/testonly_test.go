package sketch

import "math"

// The methods below are called by no shipping code — a generation's
// sketches are merged and replaced, never emptied in place — and only
// this package's tests use them, so they live in a test file.

// Centroids returns the current number of centroids (buffered
// observations excluded; diagnostic).
func (s *Sketch) Centroids() int { return s.nc }

// Reset empties the sketch in place, keeping its buffers.
func (s *Sketch) Reset() {
	s.nc, s.bn = 0, 0
	s.total = 0
	s.n, s.drop = 0, 0
	s.min = math.Inf(+1)
	s.max = math.Inf(-1)
}

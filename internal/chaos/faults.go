package chaos

import (
	"sync/atomic"
	"time"
)

// RequestFaults returns the schedule's request-level faults, shaped for
// serve.Config.RequestFault: every RejectEvery-th arriving request, a
// binary-protocol frame or an HTTP request alike, is rejected, and
// every DelayEvery-th is stalled by Delay first (a slow upstream).
// Counting is by arrival order, so the injected totals are exact for a
// given request sequence even though the interleaving is not. The
// server answers a rejection with a retryable 503 or Error frame (never
// a drain). Returns nil when the schedule injects no request-level
// faults.
func (s *Schedule) RequestFaults() func() (reject bool, delay time.Duration) {
	var ctr atomic.Uint64
	c := s.cfg
	if c.RejectEvery == 0 && c.DelayEvery == 0 {
		return nil
	}
	return func() (bool, time.Duration) {
		n := ctr.Add(1)
		if c.RejectEvery > 0 && n%uint64(c.RejectEvery) == 0 {
			return true, 0
		}
		if c.DelayEvery > 0 && n%uint64(c.DelayEvery) == 0 {
			return false, c.Delay
		}
		return false, 0
	}
}

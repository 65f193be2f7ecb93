package chaos

import (
	"sync/atomic"
	"time"
)

// RequestFaults returns the schedule's request-level faults, shaped for
// serve.Config.RequestFault: every rejectEvery-th arriving request, a
// binary-protocol frame or an HTTP request alike, is rejected, and
// every delayEvery-th is stalled by requestDelay first (a slow
// upstream). Counting is by arrival order, so the injected totals are
// exact for a given request sequence even though the interleaving is
// not. The server answers a rejection with a retryable 503 or Error
// frame (never a drain). A RecoveryScript schedule injects no
// request-level faults: it returns nil.
func (s *Schedule) RequestFaults() func() (reject bool, delay time.Duration) {
	if s.cycle {
		return nil
	}
	var ctr atomic.Uint64
	return func() (bool, time.Duration) {
		n := ctr.Add(1)
		if n%rejectEvery == 0 {
			return true, 0
		}
		if n%delayEvery == 0 {
			return false, requestDelay
		}
		return false, 0
	}
}

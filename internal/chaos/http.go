package chaos

import (
	"net/http"
	"sync/atomic"
	"time"
)

// InjectedOverloadError is the error string carried by middleware-
// injected 503 bodies. It deliberately does not contain "draining":
// loadgen clients distinguish injected overload (retry with backoff)
// from a real drain (stop) by the body text, exactly as an operator
// would.
const InjectedOverloadError = "chaos: injected overload"

// RequestFaults returns the server-side twin of Middleware, shaped for
// serve.Config.RequestFault: the same RejectEvery/DelayEvery schedule
// applied per arriving request, a binary-protocol frame or an HTTP
// request alike. A rejection is answered by the server with a
// retryable 503 or Error frame (never a drain); a delay stalls the
// request before it is served. Returns nil when the schedule injects
// no request-level faults.
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

// Middleware wraps an http.Handler with the schedule's request-level
// faults (a serve.Server wrapped in it leaves its connections to
// net/http; RequestFaults injects the same faults from inside): every RejectEvery-th arriving request is rejected with an
// injected 503 + Retry-After before it reaches the application, and
// every DelayEvery-th is stalled by Delay first (a slow upstream).
// Counting is by arrival order, so the injected totals are exact for a
// given request sequence even though the interleaving is not.
func (s *Schedule) Middleware(next http.Handler) http.Handler {
	var ctr atomic.Uint64
	c := s.cfg
	if c.RejectEvery == 0 && c.DelayEvery == 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := ctr.Add(1)
		if c.RejectEvery > 0 && n%uint64(c.RejectEvery) == 0 {
			w.Header().Set("Retry-After", "1")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(`{"error":"` + InjectedOverloadError + `"}`)) //nolint:errcheck // client went away
			return
		}
		if c.DelayEvery > 0 && n%uint64(c.DelayEvery) == 0 {
			time.Sleep(c.Delay)
		}
		next.ServeHTTP(w, r)
	})
}

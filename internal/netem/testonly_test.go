package netem

import "context"

// The methods below are called by no shipping code; only this package's
// unit tests use them, so they live in a test file and the package's
// non-test code keeps no function without a caller.

// AdvanceTo moves the virtual clock forward (no-op if t is in the past).
func (e *Emulator) AdvanceTo(t float64) {
	if t > e.now {
		e.now = t
	}
}

// Shutdown stops the server gracefully: the listener closes right
// away, in-flight chunk transfers are allowed to finish, and the call
// returns once every connection is idle. If ctx expires first the
// remaining connections are closed forcibly and ctx's error is
// returned.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.srv.Shutdown(ctx)
	if err != nil {
		s.srv.Close() //nolint:errcheck // best-effort teardown after ctx expiry
	}
	return err
}

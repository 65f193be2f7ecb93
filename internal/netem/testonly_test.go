package netem

// The method below is called by no shipping code; only this package's
// unit tests use it, so it lives in a test file and the package's
// non-test code keeps no function without a caller.

// AdvanceTo moves the virtual clock forward (no-op if t is in the past).
func (e *Emulator) AdvanceTo(t float64) {
	if t > e.now {
		e.now = t
	}
}

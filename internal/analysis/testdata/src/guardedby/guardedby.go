// Package guardedby seeds the lock-discipline analyzer: clean locked
// regions (paired and deferred, read and write locks), an unlocked
// access (finding), the *Locked method convention, a suppressed
// constructor write, a directive naming a non-lock sibling (finding),
// a bare directive (malformed), and a lock borrowed through a
// *sync.Mutex sibling (clean held, finding unheld).
package guardedby

import "sync"

type store struct {
	mu sync.RWMutex
	//osap:guardedby mu
	m map[string]int

	gen int
	//osap:guardedby gen
	bad int // gen is not a lock: the directive itself is a finding

	//osap:guardedby
	worse int // malformed: no mutex named
}

// newStore initializes the map before the store is shared.
func newStore() *store {
	s := &store{}
	//osap:ignore guardedby construction: the store is not shared yet
	s.m = map[string]int{}
	return s
}

// get holds the read lock across the access: clean.
func get(s *store, k string) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[k]
}

// put pairs Lock with Unlock lexically: clean, including the
// early-exit unlock in the nested branch.
func put(s *store, k string, v int) bool {
	s.mu.Lock()
	if _, dup := s.m[k]; dup {
		s.mu.Unlock()
		return false
	}
	s.m[k] = v
	s.mu.Unlock()
	return true
}

// leak reads without the lock: finding.
func leak(s *store, k string) int {
	return s.m[k]
}

// sizeLocked relies on the caller holding mu — the *Locked naming
// convention whitelists it.
func (s *store) sizeLocked() int { return len(s.m) }

// borrower's lock is another value's: mu points at it, as a session's
// points at its shard's.
type borrower struct {
	mu *sync.Mutex
	//osap:guardedby mu
	n int
}

// bump holds the pointed-to lock through the field: clean.
func bump(b *borrower) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

// peek reads without it: finding.
func peek(b *borrower) int {
	return b.n
}

package serve

import (
	"errors"
	"sync"
	"time"
)

// ErrTableFull is returned by Table.Put when admission control rejects
// a new session (the server maps it to 429 + Retry-After).
var ErrTableFull = errors.New("serve: session table full")

// Table is the session registry: one map under one RWMutex. A binary
// step never looks here: it finds its session in its connection's
// channel map.
type Table struct {
	mu  sync.RWMutex
	m   map[string]*Session //osap:guardedby mu
	max int
}

// NewTable builds a table capped at maxSessions (≤ 0: unlimited).
func NewTable(maxSessions int) *Table {
	return &Table{m: make(map[string]*Session), max: maxSessions}
}

// Len returns the number of live sessions.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.m)
}

// Put admits a session. The cap is the map's length, checked under the
// write lock, so two racing opens cannot both take the last place.
func (t *Table) Put(s *Session) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.max > 0 && len(t.m) >= t.max {
		return ErrTableFull
	}
	if _, dup := t.m[s.id]; dup {
		return errors.New("serve: duplicate session id")
	}
	t.m[s.id] = s
	return nil
}

// Get looks a session up by ID.
func (t *Table) Get(id string) (*Session, bool) {
	t.mu.RLock()
	s, ok := t.m[id]
	t.mu.RUnlock()
	return s, ok
}

// getBytes is Get for an id still in a read buffer: indexing the map
// with string(id) converts without allocating.
//
//osap:hotpath
func (t *Table) getBytes(id []byte) (*Session, bool) {
	t.mu.RLock()
	s, ok := t.m[string(id)]
	t.mu.RUnlock()
	return s, ok
}

// Delete removes and closes a session, returning it if it existed.
func (t *Table) Delete(id string) (*Session, bool) {
	t.mu.Lock()
	s, ok := t.m[id]
	delete(t.m, id)
	t.mu.Unlock()
	if ok {
		s.close()
	}
	return s, ok
}

// Sweep evicts sessions idle since before cutoff and returns how many
// it removed. Each is judged under its own lock (Session.closeIfIdle)
// with the table's released, so a lookup never waits behind a step;
// only a session the sweep closed is removed.
func (t *Table) Sweep(cutoff time.Time) int {
	evicted := 0
	t.each(func(s *Session) {
		if !s.closeIfIdle(cutoff) {
			return
		}
		t.mu.Lock()
		if t.m[s.id] == s {
			delete(t.m, s.id)
			evicted++
		}
		t.mu.Unlock()
	})
	return evicted
}

// Clear closes and removes every session, returning how many were
// live (used by drain). The sessions are closed outside the lock.
func (t *Table) Clear() int {
	t.mu.Lock()
	m := t.m
	t.m = make(map[string]*Session)
	t.mu.Unlock()
	for _, s := range m {
		s.close()
	}
	return len(m)
}

// each calls f on every session in the table. The sessions are
// collected under the read lock and visited after it is released, so f
// may take a session's lock.
func (t *Table) each(f func(*Session)) {
	t.mu.RLock()
	ss := make([]*Session, 0, len(t.m))
	for _, s := range t.m {
		ss = append(ss, s)
	}
	t.mu.RUnlock()
	for _, s := range ss {
		f(s)
	}
}

package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// ErrTableFull is returned by Table.Put when admission control rejects
// a new session (the server maps it to 429 + Retry-After).
var ErrTableFull = errors.New("serve: session table full")

// Table is a sharded session registry. Session IDs are FNV-1a hashed
// onto a power-of-two number of shards, each guarded by its own
// RWMutex, so lookups from thousands of concurrent step requests never
// contend on a global lock. The live count is a single atomic used for
// admission control.
type Table struct {
	shards []tableShard
	mask   uint64
	live   atomic.Int64
	max    int64
}

type tableShard struct {
	mu sync.RWMutex
	//osap:guardedby mu
	m map[string]*Session
	// Pad the shard to its own cache lines so neighboring shard locks
	// don't false-share under heavy step traffic.
	_ [64]byte
}

// NewTable builds a table with the given shard count (rounded up to a
// power of two, minimum 1) and live-session cap (≤ 0 means unlimited).
func NewTable(shards int, maxSessions int) *Table {
	n := 1
	for n < shards {
		n <<= 1
	}
	t := &Table{shards: make([]tableShard, n), mask: uint64(n - 1), max: int64(maxSessions)}
	for i := range t.shards {
		//osap:ignore guardedby construction: the table is not shared yet
		t.shards[i].m = make(map[string]*Session)
	}
	return t
}

// fnv1a hashes a session ID (inlined FNV-1a, no allocation).
//
//osap:hotpath
func fnv1a(s string) uint64 {
	var h uint64 = 0xcbf29ce484222325
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

func (t *Table) shard(id string) *tableShard {
	return &t.shards[fnv1a(id)&t.mask]
}

// Len returns the number of live sessions.
func (t *Table) Len() int { return int(t.live.Load()) }

// Shards returns the shard count (for /healthz and tests).
func (t *Table) Shards() int { return len(t.shards) }

// Put admits a session, enforcing the cap. The increment-then-check
// pattern keeps admission O(1): a loser that pushes the count past max
// rolls back and reports ErrTableFull.
func (t *Table) Put(s *Session) error {
	if n := t.live.Add(1); t.max > 0 && n > t.max {
		t.live.Add(-1)
		return ErrTableFull
	}
	sh := t.shard(s.id)
	sh.mu.Lock()
	if _, dup := sh.m[s.id]; dup {
		sh.mu.Unlock()
		t.live.Add(-1)
		return errors.New("serve: duplicate session id")
	}
	sh.m[s.id] = s
	sh.mu.Unlock()
	return nil
}

// Get looks a session up by ID.
func (t *Table) Get(id string) (*Session, bool) {
	sh := t.shard(id)
	sh.mu.RLock()
	s, ok := sh.m[id]
	sh.mu.RUnlock()
	return s, ok
}

// Delete removes and closes a session, returning it if it existed.
func (t *Table) Delete(id string) (*Session, bool) {
	sh := t.shard(id)
	sh.mu.Lock()
	s, ok := sh.m[id]
	if ok {
		delete(sh.m, id)
	}
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	s.close()
	t.live.Add(-1)
	return s, true
}

// Sweep evicts sessions idle since before cutoff and returns how many
// it removed. Candidates are collected under each shard's read lock
// first, then removed one by one, so a sweep never blocks a whole
// shard while closing sessions.
func (t *Table) Sweep(cutoff time.Time) int {
	evicted := 0
	var stale []string
	for i := range t.shards {
		sh := &t.shards[i]
		stale = stale[:0]
		sh.mu.RLock()
		for id, s := range sh.m {
			if s.idleSince().Before(cutoff) {
				stale = append(stale, id)
			}
		}
		sh.mu.RUnlock()
		for _, id := range stale {
			sh.mu.Lock()
			s, ok := sh.m[id]
			// Re-check idleness under the write lock: the session may
			// have been touched between collection and removal.
			if ok && s.idleSince().Before(cutoff) {
				delete(sh.m, id)
			} else {
				ok = false
			}
			sh.mu.Unlock()
			if ok {
				s.close()
				t.live.Add(-1)
				evicted++
			}
		}
	}
	return evicted
}

// Clear closes and removes every session, returning how many were
// live (used by drain).
func (t *Table) Clear() int {
	n := 0
	var ss []*Session
	for i := range t.shards {
		sh := &t.shards[i]
		ss = ss[:0]
		sh.mu.Lock()
		for id, s := range sh.m {
			delete(sh.m, id)
			ss = append(ss, s)
		}
		sh.mu.Unlock()
		// Close outside the shard lock, matching Delete/Sweep.
		for _, s := range ss {
			s.close()
			n++
		}
	}
	t.live.Add(int64(-n))
	return n
}

// each calls f on every session in the table. The sessions are
// collected under each shard's read lock and visited after it is
// released, as Sweep and Clear do, so f may take a session's lock.
func (t *Table) each(f func(*Session)) {
	var ss []*Session
	for i := range t.shards {
		sh := &t.shards[i]
		ss = ss[:0]
		sh.mu.RLock()
		for _, s := range sh.m {
			ss = append(ss, s)
		}
		sh.mu.RUnlock()
		for _, s := range ss {
			f(s)
		}
	}
}

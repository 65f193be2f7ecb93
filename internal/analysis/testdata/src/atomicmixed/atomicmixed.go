// Package atomicmixed seeds the mixed-access hazard of the
// function-style sync/atomic API: a field updated atomically in one
// place and read and written plainly in others. atomic-typed refuses
// the atomic calls (one finding, one suppressed) and atomic.Value; a
// typed atomic, whose value no plain access can reach, is clean.
package atomicmixed

import "sync/atomic"

type counter struct {
	hits  int64        // accessed via sync/atomic: refused
	plain int64        // never touched atomically: plain access is fine
	typed atomic.Int64 // the typed API: clean
	last  atomic.Value // refused: use atomic.Pointer[T]
}

// bump is the atomic writer of hits.
func bump(c *counter) {
	atomic.AddInt64(&c.hits, 1)
	c.plain++
	c.typed.Add(1)
}

// peek races with bump: a plain read of an atomically-written field.
func peek(c *counter) int64 {
	return c.hits
}

// stomp races with bump: a plain write.
func stomp(c *counter) {
	c.hits = 0
}

// reset demonstrates //osap:ignore on a function-style call.
func reset(c *counter) {
	//osap:ignore atomic-typed fixture demonstrates suppression
	atomic.StoreInt64(&c.hits, 0)
	c.plain = 0
}

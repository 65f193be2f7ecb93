// Package atomicalign seeds the 32-bit alignment hazard of the
// function-style sync/atomic API. atomic-typed refuses every such call,
// whatever the layout; only the typed wrappers are clean.
package atomicalign

import "sync/atomic"

// misaligned puts a bool ahead of 64-bit fields updated atomically:
// under 32-bit layout n lands at offset 4 and m at offset 12.
type misaligned struct {
	ready bool
	n     uint64
	m     int64
}

func use(x *misaligned) {
	atomic.AddUint64(&x.n, 1)
	_ = atomic.LoadInt64(&x.m)
	x.ready = true
}

// aligned keeps the atomic field first: safe on 32-bit, refused all
// the same.
type aligned struct {
	n     int64
	ready bool
}

func useAligned(a *aligned) {
	atomic.AddInt64(&a.n, 1)
	a.ready = true
}

// passive has a misaligned int64 that is never touched atomically:
// clean.
type passive struct {
	ready bool
	n     int64
}

func usePassive(p *passive) { p.n++ }

// suppressed demonstrates //osap:ignore on a known-bad layout.
type suppressed struct {
	pad bool
	cnt int64
}

//osap:ignore atomic-typed fixture demonstrates suppression
func bump(s *suppressed) { atomic.AddInt64(&s.cnt, 1) }

// typed puts a typed atomic behind a bool: the wrapper carries its own
// alignment, so it is clean.
type typed struct {
	ready bool
	n     atomic.Int64
}

func useTyped(t *typed) int64 { return t.n.Add(1) }

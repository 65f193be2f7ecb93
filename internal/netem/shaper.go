package netem

import (
	"net"
	"time"

	"osap/internal/trace"
)

// ThrottledConn wraps a net.Conn and shapes its Write path to a
// throughput trace in wall-clock time: by elapsed time t, at most
// ∫₀ᵗ capacity dt bytes have been written (the trace wraps around). Reads
// pass through unshaped, so wrapping the server side of a connection
// emulates an asymmetric bottleneck on the download direction, like a
// MahiMahi link shell.
type ThrottledConn struct {
	net.Conn
	tr    *trace.Trace
	start time.Time
	sent  int64
	// quantum bounds the burst size between pacing checks.
	quantum int
	// Burst caps how much unused link budget may accumulate while the
	// sender idles. As in MahiMahi, delivery capacity that goes unused
	// is (mostly) forfeited rather than banked. Set before the first
	// write.
	Burst int64
	// sleep and now are indirected for tests.
	sleep func(time.Duration)
	now   func() time.Time
	// cumulative budget cursor for timeForBytes.
	curSec   int
	curBytes float64 // bytes allowed through the end of curSec
	// independent cursor for budgetAt.
	budSec   int
	budBytes float64
}

// Throttle wraps conn so its writes are paced to tr. The clock starts at
// the first write.
func Throttle(conn net.Conn, tr *trace.Trace) *ThrottledConn {
	return &ThrottledConn{
		Conn:    conn,
		tr:      tr,
		quantum: 16 * 1024,
		Burst:   16 * 1024,
		sleep:   time.Sleep,
		now:     time.Now,
	}
}

// bytesPerSec converts the capacity of second sec (wrapping) to bytes.
func (c *ThrottledConn) bytesPerSec(sec int) float64 {
	return c.tr.Mbps[sec%len(c.tr.Mbps)] * 1e6 / 8
}

// timeForBytes returns the earliest elapsed time at which `total` bytes
// are within budget.
func (c *ThrottledConn) timeForBytes(total int64) time.Duration {
	t := float64(total)
	for {
		secBytes := c.bytesPerSec(c.curSec)
		if c.curBytes+secBytes >= t {
			within := 1.0
			if secBytes > 0 {
				within = (t - c.curBytes) / secBytes
				if within < 0 {
					within = 0
				}
			}
			return time.Duration((float64(c.curSec) + within) * float64(time.Second))
		}
		c.curBytes += secBytes
		c.curSec++
	}
}

// budgetAt returns the cumulative bytes deliverable by elapsed time d.
func (c *ThrottledConn) budgetAt(d time.Duration) int64 {
	t := d.Seconds()
	for float64(c.budSec)+1 <= t {
		c.budBytes += c.bytesPerSec(c.budSec)
		c.budSec++
	}
	frac := t - float64(c.budSec)
	return int64(c.budBytes + frac*c.bytesPerSec(c.budSec))
}

// Write implements net.Conn with pacing.
func (c *ThrottledConn) Write(p []byte) (int, error) {
	if c.start.IsZero() {
		c.start = c.now()
	}
	// Forfeit link budget that went unused while the sender idled,
	// beyond a small burst allowance.
	if allowed := c.budgetAt(c.now().Sub(c.start)); c.sent < allowed-c.Burst {
		c.sent = allowed - c.Burst
	}
	written := 0
	for written < len(p) {
		n := len(p) - written
		if n > c.quantum {
			n = c.quantum
		}
		target := c.timeForBytes(c.sent + int64(n))
		if elapsed := c.now().Sub(c.start); target > elapsed {
			c.sleep(target - elapsed)
		}
		m, err := c.Conn.Write(p[written : written+n])
		c.sent += int64(m)
		written += m
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// ThrottledListener wraps a net.Listener so every accepted connection is
// write-shaped to the trace (each connection gets its own pacing clock).
type ThrottledListener struct {
	net.Listener
	Trace *trace.Trace
	// Burst overrides the per-connection burst allowance when positive.
	Burst int64
}

// Accept implements net.Listener.
func (l *ThrottledListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	tc := Throttle(conn, l.Trace)
	if l.Burst > 0 {
		tc.Burst = l.Burst
	}
	return tc, nil
}

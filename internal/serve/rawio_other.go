//go:build !linux

package serve

import (
	"io"
	"net"
)

// newRawIO returns nc: raw socket calls are Linux-only (rawio_linux.go),
// and elsewhere a binary connection reads and writes through net.Conn.
func newRawIO(nc net.Conn) io.ReadWriter { return nc }

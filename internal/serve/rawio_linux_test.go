//go:build linux

package serve

import (
	"bytes"
	"context"
	"io"
	"net"
	"testing"
	"time"

	"osap/internal/serve/proto"
)

// rawTCPBinary serves the accepted side of a loopback TCP connection
// with serveConn, after tune has seen it, and returns a client on the
// other side together with the server's conn and a channel closed when
// serveConn returns.
func rawTCPBinary(t *testing.T, s *Server, tune func(*net.TCPConn)) (*binClient, net.Conn, <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cli, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := newRawIO(srv).(*rawIO); !ok {
		t.Fatal("a loopback TCP conn did not get raw socket I/O")
	}
	tune(srv.(*net.TCPConn))
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.serveConn(srv)
	}()
	t.Cleanup(func() {
		cli.Close() //nolint:errcheck
		<-done
	})
	return handshake(t, cli), srv, done
}

// TestRawIOFallback: a conn without a socket descriptor is read and
// written through net.Conn.
func TestRawIOFallback(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if rw := newRawIO(a); rw != io.ReadWriter(a) {
		t.Fatalf("newRawIO(net.Pipe) = %T, want the conn itself", rw)
	}
}

// TestBinaryRawWriteWaits pipelines more steps than the socket buffers
// hold before reading any reply: the server's raw writes meet EAGAIN,
// its reader parks in the netpoller until the client reads, and every
// Decision still arrives, in order.
func TestBinaryRawWriteWaits(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	c, _, _ := rawTCPBinary(t, s, func(tc *net.TCPConn) {
		if err := tc.SetWriteBuffer(4096); err != nil {
			t.Fatal(err)
		}
	})
	if err := c.nc.(*net.TCPConn).SetReadBuffer(4096); err != nil {
		t.Fatal(err)
	}
	c.open(0, SchemeND)
	const steps = 4000
	obs := obsStream(3, s.factory.ObsDim(), 1)[0]
	var frames bytes.Buffer
	enc := proto.NewConn(&frames)
	for i := 0; i < steps; i++ {
		if err := enc.WriteStep(0, uint32(i), obs); err != nil {
			t.Fatal(err)
		}
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := c.nc.Write(frames.Bytes())
		wrote <- err
	}()

	// Wait until the server stops deciding: its replies fill both
	// socket buffers and its writer waits.
	last, still := uint64(0), 0
	for still < 5 {
		time.Sleep(20 * time.Millisecond)
		if n := s.metrics.Decisions.Load(); n == last && n > 0 {
			still++
		} else {
			last, still = n, 0
		}
	}
	if last >= steps {
		t.Fatalf("the server answered all %d steps without waiting: the buffers held them", steps)
	}
	for i := uint32(0); i < steps; i++ {
		d, ok := c.readDecision()
		if !ok {
			t.FailNow()
		}
		if d.Seq != i || d.Step != i {
			t.Fatalf("reply %d: seq %d step %d, want %d", i, d.Seq, d.Step, i)
		}
	}
	if err := <-wrote; err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of %d steps decided before the client read a reply", last, steps)
}

// TestBinaryCloseEndsRawRead: closing the server's conn from another
// goroutine ends a reader parked in the raw read, as it ends a net.Conn
// read.
func TestBinaryCloseEndsRawRead(t *testing.T) {
	s := batchTestServer(t)
	defer s.Drain(context.Background(), io.Discard) //nolint:errcheck
	c, srv, done := rawTCPBinary(t, s, func(*net.TCPConn) {})
	c.open(0, SchemeND)
	if _, err := c.step(0, 1, obsStream(4, s.factory.ObsDim(), 1)[0]); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the reader is parked: the client sends nothing more
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("closing the conn did not end the parked raw read")
	}
}

package loadgen

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"syscall"
	"testing"

	"osap/internal/serve/proto"
)

// rawFrame reads exactly one frame off nc and nothing beyond it, so the
// fake server below decides to the byte what it leaves unread.
func rawFrame(nc net.Conn) (proto.Type, []byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(nc, hdr[:]); err != nil {
		return 0, nil, err
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(nc, body); err != nil {
		return 0, nil, err
	}
	return proto.Type(body[0]), body[1:], nil
}

// resetMux dials a fake server with a real mux and walks both through
// the handshake, one Open and two Steps on channels 0 and 1. The server
// writes both Decisions and then closes with all but one byte of a third
// Step unread, which the kernel turns into a reset. The mux's writer
// runs; its reader does not, so that the test decides which of the two
// meets the reset first. The returned channel reports the server's exit.
func resetMux(t *testing.T) (*binMux, <-chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	srvErr := make(chan error, 1)
	go func() {
		srvErr <- func() error {
			nc, err := ln.Accept()
			if err != nil {
				return err
			}
			defer nc.Close()
			pc := proto.NewConn(nc)
			if _, _, err := rawFrame(nc); err != nil { // Hello
				return err
			}
			if err := pc.WriteWelcome(proto.Welcome{Version: proto.Version, ObsDim: 1, NumActions: 2}); err != nil {
				return err
			}
			_, payload, err := rawFrame(nc) // Open
			if err != nil {
				return err
			}
			cid, _, err := proto.DecodeOpen(payload)
			if err != nil {
				return err
			}
			if err := pc.WriteOpened(cid, "fake-1"); err != nil {
				return err
			}
			for i := 0; i < 2; i++ { // the two Steps
				if _, _, err := rawFrame(nc); err != nil {
					return err
				}
			}
			for cid := uint32(0); cid < 2; cid++ {
				if err := pc.WriteDecision(proto.Decision{Cid: cid, Seq: 1}); err != nil {
					return err
				}
			}
			_, err = io.ReadFull(nc, make([]byte, 1)) // the third Step has arrived; leave it there
			return err
		}()
	}()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	m := newBinMux(&Config{}, 2)
	m.nc, m.pc = nc, proto.NewConn(nc)
	t.Cleanup(m.close)
	if err := m.pc.WriteHello(); err != nil {
		t.Fatal(err)
	}
	expectFrame(t, m, proto.TypeWelcome)
	m.pc.ManualFlush()
	go m.writer()
	m.send(muxReq{typ: proto.TypeOpen, cid: 0, scheme: "ND"})
	expectFrame(t, m, proto.TypeOpened)
	m.send(muxReq{typ: proto.TypeStep, cid: 0, seq: 1, obs: resetObs})
	m.send(muxReq{typ: proto.TypeStep, cid: 1, seq: 1, obs: resetObs})
	return m, srvErr
}

var resetObs = []float64{1}

func expectFrame(t *testing.T, m *binMux, want proto.Type) {
	t.Helper()
	if typ, _, err := m.pc.ReadFrame(); err != nil || typ != want {
		t.Fatalf("frame type %d, err %v; want type %d", typ, err, want)
	}
}

// TestWriteAfterResetIsADrain: a draining server closes a connection
// while client frames sit unread in its socket, and the kernel turns
// that close into a reset. The reset is reported once, as ECONNRESET,
// to whichever of the mux's two goroutines touches the socket first;
// the other gets EPIPE (writer) or EOF (reader). Whichever order they
// meet it in, the steps in flight are drained, not dropped, and every
// Decision the server sent before it closed is delivered.
func TestWriteAfterResetIsADrain(t *testing.T) {
	// readToEnd runs the mux reader, once the writer has failed, to the
	// end of the stream; stepOnDead then books one more step.
	readToEnd := func(t *testing.T, m *binMux) {
		t.Helper()
		<-m.writeDone
		m.reader()
		if !isDrainSignal(0, m.deadErr) {
			t.Fatalf("the mux died of %v, which is not a drain signal", m.deadErr)
		}
	}
	stepOnDead := func(t *testing.T, m *binMux) {
		t.Helper()
		c := &client{cfg: m.cfg, mux: m, seq: 2, obs: resetObs}
		if c.stepBinary(context.Background()) {
			t.Fatal("step succeeded on a reset connection")
		}
		if c.dropped != 0 || c.drained != 1 {
			t.Fatalf("write side failed with %v: booked %d dropped, %d drained; want 0 and 1", m.deadErr, c.dropped, c.drained)
		}
	}

	// The read side takes the ECONNRESET, so the writer is the one left
	// holding EPIPE — the order that used to book every step in flight
	// on the connection as dropped.
	t.Run("reader first", func(t *testing.T) {
		m, srvErr := resetMux(t)
		expectFrame(t, m, proto.TypeDecision)
		expectFrame(t, m, proto.TypeDecision)
		m.send(muxReq{typ: proto.TypeStep, cid: 0, seq: 2, obs: resetObs})
		if err := <-srvErr; err != nil {
			t.Fatalf("fake server: %v", err)
		}
		if _, _, err := m.pc.ReadFrame(); err == nil {
			t.Fatal("read a frame from a connection the server had reset")
		} else if !isDrainSignal(0, err) {
			t.Fatalf("read side: %v is not a drain signal", err)
		}
		m.send(muxReq{typ: proto.TypeStep, cid: 0, seq: 3, obs: resetObs})
		readToEnd(t, m)
		if !errors.Is(m.deadErr, syscall.EPIPE) {
			t.Errorf("the writer failed with %v, want EPIPE", m.deadErr)
		}
		stepOnDead(t, m)
	})

	// The writer meets the reset while both Decisions are still unread
	// in the socket. It must not take the socket from under the reader:
	// the reader delivers both and only then finds the stream ended.
	t.Run("writer first", func(t *testing.T) {
		m, srvErr := resetMux(t)
		m.send(muxReq{typ: proto.TypeStep, cid: 0, seq: 2, obs: resetObs})
		if err := <-srvErr; err != nil {
			t.Fatalf("fake server: %v", err)
		}
		// Keep the writer writing until a write finds the reset.
		for failed := false; !failed; {
			select {
			case m.out <- muxReq{typ: proto.TypeStep, cid: 0, seq: 3, obs: resetObs}:
			case <-m.writeDone:
				failed = true
			}
		}
		readToEnd(t, m)
		for slot := uint32(0); slot < 2; slot++ {
			rep, ok := m.recv(slot)
			if !ok || rep.typ != proto.TypeDecision || rep.dec.Seq != 1 {
				t.Errorf("slot %d: reply %+v, delivered %v; the server had flushed its Decision before it closed", slot, rep, ok)
			}
		}
		stepOnDead(t, m)
	})
}

package loadgen

import (
	"context"
	"encoding/binary"
	"io"
	"net"
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

// TestWriteAfterResetIsADrain: a draining server closes a connection
// while client frames sit unread in its socket, and the kernel turns
// that close into a reset. The reset is reported once, as ECONNRESET,
// to whichever of the mux's two goroutines touches the socket first;
// the other gets EPIPE (writer) or EOF (reader). Here the read side
// takes the ECONNRESET, so the writer is the one left holding EPIPE —
// the order that used to book every step in flight on the connection
// as dropped.
func TestWriteAfterResetIsADrain(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	// The fake server: handshake, open, answer one step, then close with
	// all but one byte of the next step unread.
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
			if _, _, err := rawFrame(nc); err != nil { // Step 1
				return err
			}
			if err := pc.WriteDecision(proto.Decision{Cid: cid, Seq: 1}); err != nil {
				return err
			}
			_, err = io.ReadFull(nc, make([]byte, 1)) // Step 2 has arrived; leave it there
			return err
		}()
	}()

	// The client: a real mux writer over a real socket, with this
	// goroutine standing in for the mux reader so that the order in which
	// the two sides meet the reset is fixed.
	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	cfg := &Config{}
	m := newBinMux(cfg, 1)
	m.nc, m.pc = nc, proto.NewConn(nc)
	defer m.close()
	if err := m.pc.WriteHello(); err != nil {
		t.Fatal(err)
	}
	expect := func(want proto.Type) {
		t.Helper()
		if typ, _, err := m.pc.ReadFrame(); err != nil || typ != want {
			t.Fatalf("frame type %d, err %v; want type %d", typ, err, want)
		}
	}
	expect(proto.TypeWelcome)
	m.pc.ManualFlush()
	go m.writer()

	obs := []float64{1}
	m.send(muxReq{typ: proto.TypeOpen, cid: 0, scheme: "ND"})
	expect(proto.TypeOpened)
	m.send(muxReq{typ: proto.TypeStep, cid: 0, seq: 1, obs: obs})
	expect(proto.TypeDecision)
	m.send(muxReq{typ: proto.TypeStep, cid: 0, seq: 2, obs: obs})
	if err := <-srvErr; err != nil {
		t.Fatalf("fake server: %v", err)
	}
	if _, _, err := m.pc.ReadFrame(); err == nil {
		t.Fatal("read a frame from a connection the server had reset")
	} else if !isDrainSignal(0, err) {
		t.Fatalf("read side: %v is not a drain signal", err)
	}

	// The step that finds out through the writer.
	c := &client{cfg: cfg, mux: m, seq: 2, obs: obs}
	if c.stepBinary(context.Background()) {
		t.Fatal("step succeeded on a reset connection")
	}
	if c.dropped != 0 || c.drained != 1 {
		t.Fatalf("write side failed with %v: booked %d dropped, %d drained; want 0 and 1", m.deadErr, c.dropped, c.drained)
	}
}

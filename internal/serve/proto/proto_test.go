package proto

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"testing"
)

// pipeConn builds a Conn whose writes land in buf and whose reads
// consume from buf — enough to exercise both directions in-process.
func pipeConn(buf *bytes.Buffer) *Conn { return NewConn(buf) }

func TestStepRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := pipeConn(&buf)
	obs := []float64{1.5, -0.0, math.Inf(1), math.NaN(), 1e-300, 42}
	if err := c.WriteStep(63, 7, obs); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeStep {
		t.Fatalf("type %d, want TypeStep", typ)
	}
	if cid, ok := StepCid(payload); !ok || cid != 63 {
		t.Fatalf("StepCid = %d %v, want 63 true", cid, ok)
	}
	got := make([]float64, len(obs))
	cid, seq, err := DecodeStep(payload, got)
	if err != nil {
		t.Fatal(err)
	}
	if cid != 63 || seq != 7 {
		t.Fatalf("cid %d seq %d, want 63 7", cid, seq)
	}
	for i := range obs {
		if math.Float64bits(got[i]) != math.Float64bits(obs[i]) {
			t.Fatalf("obs[%d] = %g (%#x), want %g (%#x) — not bit-identical",
				i, got[i], math.Float64bits(got[i]), obs[i], math.Float64bits(obs[i]))
		}
	}
	// Dimension mismatch must be rejected, not silently truncated.
	if _, _, err := DecodeStep(payload, make([]float64, len(obs)+1)); err == nil {
		t.Fatal("DecodeStep accepted a dimension mismatch")
	}
}

func TestDecisionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := pipeConn(&buf)
	want := Decision{Cid: 1023, Seq: 99, Action: 5, Flags: FlagFallback | FlagDemoted, Step: 1234, Score: -0.625}
	if err := c.WriteDecision(want); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if typ != TypeDecision {
		t.Fatalf("type %d, want TypeDecision", typ)
	}
	got, err := DecodeDecision(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("decision %+v, want %+v", got, want)
	}
}

func TestHandshakeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := pipeConn(&buf)
	if err := c.WriteHello(); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := c.ReadFrame()
	if err != nil || typ != TypeHello {
		t.Fatalf("read hello: type %d err %v", typ, err)
	}
	if err := DecodeHello(payload); err != nil {
		t.Fatal(err)
	}

	want := Welcome{Version: Version, ObsDim: 48, NumActions: 6,
		Dataset: "norway", Schemes: []string{"ND", "A-ensemble", "V-ensemble"}}
	if err := c.WriteWelcome(want); err != nil {
		t.Fatal(err)
	}
	typ, payload, err = c.ReadFrame()
	if err != nil || typ != TypeWelcome {
		t.Fatalf("read welcome: type %d err %v", typ, err)
	}
	got, err := DecodeWelcome(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != want.Version || got.ObsDim != want.ObsDim ||
		got.NumActions != want.NumActions || got.Dataset != want.Dataset ||
		len(got.Schemes) != len(want.Schemes) {
		t.Fatalf("welcome %+v, want %+v", got, want)
	}
	for i := range want.Schemes {
		if got.Schemes[i] != want.Schemes[i] {
			t.Fatalf("scheme[%d] %q, want %q", i, got.Schemes[i], want.Schemes[i])
		}
	}
}

func TestControlRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	c := pipeConn(&buf)

	if err := c.WriteOpen(5, "A-ensemble"); err != nil {
		t.Fatal(err)
	}
	typ, payload, _ := c.ReadFrame()
	if cid, s, err := DecodeOpen(payload); typ != TypeOpen || err != nil || cid != 5 || s != "A-ensemble" {
		t.Fatalf("open round trip: type %d cid %d %q %v", typ, cid, s, err)
	}

	if err := c.WriteOpened(5, "abc-123"); err != nil {
		t.Fatal(err)
	}
	typ, payload, _ = c.ReadFrame()
	if cid, id, err := DecodeOpened(payload); typ != TypeOpened || err != nil || cid != 5 || id != "abc-123" {
		t.Fatalf("opened round trip: type %d cid %d %q %v", typ, cid, id, err)
	}

	if err := c.WriteError(9, CodeTooMany, "session table full"); err != nil {
		t.Fatal(err)
	}
	typ, payload, _ = c.ReadFrame()
	cid, code, msg, err := DecodeError(payload)
	if typ != TypeError || err != nil || cid != 9 || code != CodeTooMany || msg != "session table full" {
		t.Fatalf("error round trip: type %d cid %d code %d %q %v", typ, cid, code, msg, err)
	}

	// Connection-scoped errors carry the reserved cid.
	if err := c.WriteError(CidConn, CodeBadRequest, "bad frame"); err != nil {
		t.Fatal(err)
	}
	_, payload, _ = c.ReadFrame()
	if cid, _, _, err := DecodeError(payload); err != nil || cid != CidConn {
		t.Fatalf("conn-scoped error: cid %#x %v, want CidConn", cid, err)
	}

	if err := c.WriteSessionControl(TypeClose, 77); err != nil {
		t.Fatal(err)
	}
	typ, payload, _ = c.ReadFrame()
	if cid, err := DecodeCid(payload); typ != TypeClose || err != nil || cid != 77 {
		t.Fatalf("close round trip: type %d cid %d %v", typ, cid, err)
	}

	if err := c.WriteGoAway("draining"); err != nil {
		t.Fatal(err)
	}
	typ, payload, _ = c.ReadFrame()
	if typ != TypeGoAway || string(payload) != "draining" {
		t.Fatalf("goaway round trip: type %d %q", typ, payload)
	}

	if err := c.WriteControl(TypePing, nil); err != nil {
		t.Fatal(err)
	}
	typ, payload, _ = c.ReadFrame()
	if typ != TypePing || len(payload) != 0 {
		t.Fatalf("ping round trip: type %d payload %d bytes", typ, len(payload))
	}
}

func TestFrameErrors(t *testing.T) {
	// Oversized frame.
	var buf bytes.Buffer
	hdr := make([]byte, 4)
	binary.LittleEndian.PutUint32(hdr, MaxFrame+1)
	buf.Write(hdr)
	if _, _, err := pipeConn(&buf).ReadFrame(); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: err %v, want ErrFrameTooLarge", err)
	}

	// Zero-length body.
	buf.Reset()
	binary.LittleEndian.PutUint32(hdr, 0)
	buf.Write(hdr)
	if _, _, err := pipeConn(&buf).ReadFrame(); err != ErrShortFrame {
		t.Fatalf("empty frame: err %v, want ErrShortFrame", err)
	}

	// Truncated payload.
	buf.Reset()
	binary.LittleEndian.PutUint32(hdr, 100)
	buf.Write(hdr)
	buf.WriteByte(byte(TypeStep))
	if _, _, err := pipeConn(&buf).ReadFrame(); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated frame: err %v, want ErrUnexpectedEOF", err)
	}

	// Hello with the wrong magic / version.
	if err := DecodeHello([]byte("NOPE\x01")); err != ErrBadMagic {
		t.Fatalf("bad magic: err %v", err)
	}
	if err := DecodeHello([]byte("OSAP\x7f")); err != ErrVersion {
		t.Fatalf("bad version: err %v", err)
	}
	if err := DecodeHello([]byte("OSAP")); err != ErrShortFrame {
		t.Fatalf("short hello: err %v", err)
	}

	// Short decision / step / cid / error payloads.
	if _, err := DecodeDecision(make([]byte, 5)); err != ErrShortFrame {
		t.Fatalf("short decision: err %v", err)
	}
	if _, _, err := DecodeStep(make([]byte, 3), make([]float64, 1)); err != ErrShortFrame {
		t.Fatalf("short step: err %v", err)
	}
	if _, err := DecodeCid(make([]byte, 3)); err != ErrShortFrame {
		t.Fatalf("short cid: err %v", err)
	}
	if _, _, _, err := DecodeError(make([]byte, 5)); err != ErrShortFrame {
		t.Fatalf("short error: err %v", err)
	}
	if _, ok := StepCid(make([]byte, 3)); ok {
		t.Fatal("StepCid accepted a 3-byte payload")
	}
}

// TestEncodeZeroAlloc pins the frame encode path: once the write
// buffer is warm, WriteStep and WriteDecision must not allocate.
func TestEncodeZeroAlloc(t *testing.T) {
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{nil, io.Discard})
	obs := make([]float64, 48)
	if err := c.WriteStep(0, 0, obs); err != nil { // warm wbuf
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.WriteStep(3, 1, obs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("WriteStep allocates %.2f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := c.WriteDecision(Decision{Cid: 3, Seq: 1, Action: 2, Step: 3, Score: 4}); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("WriteDecision allocates %.2f/op, want 0", allocs)
	}
}

// TestDecodeZeroAlloc pins the frame decode path: ReadFrame +
// DecodeStep reuse connection buffers once warm.
func TestDecodeZeroAlloc(t *testing.T) {
	const runs = 100
	var enc bytes.Buffer
	w := NewConn(&enc)
	obs := []float64{1, 2, 3, 4, 5, 6}
	for i := 0; i < runs+10; i++ {
		if err := w.WriteStep(uint32(i%7), uint32(i), obs); err != nil {
			t.Fatal(err)
		}
	}
	c := NewConn(struct {
		io.Reader
		io.Writer
	}{bytes.NewReader(enc.Bytes()), io.Discard})
	got := make([]float64, len(obs))
	if _, _, err := c.ReadFrame(); err != nil { // warm rbuf
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(runs, func() {
		_, payload, err := c.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := DecodeStep(payload, got); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ReadFrame+DecodeStep allocates %.2f/op, want 0", allocs)
	}
}

// TestManualFlushCoalesces pins the mux writer contract: with
// ManualFlush on, Write* only appends to the buffered writer and
// nothing reaches the transport until Flush.
func TestManualFlushCoalesces(t *testing.T) {
	var buf bytes.Buffer
	c := NewConn(&buf)
	c.ManualFlush()
	obs := make([]float64, 8)
	for cid := uint32(0); cid < 4; cid++ {
		if err := c.WriteStep(cid, 1, obs); err != nil {
			t.Fatal(err)
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("manual-flush conn wrote %d bytes before Flush", buf.Len())
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewConn(&buf)
	for cid := uint32(0); cid < 4; cid++ {
		typ, payload, err := r.ReadFrame()
		if err != nil || typ != TypeStep {
			t.Fatalf("frame %d: type %d err %v", cid, typ, err)
		}
		got, _, err := DecodeStep(payload, obs)
		if err != nil || got != cid {
			t.Fatalf("frame %d decoded cid %d err %v", cid, got, err)
		}
	}
}

// chunkReader is a transport that hands out data in reads of at most
// chunk bytes and counts them; writes vanish.
type chunkReader struct {
	data  []byte
	chunk int
	reads int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	r.reads++
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), r.chunk, len(r.data))
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

func (r *chunkReader) Write(p []byte) (int, error) { return len(p), nil }

// TestFrameBuffered walks the burst rule a server relies on: frames
// that arrived in one read are all reported buffered, a frame cut short
// is not, and a header ReadFrame rejects counts as buffered because
// ReadFrame answers it without reading.
func TestFrameBuffered(t *testing.T) {
	var enc bytes.Buffer
	w := NewConn(&enc)
	obs := make([]float64, 3)
	for cid := uint32(0); cid < 3; cid++ {
		if err := w.WriteStep(cid, 1, obs); err != nil {
			t.Fatal(err)
		}
	}
	frame := StepFrameSize(len(obs))
	if enc.Len() != 3*frame {
		t.Fatalf("three step frames take %d bytes, StepFrameSize says %d each", enc.Len(), frame)
	}
	// Two and a half frames, then the rest.
	rd := &chunkReader{data: enc.Bytes(), chunk: 2*frame + frame/2}
	c := NewConnSize(rd, 4*frame)
	if c.FrameBuffered() {
		t.Fatal("a frame is buffered before anything was read")
	}
	for i, want := range []bool{true, false, false} {
		if _, _, err := c.ReadFrame(); err != nil {
			t.Fatal(err)
		}
		if got := c.FrameBuffered(); got != want {
			t.Fatalf("after frame %d: FrameBuffered = %v, want %v", i, got, want)
		}
	}
	if rd.reads != 2 {
		t.Fatalf("three frames took %d reads, want 2", rd.reads)
	}

	bad := binary.LittleEndian.AppendUint32(nil, MaxFrame+1)
	c = NewConn(&chunkReader{data: append(bad, enc.Bytes()[:frame]...), chunk: 1 << 20})
	if _, _, err := c.ReadFrame(); err != ErrFrameTooLarge {
		t.Fatalf("oversized frame: err %v", err)
	}
}

// FuzzFrame feeds arbitrary bytes, arriving in arbitrary pieces, to the
// read side: ReadFrame, FrameBuffered and every Decode* must never
// panic, a payload must be exactly the bytes that were sent, and
// FrameBuffered must imply that the next ReadFrame leaves the transport
// alone. The seed corpus is one frame of every type plus the malformed
// headers of TestFrameErrors, so plain `go test` runs it.
func FuzzFrame(f *testing.F) {
	var enc bytes.Buffer
	w := NewConn(&enc)
	obs := []float64{1.5, math.Copysign(0, -1), math.Inf(1), math.NaN()}
	for _, write := range []func() error{
		w.WriteHello,
		func() error {
			return w.WriteWelcome(Welcome{Version: Version, ObsDim: 4, NumActions: 6, Dataset: "d", Schemes: []string{"ND", "A-ens"}})
		},
		func() error { return w.WriteOpen(3, "ND") },
		func() error { return w.WriteOpened(3, "abc-1") },
		func() error { return w.WriteStep(3, 9, obs) },
		func() error {
			return w.WriteDecision(Decision{Cid: 3, Seq: 9, Action: 2, Flags: FlagFired, Step: 8, Score: 0.25})
		},
		func() error { return w.WriteSessionControl(TypeReset, 3) },
		func() error { return w.WriteError(3, CodeGone, "session closed") },
		func() error { return w.WriteControl(TypePing, nil) },
		func() error { return w.WriteGoAway("draining") },
	} {
		enc.Reset()
		if err := write(); err != nil {
			f.Fatal(err)
		}
		one := bytes.Clone(enc.Bytes())
		f.Add(one, uint8(255))
		f.Add(append(one, one...), uint8(7))
		f.Add(one[:len(one)-1], uint8(3))
	}
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxFrame+1), uint8(4))
	f.Add(binary.LittleEndian.AppendUint32(nil, 0), uint8(1))
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 100), byte(TypeStep)), uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, chunk uint8) {
		rd := &chunkReader{data: data, chunk: int(chunk) + 1}
		c := NewConnSize(rd, 64) // small, so frames also outgrow the buffer
		var re bytes.Buffer
		rew := NewConn(&re)
		for off := 0; ; {
			buffered, reads := c.FrameBuffered(), rd.reads
			typ, payload, err := c.ReadFrame()
			if buffered && rd.reads != reads {
				t.Fatalf("offset %d: FrameBuffered, yet ReadFrame read from the transport", off)
			}
			if err != nil {
				return
			}
			end := off + headerLen + 1 + len(payload)
			if end > len(data) || data[off+headerLen] != byte(typ) || !bytes.Equal(payload, data[off+headerLen+1:end]) {
				t.Fatalf("offset %d: frame type %d with %d payload bytes is not what was sent", off, typ, len(payload))
			}

			// Every decoder on every payload: the type byte is the peer's
			// claim, not a guarantee.
			DecodeHello(payload)   //nolint:errcheck
			DecodeWelcome(payload) //nolint:errcheck
			DecodeOpen(payload)    //nolint:errcheck
			DecodeOpened(payload)  //nolint:errcheck
			DecodeCid(payload)     //nolint:errcheck
			DecodeError(payload)   //nolint:errcheck
			StepCid(payload)
			re.Reset()
			if d, err := DecodeDecision(payload); err == nil {
				rew.WriteDecision(d) //nolint:errcheck // bytes.Buffer
			} else if n := len(payload) - 8; n >= 0 && n%8 == 0 {
				got := make([]float64, n/8)
				cid, seq, err := DecodeStep(payload, got)
				if err != nil {
					t.Fatalf("offset %d: DecodeStep refused %d observations in %d bytes: %v", off, len(got), len(payload), err)
				}
				rew.WriteStep(cid, seq, got)          //nolint:errcheck // bytes.Buffer
				DecodeStep(payload, got[:len(got)/2]) //nolint:errcheck // wrong dimension: an error, not a panic
			}
			if re.Len() > 0 && !bytes.Equal(re.Bytes()[headerLen+1:], payload) {
				t.Fatalf("offset %d: decode then encode changed the payload", off)
			}
			off = end
		}
	})
}

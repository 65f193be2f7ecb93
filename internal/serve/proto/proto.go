// Package proto is the persistent binary step protocol: a
// length-prefixed framing over one TCP connection that replaces the
// HTTP+JSON round trip on the serving hot path. A step request is one
// small frame (sequence number + raw float64 observations) and its
// decision is another; both encode into connection-owned buffers, so a
// steady-state step does zero heap allocation and no text parsing on
// either side.
//
// Wire format, all integers little-endian:
//
//	frame   := length:u32 body
//	body    := type:u8 payload          (length = len(body) ≤ MaxFrame)
//
// A connection multiplexes many sessions. After the Hello/Welcome
// handshake every session-scoped frame — Open, Opened, Step, Decision,
// Reset, Close, OK, Error — leads its payload with a client-assigned
// channel id (cid), unique per live session on its connection. A
// client may run one connection per session (cid 0 throughout) or park
// hundreds of sessions on one connection; the frames of concurrent
// sessions coalesce into shared reads and writes, which is where the
// persistent protocol's syscall advantage over HTTP comes from. Frames
// are served, and answered, in the order they arrive. Ping/Pong and
// GoAway are connection-scoped. When the server drains it answers
// further frames with GoAway — the binary analogue of 503 +
// Retry-After — and the connection winds down; every Decision it
// carries precedes the first GoAway.
package proto

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// Magic opens every Hello frame; Version is the protocol revision
// negotiated by Hello/Welcome.
const (
	Magic   = "OSAP"
	Version = 1
	// MaxFrame bounds a frame body (type byte + payload); anything
	// larger is a protocol error and the connection is dropped.
	MaxFrame  = 1 << 20
	headerLen = 4
)

// Type tags a frame body. Client→server types are low, server→client
// high, so a misdirected frame is immediately recognizable.
type Type uint8

const (
	TypeHello Type = 1 // magic + version
	TypeOpen  Type = 2 // cid + scheme string
	TypeStep  Type = 3 // cid + seq + observations
	TypeReset Type = 4 // cid; new episode, same session
	TypeClose Type = 5 // cid; delete session, connection stays usable
	TypePing  Type = 6 // keepalive

	TypeWelcome  Type = 16 // version + dims + dataset + schemes
	TypeOpened   Type = 17 // cid + session id
	TypeDecision Type = 18 // cid + seq + action + flags + step + score
	TypePong     Type = 19
	TypeError    Type = 20 // cid + code + message; connection stays usable
	TypeGoAway   Type = 21 // reason; server is draining, connection ends
	TypeOK       Type = 22 // cid; ack for Reset/Close
)

// CidConn marks an Error frame as connection-scoped (handshake or
// framing faults) rather than addressed to one session's channel.
const CidConn = ^uint32(0)

// Decision flag bits.
const (
	FlagFallback = 1 << 0 // default policy acted
	FlagFired    = 1 << 1 // trigger has fired this episode
	FlagDemoted  = 1 << 2 // session serves in degraded mode
)

// Error codes carried by TypeError, mirroring the HTTP front door.
const (
	CodeBadRequest uint16 = 400
	CodeGone       uint16 = 410
	CodeTooMany    uint16 = 429
	CodeDraining   uint16 = 503
)

// Frame-level protocol errors.
var (
	ErrFrameTooLarge = errors.New("proto: frame exceeds MaxFrame")
	ErrShortFrame    = errors.New("proto: frame payload truncated")
	ErrBadMagic      = errors.New("proto: bad hello magic")
	ErrVersion       = errors.New("proto: unsupported protocol version")
)

// Decision is the decoded TypeDecision payload.
type Decision struct {
	Cid    uint32
	Seq    uint32
	Action uint16
	Flags  uint8
	Step   uint32
	Score  float64
}

// Welcome is the decoded TypeWelcome payload.
type Welcome struct {
	Version    uint8
	ObsDim     int
	NumActions int
	Dataset    string
	Schemes    []string
}

// Conn frames one side of a protocol connection. Read payloads and
// write scratch live in connection-owned buffers, reused across
// frames. The read side (ReadFrame, FrameBuffered) and the write side
// (the Write* methods and Flush) may be owned by different goroutines —
// the load generator's mux splits them into a reader and a coalescing
// writer; the server runs both from one — but each side is
// single-goroutine.
type Conn struct {
	br     *bufio.Reader
	bw     *bufio.Writer
	manual bool
	hdr    [headerLen]byte
	rbuf   []byte
	wbuf   []byte
}

// NewConn wraps a transport (usually a net.Conn).
func NewConn(rw io.ReadWriter) *Conn { return NewConnSize(rw, 4096) }

// NewConnSize is NewConn with a read buffer of at least readBuf bytes:
// one read(2) can bring in that many bytes of frames, and FrameBuffered
// sees all of them. A server sizes it to the burst it wants to answer
// with one write.
func NewConnSize(rw io.ReadWriter, readBuf int) *Conn {
	return &Conn{br: bufio.NewReaderSize(rw, readBuf), bw: bufio.NewWriter(rw)}
}

// StepFrameSize is the wire size of one Step frame, header included,
// for observations of dimension obsDim.
func StepFrameSize(obsDim int) int { return headerLen + 1 + 4 + 4 + 8*obsDim }

// ManualFlush switches the write side from flush-per-frame to
// caller-controlled flushing: Write* methods only append to the write
// buffer and the owner calls Flush when it has nothing more to encode.
// This is how many sessions' frames leave in one syscall.
func (c *Conn) ManualFlush() { c.manual = true }

// Flush writes out any buffered frames.
func (c *Conn) Flush() error { return c.bw.Flush() }

// ReadFrame reads one frame and returns its type and payload. The
// payload aliases the connection's read buffer — valid until the next
// ReadFrame.
//
//osap:hotpath
func (c *Conn) ReadFrame() (Type, []byte, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := int(binary.LittleEndian.Uint32(c.hdr[:]))
	if n < 1 {
		return 0, nil, ErrShortFrame
	}
	if n > MaxFrame {
		return 0, nil, ErrFrameTooLarge
	}
	if cap(c.rbuf) < n {
		c.rbuf = make([]byte, n)
	}
	b := c.rbuf[:n]
	if _, err := io.ReadFull(c.br, b); err != nil {
		return 0, nil, err
	}
	return Type(b[0]), b[1:], nil
}

// FrameBuffered reports whether the next ReadFrame will return without
// reading from the transport: the read buffer already holds a complete
// frame, or a header ReadFrame rejects. It peeks the header and reads
// nothing.
//
//osap:hotpath
func (c *Conn) FrameBuffered() bool {
	have := c.br.Buffered()
	if have < headerLen {
		return false
	}
	hdr, _ := c.br.Peek(headerLen) // buffered already: no read, no error
	n := int(binary.LittleEndian.Uint32(hdr))
	return n < 1 || n > MaxFrame || have-headerLen >= n
}

// frame reserves the write buffer for a body of n bytes (type byte
// included) and stamps the header; the caller fills b[0:] with the
// body and calls flush.
//
//osap:hotpath
func (c *Conn) frame(t Type, bodyLen int) []byte {
	n := headerLen + bodyLen
	if cap(c.wbuf) < n {
		c.wbuf = make([]byte, n)
	}
	b := c.wbuf[:n]
	binary.LittleEndian.PutUint32(b, uint32(bodyLen))
	b[headerLen] = byte(t)
	return b
}

//osap:hotpath
func (c *Conn) flush(b []byte) error {
	if _, err := c.bw.Write(b); err != nil {
		return err
	}
	if c.manual {
		return nil
	}
	return c.bw.Flush()
}

// WriteStep encodes and sends one step request on channel cid.
//
//osap:hotpath
func (c *Conn) WriteStep(cid, seq uint32, obs []float64) error {
	b := c.frame(TypeStep, 1+4+4+8*len(obs))
	binary.LittleEndian.PutUint32(b[headerLen+1:], cid)
	binary.LittleEndian.PutUint32(b[headerLen+5:], seq)
	off := headerLen + 9
	for _, v := range obs {
		binary.LittleEndian.PutUint64(b[off:], math.Float64bits(v))
		off += 8
	}
	return c.flush(b)
}

// DecodeStep unpacks a TypeStep payload into a caller-owned
// observation buffer, which fixes the expected dimension.
//
//osap:hotpath
func DecodeStep(payload []byte, obs []float64) (cid, seq uint32, err error) {
	if len(payload) != 8+8*len(obs) {
		return 0, 0, ErrShortFrame
	}
	cid = binary.LittleEndian.Uint32(payload)
	seq = binary.LittleEndian.Uint32(payload[4:])
	off := 8
	for i := range obs {
		obs[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
		off += 8
	}
	return cid, seq, nil
}

// StepCid peeks the channel id of a TypeStep (or any session-scoped)
// payload without decoding the rest; used to address error replies for
// frames rejected before full decode.
func StepCid(payload []byte) (uint32, bool) {
	if len(payload) < 4 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(payload), true
}

// WriteDecision encodes and sends one step decision.
//
//osap:hotpath
func (c *Conn) WriteDecision(d Decision) error {
	b := c.frame(TypeDecision, 1+4+4+2+1+4+8)
	binary.LittleEndian.PutUint32(b[headerLen+1:], d.Cid)
	binary.LittleEndian.PutUint32(b[headerLen+5:], d.Seq)
	binary.LittleEndian.PutUint16(b[headerLen+9:], d.Action)
	b[headerLen+11] = d.Flags
	binary.LittleEndian.PutUint32(b[headerLen+12:], d.Step)
	binary.LittleEndian.PutUint64(b[headerLen+16:], math.Float64bits(d.Score))
	return c.flush(b)
}

// DecodeDecision unpacks a TypeDecision payload.
//
//osap:hotpath
func DecodeDecision(payload []byte) (Decision, error) {
	var d Decision
	if len(payload) != 4+4+2+1+4+8 {
		return d, ErrShortFrame
	}
	d.Cid = binary.LittleEndian.Uint32(payload)
	d.Seq = binary.LittleEndian.Uint32(payload[4:])
	d.Action = binary.LittleEndian.Uint16(payload[8:])
	d.Flags = payload[10]
	d.Step = binary.LittleEndian.Uint32(payload[11:])
	d.Score = math.Float64frombits(binary.LittleEndian.Uint64(payload[15:]))
	return d, nil
}

// ---- control frames (cold path) ----

// WriteControl sends a frame with an arbitrary payload (nil for the
// empty control frames: Reset, Close, Ping, Pong, OK).
func (c *Conn) WriteControl(t Type, payload []byte) error {
	b := c.frame(t, 1+len(payload))
	copy(b[headerLen+1:], payload)
	return c.flush(b)
}

// WriteHello sends the client handshake.
func (c *Conn) WriteHello() error {
	b := make([]byte, len(Magic)+1)
	copy(b, Magic)
	b[len(Magic)] = Version
	return c.WriteControl(TypeHello, b)
}

// DecodeHello validates a TypeHello payload.
func DecodeHello(payload []byte) error {
	if len(payload) != len(Magic)+1 {
		return ErrShortFrame
	}
	if string(payload[:len(Magic)]) != Magic {
		return ErrBadMagic
	}
	if payload[len(Magic)] != Version {
		return ErrVersion
	}
	return nil
}

// WriteWelcome sends the server handshake response.
func (c *Conn) WriteWelcome(w Welcome) error {
	b := []byte{Version}
	b = binary.LittleEndian.AppendUint16(b, uint16(w.ObsDim))
	b = binary.LittleEndian.AppendUint16(b, uint16(w.NumActions))
	b = appendString(b, w.Dataset)
	b = append(b, byte(len(w.Schemes)))
	for _, s := range w.Schemes {
		b = appendString(b, s)
	}
	return c.WriteControl(TypeWelcome, b)
}

// DecodeWelcome unpacks a TypeWelcome payload.
func DecodeWelcome(payload []byte) (Welcome, error) {
	var w Welcome
	if len(payload) < 6 {
		return w, ErrShortFrame
	}
	w.Version = payload[0]
	w.ObsDim = int(binary.LittleEndian.Uint16(payload[1:]))
	w.NumActions = int(binary.LittleEndian.Uint16(payload[3:]))
	rest := payload[5:]
	var err error
	if w.Dataset, rest, err = takeString(rest); err != nil {
		return w, err
	}
	if len(rest) < 1 {
		return w, ErrShortFrame
	}
	n := int(rest[0])
	rest = rest[1:]
	w.Schemes = make([]string, 0, n)
	for i := 0; i < n; i++ {
		var s string
		if s, rest, err = takeString(rest); err != nil {
			return w, err
		}
		w.Schemes = append(w.Schemes, s)
	}
	return w, nil
}

// WriteOpen requests a session on channel cid with the given scheme.
func (c *Conn) WriteOpen(cid uint32, scheme string) error {
	b := binary.LittleEndian.AppendUint32(nil, cid)
	return c.WriteControl(TypeOpen, appendString(b, scheme))
}

// DecodeOpen unpacks a TypeOpen payload.
func DecodeOpen(payload []byte) (uint32, string, error) {
	if len(payload) < 4 {
		return 0, "", ErrShortFrame
	}
	cid := binary.LittleEndian.Uint32(payload)
	s, rest, err := takeString(payload[4:])
	if err != nil || len(rest) != 0 {
		return 0, "", ErrShortFrame
	}
	return cid, s, nil
}

// WriteOpened acknowledges Open with the session id.
func (c *Conn) WriteOpened(cid uint32, id string) error {
	b := binary.LittleEndian.AppendUint32(nil, cid)
	return c.WriteControl(TypeOpened, appendString(b, id))
}

// DecodeOpened unpacks a TypeOpened payload.
func DecodeOpened(payload []byte) (uint32, string, error) { return DecodeOpen(payload) }

// WriteSessionControl sends a cid-only session frame (Reset, Close,
// OK).
func (c *Conn) WriteSessionControl(t Type, cid uint32) error {
	return c.WriteControl(t, binary.LittleEndian.AppendUint32(nil, cid))
}

// DecodeCid unpacks a cid-only payload (Reset, Close, OK).
func DecodeCid(payload []byte) (uint32, error) {
	if len(payload) != 4 {
		return 0, ErrShortFrame
	}
	return binary.LittleEndian.Uint32(payload), nil
}

// WriteError reports a recoverable request error addressed to one
// session channel (or CidConn for connection-scoped faults); the
// connection stays open.
func (c *Conn) WriteError(cid uint32, code uint16, msg string) error {
	b := binary.LittleEndian.AppendUint32(nil, cid)
	b = binary.LittleEndian.AppendUint16(b, code)
	return c.WriteControl(TypeError, append(b, msg...))
}

// DecodeError unpacks a TypeError payload.
func DecodeError(payload []byte) (uint32, uint16, string, error) {
	if len(payload) < 6 {
		return 0, 0, "", ErrShortFrame
	}
	return binary.LittleEndian.Uint32(payload),
		binary.LittleEndian.Uint16(payload[4:]),
		string(payload[6:]), nil
}

// WriteGoAway tells the peer the server is draining; the connection
// ends after this frame.
func (c *Conn) WriteGoAway(reason string) error {
	return c.WriteControl(TypeGoAway, []byte(reason))
}

// ErrorString renders a decoded error frame for logs.
func ErrorString(code uint16, msg string) string {
	return fmt.Sprintf("proto: server error %d: %s", code, msg)
}

func appendString(b []byte, s string) []byte {
	if len(s) > 255 {
		s = s[:255]
	}
	b = append(b, byte(len(s)))
	return append(b, s...)
}

func takeString(b []byte) (string, []byte, error) {
	if len(b) < 1 {
		return "", nil, ErrShortFrame
	}
	n := int(b[0])
	if len(b) < 1+n {
		return "", nil, ErrShortFrame
	}
	return string(b[1 : 1+n]), b[1+n:], nil
}

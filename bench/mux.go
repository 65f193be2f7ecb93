package main

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"

	"osap/internal/serve/proto"
)

var inf = math.Inf(1)

// epoch anchors the benchmark's monotonic clock; every timestamp is
// nanoseconds since it.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// spinReader reads a socket without ever parking the goroutine. The
// load generator is one goroutine that must notice a due arrival
// within microseconds; a goroutine parked in the netpoller at
// GOMAXPROCS=1 wakes with millisecond granularity, so the generator
// polls the descriptor itself and spins in between.
type spinReader struct {
	rc     syscall.RawConn
	stage  []byte // bytes read from the socket, not yet handed on
	off    int
	pulled int64 // bytes handed to the bufio.Reader inside proto.Conn
	err    error

	// One reusable closure and its result slots keep poll allocation-free.
	fn    func(fd uintptr) bool
	buf   []byte
	n     int
	rerr  error
	block bool // park in the netpoller until readable instead of returning
}

func newSpinReader(rc syscall.RawConn) *spinReader {
	r := &spinReader{rc: rc, buf: make([]byte, 64<<10)}
	r.fn = func(fd uintptr) bool {
		r.n, r.rerr = syscall.Read(int(fd), r.buf)
		// Returning false makes RawConn.Read wait for readability and
		// call again; true returns at once, and the caller spins.
		return !(r.block && r.rerr == syscall.EAGAIN)
	}
	return r
}

// wait parks until the socket has bytes (or fails). A closed loop
// that has nothing to send until a reply arrives uses it: timing
// precision buys nothing there, and a spinning generator costs the
// server its share of a throttled machine.
func (r *spinReader) wait() {
	r.block = true
	r.poll()
	r.block = false
}

// poll reports whether unread bytes are staged, reading the socket
// once (non-blocking) if none are. A closed or failed socket also
// reports true so the next Read surfaces the error.
func (r *spinReader) poll() bool {
	if r.off < len(r.stage) || r.err != nil {
		return true
	}
	if err := r.rc.Read(r.fn); err != nil {
		r.err = err
		return true
	}
	switch {
	case r.n > 0:
		r.stage, r.off = r.buf[:r.n], 0
		return true
	case r.n == 0:
		r.err = io.EOF
		return true
	case errors.Is(r.rerr, syscall.EAGAIN) || errors.Is(r.rerr, syscall.EINTR):
		return false
	default:
		r.err = r.rerr
		return true
	}
}

// Read hands staged bytes on, spinning until some arrive: it is only
// called mid-frame, when the rest is microseconds away.
func (r *spinReader) Read(p []byte) (int, error) {
	for r.off == len(r.stage) {
		if r.err != nil {
			return 0, r.err
		}
		r.poll()
	}
	n := copy(p, r.stage[r.off:])
	r.off += n
	r.pulled += int64(n)
	return n, nil
}

// mux is the generator's end of one multiplexed binary connection:
// every session of a run shares it, one goroutine both writes and
// reads it.
type mux struct {
	nc       net.Conn
	rd       *spinReader
	pc       *proto.Conn
	consumed int64 // bytes of the frames ReadFrame has returned
	wrote    bool  // frames buffered since the last flush
}

type readWriter struct {
	io.Reader
	io.Writer
}

func dialMux(addr string) (*mux, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	rc, err := nc.(*net.TCPConn).SyscallConn()
	if err != nil {
		nc.Close() //nolint:errcheck // dial failed
		return nil, err
	}
	m := &mux{nc: nc, rd: newSpinReader(rc)}
	m.pc = proto.NewConn(readWriter{m.rd, nc})
	return m, nil
}

// handshake performs Hello/Welcome and switches to caller-controlled
// flushing. The echo server skips it.
func (m *mux) handshake() error {
	if err := m.pc.WriteHello(); err != nil {
		return err
	}
	t, payload, err := m.readFrame()
	if err != nil {
		return err
	}
	if t != proto.TypeWelcome {
		return fmt.Errorf("handshake: frame type %d, want Welcome", t)
	}
	_, err = proto.DecodeWelcome(payload)
	m.pc.ManualFlush()
	return err
}

// pending reports whether a frame (or at least its start) is ready.
func (m *mux) pending() bool { return m.rd.pulled > m.consumed || m.rd.poll() }

// wait parks until pending would report true.
func (m *mux) wait() {
	if m.rd.pulled == m.consumed {
		m.rd.wait()
	}
}

func (m *mux) readFrame() (proto.Type, []byte, error) {
	t, payload, err := m.pc.ReadFrame()
	m.consumed += int64(4 + 1 + len(payload))
	return t, payload, err
}

func (m *mux) flush() error {
	if !m.wrote {
		return nil
	}
	m.wrote = false
	return m.pc.Flush()
}

func (m *mux) close() { m.nc.Close() } //nolint:errcheck // done with the connection

// await spins until the next frame arrives or the deadline passes; the
// sequential set-up exchanges (Open, Close) use it.
func (m *mux) await(deadline int64) (proto.Type, []byte, error) {
	for !m.pending() {
		if now() > deadline {
			return 0, nil, errors.New("timed out waiting for a reply")
		}
	}
	return m.readFrame()
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	var mask [16]uint64
	n, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < int(n)*8; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinToCPU restricts every thread of this process to one CPU. With
// the generator on the first allowed CPU and the server on the last,
// neither migrates mid-run and which of them shares a CPU with the
// machine's interrupt handling no longer changes from run to run:
// measured here, unpinned runs spread three times as wide. Best
// effort: without the right to set affinity a run is merely noisier.
func pinToCPU(cpu int) {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return
	}
	for _, t := range tasks {
		if tid, err := strconv.Atoi(t.Name()); err == nil {
			syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))) //nolint:errcheck // best effort
		}
	}
}

// childCPUEnv carries the server's CPU to the child, which inherits
// the generator's one-CPU mask and could not tell otherwise.
const childCPUEnv = "OSAP_BENCH_CHILD_CPU"

// pinApart pins the generator to the first allowed CPU and leaves the
// last in the environment for the server child, provided there are two
// to choose from.
func pinApart() {
	if cpus := allowedCPUs(); len(cpus) >= 2 {
		os.Setenv(childCPUEnv, strconv.Itoa(cpus[len(cpus)-1])) //nolint:errcheck // a valid name and value
		pinToCPU(cpus[0])
	}
}

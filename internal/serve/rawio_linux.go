//go:build linux

package serve

import (
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"
)

// rawIO is a binary connection's socket I/O without the scheduler's
// system-call bookkeeping. A net.Conn's Read and Write go through
// syscall.Syscall, whose runtime.entersyscall hands the P off in case
// the call blocks and, when the runtime's monitor thread (sysmon) is in
// its deep sleep — as it is whenever the server's only P idles between
// steps — wakes it with a futex. On a step path of a few microseconds
// that wake-up, on a second OS thread, was 15–20% of a step's CPU
// (DESIGN.md §10).
//
// The descriptor is non-blocking, so read(2) and write(2) on it return
// at once: with data, or with EAGAIN. rawIO issues them with
// syscall.RawSyscall inside the callbacks of the connection's
// syscall.RawConn, which park the goroutine in the netpoller on EAGAIN
// exactly as net.Conn does, and the scheduler never enters its syscall
// state. On a blocking descriptor a raw read would stall the whole P,
// so newRawIO checks O_NONBLOCK before it takes this path.
//
// One goroutine reads and writes (the connection's reader); a Close or
// CloseRead from another goroutine ends a parked read like it ends a
// net.Conn read.
type rawIO struct {
	rc syscall.RawConn
	// readFn and writeFn are the method values of read and write, built
	// once so that a step passes the callbacks without allocating.
	readFn, writeFn func(fd uintptr) bool

	// The Read and the Write in progress: the buffer, the bytes moved
	// so far and the errno that ended the call.
	rbuf, wbuf []byte
	rn, wn     int
	rerr, werr syscall.Errno
}

// newRawIO returns nc's raw reader and writer, or nc itself when it
// has no non-blocking descriptor to issue raw calls on (net.Pipe in
// tests, a wrapped conn).
func newRawIO(nc net.Conn) io.ReadWriter {
	sc, ok := nc.(syscall.Conn)
	if !ok {
		return nc
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return nc
	}
	var flags uintptr
	var errno syscall.Errno
	if err := rc.Control(func(fd uintptr) {
		flags, _, errno = syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
	}); err != nil || errno != 0 || flags&syscall.O_NONBLOCK == 0 {
		return nc
	}
	r := &rawIO{rc: rc}
	r.readFn, r.writeFn = r.read, r.write
	return r
}

// Read implements io.Reader: one read(2), after waiting in the
// netpoller for as long as the socket has nothing to read.
//
//osap:hotpath
func (r *rawIO) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	r.rbuf, r.rn, r.rerr = p, 0, 0
	err := r.rc.Read(r.readFn) //osap:hotpath-stop net.rawConn: the netpoller's wait, allocation-free (TestBinaryStepZeroAllocTCP)
	r.rbuf = nil
	switch {
	case err != nil:
		return 0, err
	case r.rerr != 0:
		return 0, os.NewSyscallError("read", r.rerr)
	case r.rn == 0:
		return 0, io.EOF
	}
	return r.rn, nil
}

// read is Read's callback: false asks the netpoller to wait.
//
//osap:hotpath
func (r *rawIO) read(fd uintptr) bool {
	for {
		n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&r.rbuf[0])), uintptr(len(r.rbuf)))
		switch e {
		case 0:
			r.rn = int(n)
			return true
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			r.rerr = e
			return true
		}
	}
}

// Write implements io.Writer: write(2) until p is out, waiting in the
// netpoller whenever the socket's send buffer is full.
//
//osap:hotpath
func (r *rawIO) Write(p []byte) (int, error) {
	r.wbuf, r.wn, r.werr = p, 0, 0
	err := r.rc.Write(r.writeFn) //osap:hotpath-stop net.rawConn: the netpoller's wait, allocation-free (TestBinaryStepZeroAllocTCP)
	r.wbuf = nil
	if err == nil && r.werr != 0 {
		err = os.NewSyscallError("write", r.werr)
	}
	return r.wn, err
}

// write is Write's callback: false asks the netpoller to wait.
//
//osap:hotpath
func (r *rawIO) write(fd uintptr) bool {
	for r.wn < len(r.wbuf) {
		n, _, e := syscall.RawSyscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&r.wbuf[r.wn])), uintptr(len(r.wbuf)-r.wn))
		switch e {
		case 0:
			r.wn += int(n)
		case syscall.EINTR:
		case syscall.EAGAIN:
			return false
		default:
			r.werr = e
			return true
		}
	}
	return true
}

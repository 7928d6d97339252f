//go:build linux && !386

package memnet

import (
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// rawTCPConn is a TCP connection whose data path bypasses the runtime's
// system-call bookkeeping. Read issues read(2) and Write and WriteBuffers
// issue writev(2) as syscall.RawSyscall inside syscall.RawConn callbacks.
// The socket is non-blocking, so neither call ever blocks in the kernel:
// EAGAIN makes the callback return false, the network poller parks the
// goroutine until the socket is ready, and read and write deadlines keep
// working exactly as on the embedded *net.TCPConn, which also keeps
// addresses, deadlines, Close and every other method.
//
// What a plain Read or Write costs on top of the kernel's work is
// entersyscall/exitsyscall, and, on a process with one P, the futex that
// wakes the parked system monitor on every call after the P went idle.
// A raw call pays neither.
//
// Raw calls are also invisible to the race detector. syscall.Read annotates
// the kernel's write into the read buffer, and Read and Write together
// publish a happens-before edge from a write on one socket to a read on
// another; RawSyscall does neither. A race on a read buffer, or one
// ordered only by bytes crossing a socket inside one process, goes
// unreported on this path.
//
// SendFile sends a message head and a file body: the head with a raw
// send(2), the body with sendfile(2) from the page cache, never copied
// through the process.
//
// The callbacks are method values bound once per connection and all their
// state lives in the struct, so a call allocates nothing. rmu and wmu
// guard that state: like net.Conn, the connection may be read and written
// from several goroutines at once.
//
// The build excludes 386, whose socket calls go through socketcall(2) and
// have no system call number of their own; there tcp_other.go applies.
type rawTCPConn struct {
	*net.TCPConn
	rc syscall.RawConn

	rmu    sync.Mutex
	rbuf   []byte
	rn     int
	rerrno syscall.Errno
	readFn func(fd uintptr) bool

	wmu     sync.Mutex
	one     [1][]byte // Write's buffer, as a one-element vector
	wvec    [][]byte  // what is left to write: wvec[widx][woff:], then the rest
	widx    int
	woff    int
	wn      int64
	wcall   string // the system call werrno came from
	werrno  syscall.Errno
	iov     [16]syscall.Iovec
	writeFn func(fd uintptr) bool

	// SendFile's state, also under wmu: the head still to send, the file,
	// the body offset sendfile has reached (the kernel advances it), the
	// body size promised, whether the file ended before it, and the
	// callback, bound on the first SendFile.
	fhead  []byte
	ffd    int
	foff   int64
	fsize  int64
	fshort bool
	sendFn func(fd uintptr) bool
}

// wrapTCP returns c with the raw data path, or c itself should its socket
// not be reachable as a raw connection.
func wrapTCP(c *net.TCPConn) net.Conn {
	rc, err := c.SyscallConn()
	if err != nil {
		return c
	}
	rw := &rawTCPConn{TCPConn: c, rc: rc}
	rw.readFn = rw.readRaw
	rw.writeFn = rw.writevRaw
	return rw
}

// Read implements net.Conn.
func (c *rawTCPConn) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	c.rmu.Lock()
	defer c.rmu.Unlock()
	c.rbuf, c.rn, c.rerrno = p, 0, 0
	err := c.rc.Read(c.readFn)
	c.rbuf = nil
	switch {
	case err != nil:
		return 0, c.opError("read", err)
	case c.rerrno != 0:
		return 0, c.opError("read", os.NewSyscallError("read", c.rerrno))
	case c.rn == 0:
		return 0, io.EOF
	}
	return c.rn, nil
}

// readRaw is the read callback: one read(2), retried on EINTR.
func (c *rawTCPConn) readRaw(fd uintptr) bool {
	for {
		n, _, e := syscall.RawSyscall(syscall.SYS_READ, fd, uintptr(unsafe.Pointer(&c.rbuf[0])), uintptr(len(c.rbuf)))
		switch e {
		case 0:
			c.rn = int(n)
			return true
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		c.rerrno = e
		return true
	}
}

// Write implements net.Conn: all of p, or an error and the count written.
func (c *rawTCPConn) Write(p []byte) (int, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.one[0] = p
	n, err := c.writev(c.one[:])
	c.one[0] = nil
	return int(n), err
}

// WriteBuffers writes the buffers of v back to back as one message, in as
// few writev calls as the socket buffer allows — one, unless the peer is
// slow or the vector has more than 16 non-empty buffers. Like memnet.Conn's
// it leaves v as it found it.
func (c *rawTCPConn) WriteBuffers(v *net.Buffers) (int64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.writev(*v)
}

// writev writes every byte of vec, continuing partial writes, and returns
// how many bytes the socket took. The caller holds wmu.
func (c *rawTCPConn) writev(vec [][]byte) (int64, error) {
	c.wvec, c.widx, c.woff, c.wn, c.werrno = vec, 0, 0, 0, 0
	err := c.rc.Write(c.writeFn)
	c.wvec = nil
	return c.wn, c.writeError(err)
}

// writeError maps the outcome of a write callback to Write's error.
func (c *rawTCPConn) writeError(err error) error {
	switch {
	case err != nil:
		return c.opError("write", err)
	case c.werrno != 0:
		return c.opError("write", os.NewSyscallError(c.wcall, c.werrno))
	}
	return nil
}

// writevRaw is the write callback: writev(2) until the vector is drained,
// retried on EINTR, the iovec array refilled from where the last call
// stopped.
func (c *rawTCPConn) writevRaw(fd uintptr) bool {
	for {
		n := 0
		for i, off := c.widx, c.woff; i < len(c.wvec) && n < len(c.iov); i, off = i+1, 0 {
			if b := c.wvec[i][off:]; len(b) > 0 {
				c.iov[n].Base = &b[0]
				c.iov[n].SetLen(len(b))
				n++
			}
		}
		if n == 0 {
			return true
		}
		r, _, e := syscall.RawSyscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&c.iov[0])), uintptr(n))
		// Release the buffers at once: an idle connection must not pin the
		// last document body it sent.
		clear(c.iov[:n])
		switch e {
		case 0:
			c.advance(int(r))
			continue
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		c.wcall, c.werrno = "writev", e
		return true
	}
}

// advance records that the kernel took n more bytes of the vector.
func (c *rawTCPConn) advance(n int) {
	c.wn += int64(n)
	for n > 0 {
		rest := len(c.wvec[c.widx]) - c.woff
		if n < rest {
			c.woff += n
			return
		}
		n -= rest
		c.widx++
		c.woff = 0
	}
}

// errShortFile is SendFile's error when the file ends before the size it
// was promised to hold: the peer has been told a Content-Length the file
// can no longer fill, so the connection must be closed, not padded.
var errShortFile = errors.New("sendfile: file shorter than its promised size")

// SendFile sends head, then the first n bytes of f, as one message, and
// returns how many bytes the socket took. The head goes with one raw
// send(2) flagged MSG_MORE, so it leaves in the segment that carries the
// start of the body; the body goes with sendfile(2) from offset 0, from the
// page cache to the socket without passing through the process. The file
// offset is passed explicitly, so f's own position is neither used nor
// moved. A file holding fewer than n bytes fails the call with
// errShortFile. Deadlines and Close work as for Write. The caller keeps f
// open until SendFile returns.
func (c *rawTCPConn) SendFile(head []byte, f *os.File, n int64) (int64, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if c.sendFn == nil {
		// Bound on first use: most connections (RPC, subscriptions,
		// small documents) never send a file.
		c.sendFn = c.sendfileRaw
	}
	c.fhead, c.ffd, c.foff, c.fsize, c.fshort = head, int(f.Fd()), 0, n, false
	c.wn, c.werrno = 0, 0
	err := c.rc.Write(c.sendFn)
	runtime.KeepAlive(f)
	c.fhead = nil
	if err == nil && c.fshort {
		return c.wn, c.opError("write", errShortFile)
	}
	return c.wn, c.writeError(err)
}

// sendfileRaw is SendFile's callback. send(2) is a socket call on a
// non-blocking socket and never blocks, so it is issued raw, and EINTR
// retries it. sendfile(2) is not: it reads the file, and on a page-cache
// miss it waits for the disk; a raw call would hold the process's P —
// the only one on a node pinned to one CPU — through that wait, where
// syscall.Sendfile (a Syscall6) lets the runtime hand the P on.
func (c *rawTCPConn) sendfileRaw(fd uintptr) bool {
	for len(c.fhead) > 0 {
		var flags uintptr
		if c.fsize > 0 {
			flags = syscall.MSG_MORE
		}
		r, _, e := syscall.RawSyscall6(syscall.SYS_SENDTO, fd, uintptr(unsafe.Pointer(&c.fhead[0])), uintptr(len(c.fhead)), flags, 0, 0)
		switch e {
		case 0:
			c.wn += int64(r)
			c.fhead = c.fhead[r:]
			continue
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false
		}
		c.wcall, c.werrno = "sendto", e
		return true
	}
	for c.foff < c.fsize {
		r, err := syscall.Sendfile(int(fd), c.ffd, &c.foff, int(c.fsize-c.foff))
		switch {
		case err == nil && r == 0:
			c.fshort = true
			return true
		case err == nil:
			c.wn += int64(r)
			continue
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return false
		}
		c.wcall, c.werrno = "sendfile", err.(syscall.Errno)
		return true
	}
	return true
}

// opError wraps err as net does for the named operation. An error from the
// RawConn — a deadline, a closed connection — is already an *net.OpError,
// whose Timeout callers read; it keeps that and only loses its "raw-"
// prefix.
func (c *rawTCPConn) opError(op string, err error) error {
	if oe, ok := err.(*net.OpError); ok {
		oe.Op = op
		return oe
	}
	return &net.OpError{Op: op, Net: "tcp", Source: c.LocalAddr(), Addr: c.RemoteAddr(), Err: err}
}

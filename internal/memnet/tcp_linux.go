//go:build linux

package memnet

import (
	"io"
	"net"
	"os"
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
// The read and write callbacks are method values bound once per
// connection and all their state lives in the struct, so a call allocates
// nothing. rmu and wmu guard that state: like net.Conn, the connection
// may be read and written from several goroutines at once.
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
	werrno  syscall.Errno
	iov     [16]syscall.Iovec
	writeFn func(fd uintptr) bool
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
	switch {
	case err != nil:
		return c.wn, c.opError("write", err)
	case c.werrno != 0:
		return c.wn, c.opError("write", os.NewSyscallError("writev", c.werrno))
	}
	return c.wn, nil
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
		c.werrno = e
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

// opError wraps err as net does for the named operation. An error from the
// RawConn — a deadline, a closed connection — is already an *net.OpError,
// whose Timeout the server's keep-alive Peek reads; it keeps that and
// only loses its "raw-" prefix.
func (c *rawTCPConn) opError(op string, err error) error {
	if oe, ok := err.(*net.OpError); ok {
		oe.Op = op
		return oe
	}
	return &net.OpError{Op: op, Net: "tcp", Source: c.LocalAddr(), Addr: c.RemoteAddr(), Err: err}
}

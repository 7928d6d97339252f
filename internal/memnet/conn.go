// Package memnet provides an in-memory transport implementing net.Conn and
// net.Listener so that a whole DCWS server group — the paper ran 64
// workstations on switched Ethernet — can be wired together inside one
// process with no TCP ports, bounded listener backlogs, and optionally
// injected latency for the geographically-distributed scenarios of §1.
package memnet

import (
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by operations on a closed connection or listener.
var ErrClosed = errors.New("memnet: use of closed connection")

// ErrTimeout is returned when a deadline expires. It satisfies
// net.Error with Timeout() == true.
var ErrTimeout net.Error = timeoutError{}

type timeoutError struct{}

func (timeoutError) Error() string   { return "memnet: i/o timeout" }
func (timeoutError) Timeout() bool   { return true }
func (timeoutError) Temporary() bool { return true }

// pipeBuffer is one direction of a connection: a bounded byte queue with
// blocking reads, deadline support, and close semantics.
type pipeBuffer struct {
	mu        sync.Mutex
	cond      *sync.Cond
	buf       []byte
	max       int
	closed    bool      // write side closed: reads drain then EOF
	broken    bool      // hard close: reads and writes fail immediately
	deadline  time.Time // read deadline (set by reader side)
	wDeadline time.Time // write deadline (set by writer side)
}

func newPipeBuffer(max int) *pipeBuffer {
	b := &pipeBuffer{max: max}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *pipeBuffer) write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	total := 0
	for len(p) > 0 {
		if b.closed || b.broken {
			return total, ErrClosed
		}
		if !b.wDeadline.IsZero() && !time.Now().Before(b.wDeadline) {
			return total, ErrTimeout
		}
		space := b.max - len(b.buf)
		if space == 0 {
			b.waitLocked(b.wDeadline)
			continue
		}
		n := len(p)
		if n > space {
			n = space
		}
		b.buf = append(b.buf, p[:n]...)
		p = p[n:]
		total += n
		b.cond.Broadcast()
	}
	return total, nil
}

func (b *pipeBuffer) read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if b.broken {
			return 0, ErrClosed
		}
		if len(b.buf) > 0 {
			n := copy(p, b.buf)
			b.buf = b.buf[n:]
			b.cond.Broadcast()
			return n, nil
		}
		if b.closed {
			return 0, io.EOF
		}
		if !b.deadline.IsZero() && !time.Now().Before(b.deadline) {
			return 0, ErrTimeout
		}
		b.waitLocked(b.deadline)
	}
}

// waitLocked blocks on the condition variable, waking up early if a deadline
// is pending so that deadline expiry is observed promptly.
func (b *pipeBuffer) waitLocked(deadline time.Time) {
	if deadline.IsZero() {
		b.cond.Wait()
		return
	}
	// Poll with a timer: Cond has no timed wait. Spawn a waker.
	done := make(chan struct{})
	go func() {
		d := time.Until(deadline)
		if d > 0 {
			timer := time.NewTimer(d)
			defer timer.Stop()
			select {
			case <-timer.C:
			case <-done:
				return
			}
		}
		b.mu.Lock()
		b.cond.Broadcast()
		b.mu.Unlock()
	}()
	b.cond.Wait()
	close(done)
}

// closeWrite marks the write side closed; pending data remains readable.
func (b *pipeBuffer) closeWrite() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// breakPipe hard-closes the buffer in both directions.
func (b *pipeBuffer) breakPipe() {
	b.mu.Lock()
	b.broken = true
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *pipeBuffer) setReadDeadline(t time.Time) {
	b.mu.Lock()
	b.deadline = t
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *pipeBuffer) setWriteDeadline(t time.Time) {
	b.mu.Lock()
	b.wDeadline = t
	b.cond.Broadcast()
	b.mu.Unlock()
}

// Conn is one endpoint of an in-memory connection.
type Conn struct {
	readBuf     *pipeBuffer // data flowing toward this endpoint
	writeBuf    *pipeBuffer // data flowing away from this endpoint
	local       net.Addr
	remote      net.Addr
	latency     time.Duration
	stall       time.Duration // injected per-write delay (fault fabric)
	resetBudget *int64        // shared byte budget; exhaustion resets the conn
	closeOnce   sync.Once
}

var _ net.Conn = (*Conn)(nil)

// Pipe returns a connected pair of in-memory connections with the given
// per-direction buffer size (64 KiB if bufSize <= 0).
func Pipe(bufSize int) (*Conn, *Conn) {
	return pipeWithAddrs(bufSize, addr("pipe:client"), addr("pipe:server"), 0)
}

func pipeWithAddrs(bufSize int, a, b net.Addr, latency time.Duration) (*Conn, *Conn) {
	if bufSize <= 0 {
		bufSize = 64 * 1024
	}
	ab := newPipeBuffer(bufSize) // a -> b
	ba := newPipeBuffer(bufSize) // b -> a
	ca := &Conn{readBuf: ba, writeBuf: ab, local: a, remote: b, latency: latency}
	cb := &Conn{readBuf: ab, writeBuf: ba, local: b, remote: a, latency: latency}
	return ca, cb
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.readBuf.read(p) }

// Write implements net.Conn. If the connection was created with injected
// latency, the first byte of every Write is delayed by that amount,
// simulating propagation delay on a wide-area link. An injected stall
// delays writes the same way, and an exhausted reset budget hard-closes
// the connection mid-stream (both ends observe a reset).
func (c *Conn) Write(p []byte) (int, error) {
	c.delay()
	return c.write(p)
}

// WriteBuffers writes the buffers of v back to back as one message — the
// in-memory counterpart of writev: injected latency and stalls are charged
// once for the lot, as for a single Write of their concatenation. Unlike
// net.Buffers.WriteTo it leaves v as it found it.
func (c *Conn) WriteBuffers(v *net.Buffers) (int64, error) {
	c.delay()
	var total int64
	for _, p := range *v {
		n, err := c.write(p)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// delay sleeps out the injected propagation latency and stall of one
// message.
func (c *Conn) delay() {
	if c.latency > 0 {
		time.Sleep(c.latency)
	}
	if c.stall > 0 {
		time.Sleep(c.stall)
	}
}

func (c *Conn) write(p []byte) (int, error) {
	if c.resetBudget != nil && atomic.LoadInt64(c.resetBudget) <= 0 {
		c.reset()
		return 0, ErrClosed
	}
	n, err := c.writeBuf.write(p)
	if c.resetBudget != nil && n > 0 {
		if atomic.AddInt64(c.resetBudget, -int64(n)) <= 0 {
			c.reset()
			return n, ErrClosed
		}
	}
	return n, err
}

// reset simulates a mid-stream connection reset: both directions are
// hard-closed, so the peer's reads fail immediately even with buffered
// data pending — exactly what a TCP RST does to an application.
func (c *Conn) reset() {
	c.readBuf.breakPipe()
	c.writeBuf.breakPipe()
}

// isBroken reports whether the connection has been closed or reset (used
// by the fabric to prune its established-connection registry).
func (c *Conn) isBroken() bool {
	c.readBuf.mu.Lock()
	defer c.readBuf.mu.Unlock()
	return c.readBuf.broken
}

// Close implements net.Conn. The peer sees EOF after draining buffered data.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		c.writeBuf.closeWrite()
		c.readBuf.breakPipe()
	})
	return nil
}

// LocalAddr implements net.Conn.
func (c *Conn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *Conn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *Conn) SetDeadline(t time.Time) error {
	c.readBuf.setReadDeadline(t)
	c.writeBuf.setWriteDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.readBuf.setReadDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.writeBuf.setWriteDeadline(t)
	return nil
}

type addr string

func (a addr) Network() string { return "mem" }
func (a addr) String() string  { return string(a) }

package memnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"
)

// tcpConnPair returns the dialed and the accepted end of one loopback
// connection made through TCP, closed when the test ends.
func tcpConnPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	n := TCP{}
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP available: %v", err)
	}
	defer l.Close()
	c, err := n.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	if runtime.GOOS == "linux" {
		for _, conn := range []net.Conn{c, s} {
			if _, ok := conn.(vectorWriter); !ok {
				t.Fatalf("TCP handed out a %T, want the raw data path", conn)
			}
		}
	}
	return c, s
}

// vectorWriter is the vectored-write method the raw path adds.
type vectorWriter interface {
	WriteBuffers(v *net.Buffers) (int64, error)
}

// writeVector writes v as one vectored write where the connection takes
// one, and buffer by buffer where it does not.
func writeVector(c net.Conn, v net.Buffers) (int64, error) {
	if vw, ok := c.(vectorWriter); ok {
		return vw.WriteBuffers(&v)
	}
	return v.WriteTo(c)
}

// setSendBuffer shrinks the kernel's send buffer of c.
func setSendBuffer(t *testing.T, c net.Conn, n int) {
	t.Helper()
	sb, ok := c.(interface{ SetWriteBuffer(int) error })
	if !ok {
		t.Fatalf("%T has no SetWriteBuffer", c)
	}
	if err := sb.SetWriteBuffer(n); err != nil {
		t.Fatal(err)
	}
}

func wantTimeout(t *testing.T, what string, err error) {
	t.Helper()
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: error %v, want a deadline timeout", what, err)
	}
}

func TestTCPRoundTrip(t *testing.T) {
	c, s := tcpConnPair(t)
	if n, err := c.Write([]byte("ping")); n != 4 || err != nil {
		t.Fatalf("Write = %d, %v", n, err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(s, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("server read %q, %v", buf, err)
	}
	// More non-empty buffers than one writev takes, empty ones among
	// them, and bodies far larger than a small send buffer, so that partial
	// writes stop inside one buffer and resume across the next: the vector
	// goes out in order, in several calls, and is left as it was.
	setSendBuffer(t, s, 16<<10)
	var v net.Buffers
	var want []byte
	for i := 0; i < 40; i++ {
		b := bytes.Repeat([]byte{byte('a' + i%26)}, i%3)
		v = append(v, b)
		want = append(want, b...)
	}
	big := patternBytes(2 << 20)
	v = append(v, big[:700001], big[700001:1400003], big[1400003:])
	want = append(want, big...)
	kept := append(net.Buffers(nil), v...)
	got := make(chan []byte, 1)
	go func() {
		time.Sleep(20 * time.Millisecond) // let the writer fill the buffers first
		b := make([]byte, len(want))
		io.ReadFull(c, b)
		got <- b
	}()
	n, err := writeVector(s, v)
	if err != nil || n != int64(len(want)) {
		t.Fatalf("vectored write = %d, %v; want %d, nil", n, err, len(want))
	}
	if !bytes.Equal(<-got, want) {
		t.Fatal("vectored bytes arrived garbled")
	}
	for i := range v {
		if len(v[i]) != len(kept[i]) {
			t.Fatalf("vector element %d changed length %d -> %d", i, len(kept[i]), len(v[i]))
		}
	}
}

func patternBytes(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7 + i>>9)
	}
	return b
}

func TestTCPReadDeadline(t *testing.T) {
	c, _ := tcpConnPair(t)
	c.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	_, err := c.Read(make([]byte, 1))
	wantTimeout(t, "Read", err)
}

// TestTCPWriteDeadlineCountsExactly: a write to a peer that does not read
// stops at its deadline with a timeout, and the count it returns is
// exactly what the peer then receives.
func TestTCPWriteDeadlineCountsExactly(t *testing.T) {
	for _, vectored := range []bool{false, true} {
		c, s := tcpConnPair(t)
		setSendBuffer(t, c, 16<<10)
		payload := patternBytes(8 << 20)
		c.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
		var n int64
		var err error
		if vectored {
			n, err = writeVector(c, net.Buffers{payload[:100], payload[100:]})
		} else {
			var m int
			m, err = c.Write(payload)
			n = int64(m)
		}
		wantTimeout(t, "write", err)
		if n <= 0 || n >= int64(len(payload)) {
			t.Fatalf("vectored=%v: wrote %d of %d bytes before the deadline", vectored, n, len(payload))
		}
		c.Close()
		got, err := io.ReadAll(s)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(got)) != n || !bytes.Equal(got, payload[:n]) {
			t.Fatalf("vectored=%v: writer counted %d bytes, peer received %d", vectored, n, len(got))
		}
	}
}

func TestTCPEOFAfterPeerClose(t *testing.T) {
	c, s := tcpConnPair(t)
	s.Write([]byte("bye"))
	s.Close()
	buf := make([]byte, 8)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "bye" {
		t.Fatalf("Read = %q, %v", buf[:n], err)
	}
	if n, err := c.Read(buf); n != 0 || err != io.EOF {
		t.Fatalf("Read after peer close = %d, %v; want 0, io.EOF", n, err)
	}
}

// TestTCPResetPeer: a peer that closes with linger 0 sends RST; the read
// fails with the reset, it does not hang or report EOF.
func TestTCPResetPeer(t *testing.T) {
	c, s := tcpConnPair(t)
	if err := s.(interface{ SetLinger(int) error }).SetLinger(0); err != nil {
		t.Fatal(err)
	}
	s.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err := c.Read(make([]byte, 1))
	var oe *net.OpError
	if !errors.As(err, &oe) || !errors.Is(err, syscall.ECONNRESET) {
		t.Fatalf("Read from a reset peer = %v, want a connection-reset *net.OpError", err)
	}
}

func TestTCPCloseUnblocksRead(t *testing.T) {
	c, _ := tcpConnPair(t)
	errc := make(chan error, 1)
	go func() {
		_, err := c.Read(make([]byte, 1))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the read park in the poller
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("pending Read after Close = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock a pending Read")
	}
}

// TestTCPDataPathAllocatesNothing: once warm, Read, Write and
// WriteBuffers allocate nothing per call.
func TestTCPDataPathAllocatesNothing(t *testing.T) {
	c, s := tcpConnPair(t)
	msg := []byte("GET /index.html HTTP/1.0\r\n\r\n")
	v := net.Buffers{msg[:10], msg[10:]}
	buf := make([]byte, len(msg))
	vw, vectored := s.(vectorWriter)
	roundTrip := func() {
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(s, buf); err != nil {
			t.Fatal(err)
		}
		if vectored {
			if _, err := vw.WriteBuffers(&v); err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("%v allocations per Write+Read+WriteBuffers+Read, want 0", allocs)
	}
}

package memnet

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
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
	if runtime.GOOS == "linux" && runtime.GOARCH != "386" {
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

// fileSender is the file-body method the raw path adds.
type fileSender interface {
	SendFile(head []byte, f *os.File, n int64) (int64, error)
}

// sendFileConn returns c as a fileSender, or skips the test where the
// platform's connections have no SendFile.
func sendFileConn(t *testing.T, c net.Conn) fileSender {
	t.Helper()
	fs, ok := c.(fileSender)
	if !ok {
		t.Skipf("%T has no SendFile on this platform", c)
	}
	return fs
}

// bodyFile writes data to a fresh file and returns it opened for reading,
// closed when the test ends.
func bodyFile(t *testing.T, data []byte) *os.File {
	t.Helper()
	name := filepath.Join(t.TempDir(), "body")
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

var sendFileHead = []byte("HTTP/1.0 200 OK\r\nContent-Length: 2097152\r\n\r\n")

// TestTCPSendFile: head and a 2 MB file body pushed through a 16 KiB send
// buffer to a reader that starts late arrive whole and in order, the count
// is exact, and the file's own offset is left where it was.
func TestTCPSendFile(t *testing.T) {
	c, s := tcpConnPair(t)
	fs := sendFileConn(t, s)
	setSendBuffer(t, s, 16<<10)
	body := patternBytes(2 << 20)
	f := bodyFile(t, body)
	want := append(append([]byte(nil), sendFileHead...), body...)
	got := make(chan []byte, 1)
	go func() {
		time.Sleep(20 * time.Millisecond) // let the sender fill the buffers first
		b := make([]byte, len(want))
		io.ReadFull(c, b)
		got <- b
	}()
	s.SetWriteDeadline(time.Now().Add(10 * time.Second))
	n, err := fs.SendFile(sendFileHead, f, int64(len(body)))
	if err != nil || n != int64(len(want)) {
		t.Fatalf("SendFile = %d, %v; want %d, nil", n, err, len(want))
	}
	if !bytes.Equal(<-got, want) {
		t.Fatal("head and file body arrived garbled")
	}
	if pos, err := f.Seek(0, io.SeekCurrent); err != nil || pos != 0 {
		t.Fatalf("file offset after SendFile = %d, %v; want 0", pos, err)
	}
}

// TestTCPSendFileEmptyBody: a head with no body is not held back for body
// bytes that will never come.
func TestTCPSendFileEmptyBody(t *testing.T) {
	c, s := tcpConnPair(t)
	fs := sendFileConn(t, s)
	if n, err := fs.SendFile(sendFileHead, bodyFile(t, nil), 0); err != nil || n != int64(len(sendFileHead)) {
		t.Fatalf("SendFile = %d, %v", n, err)
	}
	c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	b := make([]byte, len(sendFileHead))
	if _, err := io.ReadFull(c, b); err != nil || !bytes.Equal(b, sendFileHead) {
		t.Fatalf("head read %q, %v", b, err)
	}
}

// TestTCPSendFileWriteDeadline: a file sent to a peer that does not read
// stops at the deadline with a timeout, and the count is exactly what the
// peer then receives.
func TestTCPSendFileWriteDeadline(t *testing.T) {
	c, s := tcpConnPair(t)
	fs := sendFileConn(t, c)
	setSendBuffer(t, c, 16<<10)
	body := patternBytes(8 << 20)
	c.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	n, err := fs.SendFile(sendFileHead, bodyFile(t, body), int64(len(body)))
	wantTimeout(t, "SendFile", err)
	if n <= int64(len(sendFileHead)) || n >= int64(len(sendFileHead)+len(body)) {
		t.Fatalf("sent %d bytes before the deadline", n)
	}
	c.Close()
	got, err := io.ReadAll(s)
	if err != nil {
		t.Fatal(err)
	}
	want := append(append([]byte(nil), sendFileHead...), body...)[:n]
	if int64(len(got)) != n || !bytes.Equal(got, want) {
		t.Fatalf("sender counted %d bytes, peer received %d", n, len(got))
	}
}

// TestTCPSendFileShortFile: a file holding fewer bytes than promised fails
// the call once its bytes are sent; it neither pads the body nor waits.
func TestTCPSendFileShortFile(t *testing.T) {
	c, s := tcpConnPair(t)
	fs := sendFileConn(t, s)
	go io.Copy(io.Discard, c) // until tcpConnPair's cleanup closes c
	body := patternBytes(100 << 10)
	s.SetWriteDeadline(time.Now().Add(10 * time.Second))
	n, err := fs.SendFile(sendFileHead, bodyFile(t, body), 2*int64(len(body)))
	if !errors.Is(err, errShortFile) {
		t.Fatalf("SendFile of a short file = %v, want errShortFile", err)
	}
	if want := int64(len(sendFileHead) + len(body)); n != want {
		t.Fatalf("sent %d bytes, want the %d the file held", n, want)
	}
}

// TestTCPCloseUnblocksSendFile: Close from another goroutine ends a
// SendFile waiting on a peer that does not read.
func TestTCPCloseUnblocksSendFile(t *testing.T) {
	c, _ := tcpConnPair(t)
	fs := sendFileConn(t, c)
	setSendBuffer(t, c, 16<<10)
	body := patternBytes(8 << 20)
	f := bodyFile(t, body)
	errc := make(chan error, 1)
	go func() {
		_, err := fs.SendFile(sendFileHead, f, int64(len(body)))
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the send park in the poller
	c.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("pending SendFile after Close = %v, want net.ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not unblock a pending SendFile")
	}
}

// TestTCPSendFileAllocatesNothing: once warm, SendFile allocates nothing
// per call.
func TestTCPSendFileAllocatesNothing(t *testing.T) {
	c, s := tcpConnPair(t)
	fs := sendFileConn(t, s)
	body := patternBytes(4 << 10)
	f := bodyFile(t, body)
	buf := make([]byte, len(sendFileHead)+len(body))
	roundTrip := func() {
		if _, err := fs.SendFile(sendFileHead, f, int64(len(body))); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(c, buf); err != nil {
			t.Fatal(err)
		}
	}
	roundTrip()
	if allocs := testing.AllocsPerRun(200, roundTrip); allocs != 0 {
		t.Fatalf("%v allocations per SendFile+Read, want 0", allocs)
	}
}

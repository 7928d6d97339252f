package memnet

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestPipeRoundTrip(t *testing.T) {
	a, b := Pipe(0)
	defer a.Close()
	defer b.Close()
	msg := []byte("GET / HTTP/1.0\r\n\r\n")
	go func() {
		if _, err := a.Write(msg); err != nil {
			t.Errorf("write: %v", err)
		}
	}()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatalf("read: %v", err)
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("got %q, want %q", buf, msg)
	}
}

func TestPipeLargeTransferExceedsBuffer(t *testing.T) {
	a, b := Pipe(1024)
	defer a.Close()
	defer b.Close()
	payload := bytes.Repeat([]byte("x"), 100*1024)
	go func() {
		a.Write(payload)
		a.Close()
	}()
	got, err := io.ReadAll(b)
	if err != nil {
		t.Fatalf("ReadAll: %v", err)
	}
	if len(got) != len(payload) {
		t.Fatalf("read %d bytes, want %d", len(got), len(payload))
	}
}

func TestCloseGivesEOFAfterDrain(t *testing.T) {
	a, b := Pipe(0)
	a.Write([]byte("tail"))
	a.Close()
	buf := make([]byte, 16)
	n, err := b.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("Read = %q, %v; want tail, nil", buf[:n], err)
	}
	if _, err := b.Read(buf); err != io.EOF {
		t.Fatalf("Read after drain = %v, want EOF", err)
	}
}

func TestWriteToClosedPeerFails(t *testing.T) {
	a, b := Pipe(0)
	b.Close()
	// b hard-closed its read side, so a's writes must eventually fail.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := a.Write([]byte("x")); err != nil {
			return
		}
	}
	t.Fatal("writes to a closed peer never failed")
}

func TestReadDeadline(t *testing.T) {
	a, b := Pipe(0)
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	buf := make([]byte, 1)
	_, err := b.Read(buf)
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("Read error = %v, want timeout net.Error", err)
	}
}

func TestWriteDeadlineOnFullBuffer(t *testing.T) {
	a, b := Pipe(8)
	defer a.Close()
	defer b.Close()
	a.SetWriteDeadline(time.Now().Add(20 * time.Millisecond))
	_, err := a.Write(bytes.Repeat([]byte("x"), 64)) // exceeds buffer, no reader
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("Write error = %v, want timeout net.Error", err)
	}
}

func TestDeadlineClearedAllowsRead(t *testing.T) {
	a, b := Pipe(0)
	defer a.Close()
	defer b.Close()
	b.SetReadDeadline(time.Now().Add(-time.Second))
	if _, err := b.Read(make([]byte, 1)); err == nil {
		t.Fatal("expired deadline should fail reads")
	}
	b.SetReadDeadline(time.Time{})
	go a.Write([]byte("k"))
	buf := make([]byte, 1)
	if _, err := io.ReadFull(b, buf); err != nil {
		t.Fatalf("read after clearing deadline: %v", err)
	}
}

func TestFabricListenDial(t *testing.T) {
	f := NewFabric()
	l, err := f.Listen("home:80")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	done := make(chan string, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			done <- "accept: " + err.Error()
			return
		}
		defer c.Close()
		buf := make([]byte, 5)
		io.ReadFull(c, buf)
		c.Write([]byte("pong!"))
		done <- string(buf)
	}()
	c, err := f.Dial("home:80")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("ping!"))
	reply := make([]byte, 5)
	if _, err := io.ReadFull(c, reply); err != nil {
		t.Fatalf("client read: %v", err)
	}
	if got := <-done; got != "ping!" {
		t.Fatalf("server saw %q", got)
	}
	if string(reply) != "pong!" {
		t.Fatalf("client saw %q", reply)
	}
}

func TestFabricDialUnknownRefused(t *testing.T) {
	f := NewFabric()
	if _, err := f.Dial("nowhere:80"); err == nil {
		t.Fatal("Dial to unregistered address should fail")
	}
}

func TestFabricDuplicateListen(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("a")
	defer l.Close()
	if _, err := f.Listen("a"); err == nil {
		t.Fatal("duplicate Listen should fail")
	}
}

func TestFabricListenerCloseFreesAddress(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("a")
	l.Close()
	if _, err := f.Listen("a"); err != nil {
		t.Fatalf("re-Listen after Close: %v", err)
	}
}

func TestFabricDialAfterCloseRefused(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("a")
	l.Close()
	if _, err := f.Dial("a"); err == nil {
		t.Fatal("Dial after listener close should fail")
	}
}

func TestFabricBacklogFullRefusesConnection(t *testing.T) {
	f := NewFabric()
	f.SetBacklog(2)
	l, _ := f.Listen("busy")
	defer l.Close()
	// Fill the backlog without accepting.
	if _, err := f.Dial("busy"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Dial("busy"); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Dial("busy"); err == nil {
		t.Fatal("third dial should be refused with backlog 2")
	}
	// Accept one, freeing a slot.
	if _, err := l.Accept(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Dial("busy"); err != nil {
		t.Fatalf("dial after accept should succeed: %v", err)
	}
}

func TestFabricConcurrentClients(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("srv")
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				io.Copy(c, c) // echo
			}(c)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := f.Dial("srv")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer c.Close()
			msg := strings.Repeat("m", i+1)
			c.Write([]byte(msg))
			buf := make([]byte, len(msg))
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Errorf("read: %v", err)
			}
		}(i)
	}
	wg.Wait()
}

func TestFabricLatencyInjection(t *testing.T) {
	f := NewFabric()
	f.SetLatency("east", "west", 30*time.Millisecond)
	l, _ := f.Listen("west")
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		defer c.Close()
		buf := make([]byte, 1)
		io.ReadFull(c, buf)
		c.Write([]byte("y"))
	}()
	start := time.Now()
	c, err := f.DialFrom("east", "west")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Write([]byte("x"))
	buf := make([]byte, 1)
	io.ReadFull(c, buf)
	if rtt := time.Since(start); rtt < 30*time.Millisecond {
		t.Fatalf("round trip %v, want >= 30ms one-way latency applied", rtt)
	}
}

func TestFabricDefaultLatency(t *testing.T) {
	f := NewFabric()
	f.SetDefaultLatency(20 * time.Millisecond)
	l, _ := f.Listen("srv")
	defer l.Close()
	go func() {
		c, _ := l.Accept()
		defer c.Close()
		io.Copy(c, c)
	}()
	c, err := f.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	c.Write([]byte("x"))
	io.ReadFull(c, make([]byte, 1))
	if e := time.Since(start); e < 20*time.Millisecond {
		t.Fatalf("default latency not applied: %v", e)
	}
}

// TestWriteBuffersIsOneMessage: a vectored write delivers its buffers in
// order, leaves the vector intact, and pays the injected latency once —
// two separate Writes pay it twice.
func TestWriteBuffersIsOneMessage(t *testing.T) {
	const latency = 80 * time.Millisecond
	a, b := pipeWithAddrs(0, addr("a"), addr("b"), latency)
	defer a.Close()
	defer b.Close()
	v := net.Buffers{[]byte("head|"), []byte("body")}
	start := time.Now()
	n, err := a.WriteBuffers(&v)
	elapsed := time.Since(start)
	if err != nil || n != 9 {
		t.Fatalf("WriteBuffers = %d, %v", n, err)
	}
	if elapsed < latency || elapsed >= 2*latency {
		t.Errorf("vectored write took %v, want one %v latency charge", elapsed, latency)
	}
	if len(v) != 2 || string(v[0]) != "head|" || string(v[1]) != "body" {
		t.Errorf("vector modified: %q", v)
	}
	got := make([]byte, 9)
	if _, err := io.ReadFull(b, got); err != nil || string(got) != "head|body" {
		t.Fatalf("peer read %q, %v", got, err)
	}
}

func TestAddrStrings(t *testing.T) {
	f := NewFabric()
	l, _ := f.Listen("host:99")
	defer l.Close()
	if l.Addr().String() != "host:99" || l.Addr().Network() != "mem" {
		t.Fatalf("listener addr = %v/%v", l.Addr().Network(), l.Addr())
	}
	c, _ := f.Dial("host:99")
	defer c.Close()
	if c.RemoteAddr().String() != "host:99" {
		t.Fatalf("remote addr = %v", c.RemoteAddr())
	}
}

func TestTCPNetwork(t *testing.T) {
	n := TCP{}
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP available: %v", err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		c.Write([]byte("hi"))
		c.Close()
	}()
	c, err := n.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil || string(buf) != "hi" {
		t.Fatalf("got %q, %v", buf, err)
	}
}

// Property: bytes written on one end of a fabric connection arrive intact
// and in order on the other, across arbitrary chunkings that straddle the
// internal buffer.
func TestFabricDataIntegrityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		payload := make([]byte, 1+rng.Intn(200*1024))
		rng.Read(payload)
		a, b := Pipe(4096) // small buffer forces many refills
		go func() {
			rest := payload
			for len(rest) > 0 {
				n := 1 + rng.Intn(len(rest))
				if _, err := a.Write(rest[:n]); err != nil {
					return
				}
				rest = rest[n:]
			}
			a.Close()
		}()
		got, err := io.ReadAll(b)
		b.Close()
		return err == nil && bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"dcws/internal/memnet"
)

// wireBodySizes straddles every boundary the serializer ever had: no body,
// a trivial one, a typical document, both sides of the retired 32 KB
// copy-or-second-write rule, and a body far larger than any socket buffer.
var wireBodySizes = []int{0, 1, 4 << 10, 32 << 10, 32<<10 + 1, 2 << 20}

func patternBody(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*31 + i>>8)
	}
	return b
}

func wireResponse(n int) *Response {
	resp := NewResponse(200)
	resp.Header.Set("Content-Type", "text/html")
	resp.Header.Set("X-DCWS-Load", "home:80=12.5@1000")
	resp.Header.Add("X-Multi", "a")
	resp.Header.Add("X-Multi", "b")
	resp.Body = patternBody(n)
	return resp
}

// referenceWire renders a response independently of the serializer under
// test: status line, fields in key order, the synthesized Content-Length,
// blank line, body. These are the bytes every earlier version put on the
// wire, whichever write strategy carried them.
func referenceWire(resp *Response) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "HTTP/1.0 %d %s\r\n", resp.Status, StatusText(resp.Status))
	keys := make([]string, 0, len(resp.Header))
	for k := range resp.Header {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		for _, v := range resp.Header[k] {
			fmt.Fprintf(&b, "%s: %s\r\n", k, v)
		}
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(resp.Body))
	b.Write(resp.Body)
	return b.Bytes()
}

// tcpPair returns the two ends of a loopback TCP connection made through
// memnet.TCP, so both carry the data path production connections do.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	n := memnet.TCP{}
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP: %v", err)
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
	return c, s
}

// memPair returns the two ends of an in-memory connection.
func memPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	fabric := memnet.NewFabric()
	l, err := fabric.Listen("srv:80")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c, err := fabric.Dial("srv:80")
	if err != nil {
		t.Fatal(err)
	}
	s, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

// callCounter counts how a message reaches a countingConn: plain writes
// versus passes through the vectored-write forwarder.
type callCounter struct {
	*countingConn
	writes, vectored int
}

func (c *callCounter) Write(p []byte) (int, error) {
	c.writes++
	return c.countingConn.Write(p)
}

func (c *callCounter) WriteBuffers(v *net.Buffers) (int64, error) {
	c.vectored++
	return c.countingConn.WriteBuffers(v)
}

// readAfter reads exactly n bytes from r, starting only after delay so the
// writer runs into a full socket buffer first.
func readAfter(r io.Reader, n int, delay time.Duration) <-chan []byte {
	out := make(chan []byte, 1)
	go func() {
		time.Sleep(delay)
		buf := make([]byte, n)
		m, _ := io.ReadFull(r, buf)
		out <- buf[:m]
	}()
	return out
}

// TestWriteResponseWire checks, for every body size and every kind of
// writer, that the bytes on the wire are the reference serialization, that
// the byte count feeding Observer.Request is exact, and that a TCP
// connection behind the counting wrapper receives the whole message in one
// vectored write call — however many writev system calls the runtime needs
// underneath to push it through a small send buffer to a slow reader.
func TestWriteResponseWire(t *testing.T) {
	for _, n := range wireBodySizes {
		resp := wireResponse(n)
		want := referenceWire(resp)

		t.Run(fmt.Sprintf("tcp/%d", n), func(t *testing.T) {
			cli, srv := tcpPair(t)
			// A send buffer far smaller than the large bodies, and a reader
			// that starts late: the vectored write is partial and must be
			// continued.
			if err := srv.(interface{ SetWriteBuffer(int) error }).SetWriteBuffer(16 << 10); err != nil {
				t.Fatal(err)
			}
			got := readAfter(cli, len(want), 20*time.Millisecond)
			cc := &callCounter{countingConn: &countingConn{Conn: srv}}
			srv.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := WriteResponse(cc, resp); err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				if cc.writes != 1 || cc.vectored != 0 {
					t.Errorf("bodyless message: %d writes, %d vectored writes, want one plain write", cc.writes, cc.vectored)
				}
			} else if cc.writes != 0 || cc.vectored != 1 {
				t.Errorf("%d writes, %d vectored writes, want exactly one vectored write", cc.writes, cc.vectored)
			}
			if out := cc.out.Load(); out != int64(len(want)) {
				t.Errorf("counted %d bytes out, want %d", out, len(want))
			}
			if !bytes.Equal(<-got, want) {
				t.Error("bytes on the wire differ from the reference serialization")
			}
		})

		t.Run(fmt.Sprintf("memnet/%d", n), func(t *testing.T) {
			cli, srv := memPair(t)
			got := readAfter(cli, len(want), 0)
			cc := &countingConn{Conn: srv}
			if err := WriteResponse(cc, resp); err != nil {
				t.Fatal(err)
			}
			if out := cc.out.Load(); out != int64(len(want)) {
				t.Errorf("counted %d bytes out, want %d", out, len(want))
			}
			if !bytes.Equal(<-got, want) {
				t.Error("bytes on the wire differ from the reference serialization")
			}
		})

		t.Run(fmt.Sprintf("buffer/%d", n), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteResponse(&buf, resp); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Error("serialized bytes differ from the reference serialization")
			}
		})
	}
}

// TestWriteRequestVectored: RPC bodies (replicate pushes, updates) take the
// same path as response bodies.
func TestWriteRequestVectored(t *testing.T) {
	cli, srv := tcpPair(t)
	req := NewRequest("POST", "/~dcws/update")
	req.Header.Set("X-DCWS-Doc", "/a.html")
	req.Body = patternBody(1 << 20)
	want := []byte("POST /~dcws/update HTTP/1.0\r\nX-Dcws-Doc: /a.html\r\nContent-Length: 1048576\r\n\r\n")
	want = append(want, req.Body...)
	got := readAfter(srv, len(want), 0)
	cc := &callCounter{countingConn: &countingConn{Conn: cli}}
	if err := WriteRequest(cc, req); err != nil {
		t.Fatal(err)
	}
	if cc.writes != 0 || cc.vectored != 1 {
		t.Errorf("%d writes, %d vectored writes, want exactly one vectored write", cc.writes, cc.vectored)
	}
	if !bytes.Equal(<-got, want) {
		t.Error("request bytes on the wire differ from the expected serialization")
	}
}

// TestWriteFrameOneWrite: a frame's header and payload leave in one
// vectored write, and read back as the frame that was written.
func TestWriteFrameOneWrite(t *testing.T) {
	cli, srv := tcpPair(t)
	cc := &callCounter{countingConn: &countingConn{Conn: cli}}
	payload := patternBody(64 << 10)
	if err := WriteFrame(cc, 2, payload); err != nil {
		t.Fatal(err)
	}
	if cc.writes != 0 || cc.vectored != 1 {
		t.Errorf("%d writes, %d vectored writes, want exactly one vectored write", cc.writes, cc.vectored)
	}
	typ, got, err := ReadFrame(bufio.NewReader(srv))
	if err != nil || typ != 2 || !bytes.Equal(got, payload) {
		t.Fatalf("read back type %d, %d bytes, %v; want type 2 and the payload", typ, len(got), err)
	}
}

// TestWriteResponsePastDeadlineFails: a write deadline that has already
// expired fails the call on the vectored path as it does on plain writes.
func TestWriteResponsePastDeadlineFails(t *testing.T) {
	resp := wireResponse(4 << 10)
	_, tcp := tcpPair(t)
	_, mem := memPair(t)
	for name, conn := range map[string]net.Conn{"tcp": tcp, "memnet": mem} {
		conn.SetWriteDeadline(time.Now().Add(-time.Second))
		err := WriteResponse(&countingConn{Conn: conn}, resp)
		if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
			t.Errorf("%s: WriteResponse past its deadline returned %v, want a timeout", name, err)
		}
	}
}

// byteObserver records the bytesOut figure of every completed exchange.
type byteObserver struct {
	out chan int64
}

func (byteObserver) ConnQueued()             {}
func (byteObserver) ConnDropped()            {}
func (byteObserver) QueueWait(time.Duration) {}
func (o byteObserver) Request(status int, bytesIn, bytesOut int64, d time.Duration) {
	o.out <- bytesOut
}

// TestObserverCountsVectoredBytes drives a real server over loopback TCP
// and checks that Observer.Request reports exactly the bytes the client
// received, for every body size, with the body in memory (/b/<size>) and
// in a file (/f/<size>), and that the server has closed the file by the
// time the client has the response.
func TestObserverCountsVectoredBytes(t *testing.T) {
	l, err := memnet.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP: %v", err)
	}
	obs := byteObserver{out: make(chan int64, 1)}
	files := make(chan *os.File, 1)
	srv := NewServer(ServerConfig{Observer: obs}, HandlerFunc(func(req *Request) *Response {
		n, _ := strconv.Atoi(req.Path[3:])
		if strings.HasPrefix(req.Path, "/f/") {
			resp := fileResponse(t, n)
			files <- resp.File
			return resp
		}
		return wireResponse(n)
	}))
	go srv.Serve(l)
	defer srv.Close()
	for _, path := range []string{"/b/", "/f/"} {
		for _, n := range wireBodySizes {
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(conn, "GET %s%d HTTP/1.0\r\n\r\n", path, n)
			raw, err := io.ReadAll(conn)
			conn.Close()
			if err != nil {
				t.Fatal(err)
			}
			resp := wireResponse(n)
			resp.Header.Set("Connection", "close")
			if want := referenceWire(resp); !bytes.Equal(raw, want) {
				t.Errorf("%s%d: received %d bytes, want the %d of the reference serialization", path, n, len(raw), len(want))
			}
			if out := <-obs.out; out != int64(len(raw)) {
				t.Errorf("%s%d: observer saw %d bytes out, client received %d", path, n, out, len(raw))
			}
			if path == "/f/" {
				if _, err := (<-files).Stat(); !errors.Is(err, os.ErrClosed) {
					t.Errorf("%s%d: body file still open after the response (Stat: %v)", path, n, err)
				}
			}
		}
	}
}

// TestServerClosesFileOfAbortedResponse: a client that resets the
// connection before a file body is sent makes the write fail, and the
// server closes the file anyway.
func TestServerClosesFileOfAbortedResponse(t *testing.T) {
	l, err := memnet.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP: %v", err)
	}
	files := make(chan *os.File, 1)
	srv := NewServer(ServerConfig{}, HandlerFunc(func(req *Request) *Response {
		resp := fileResponse(t, 32<<20)
		files <- resp.File
		return resp
	}))
	go srv.Serve(l)
	defer srv.Close()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(conn, "GET /big HTTP/1.0\r\n\r\n")
	f := <-files
	if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	conn.(*net.TCPConn).SetLinger(0)
	conn.Close()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := f.Stat(); errors.Is(err, os.ErrClosed) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the server never closed the body file of a response the client cut off")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// fileResponse is wireResponse(n) with its body in a file.
func fileResponse(t *testing.T, n int) *Response {
	resp := wireResponse(n)
	name := filepath.Join(t.TempDir(), "body")
	if err := os.WriteFile(name, resp.Body, 0o644); err != nil {
		t.Error(err)
	}
	f, err := os.Open(name)
	if err != nil {
		t.Error(err)
	}
	resp.Body, resp.File, resp.FileSize = nil, f, int64(n)
	return resp
}

// messageCounter counts the messages handed to the connection it wraps:
// plain writes and vectored writes.
type messageCounter struct {
	net.Conn
	messages int
}

func (c *messageCounter) Write(p []byte) (int, error) {
	c.messages++
	return c.Conn.Write(p)
}

func (c *messageCounter) WriteBuffers(v *net.Buffers) (int64, error) {
	c.messages++
	return writeBuffers(c.Conn, v)
}

// fileMessageCounter also counts SendFile calls, which it hands to the
// wrapped connection's own SendFile.
type fileMessageCounter struct{ *messageCounter }

func (c fileMessageCounter) SendFile(head []byte, f *os.File, n int64) (int64, error) {
	c.messages++
	return c.Conn.(fileSender).SendFile(head, f, n)
}

// TestWriteResponseFileBody: a file body puts on the wire exactly the
// bytes of the same response with the body in memory — over a raw TCP
// connection (one SendFile call where the platform has one), over memnet
// (one message, so injected latency is charged once) and into a
// bytes.Buffer — and the byte count feeding Observer.Request is exact.
func TestWriteResponseFileBody(t *testing.T) {
	for _, n := range wireBodySizes {
		want := referenceWire(wireResponse(n))

		t.Run(fmt.Sprintf("tcp/%d", n), func(t *testing.T) {
			cli, srv := tcpPair(t)
			if err := srv.(interface{ SetWriteBuffer(int) error }).SetWriteBuffer(16 << 10); err != nil {
				t.Fatal(err)
			}
			got := readAfter(cli, len(want), 20*time.Millisecond)
			mc := &messageCounter{Conn: srv}
			var conn net.Conn = mc
			if _, ok := srv.(fileSender); ok {
				conn = fileMessageCounter{mc}
			}
			cc := &countingConn{Conn: conn}
			srv.SetWriteDeadline(time.Now().Add(10 * time.Second))
			if err := WriteResponse(cc, fileResponse(t, n)); err != nil {
				t.Fatal(err)
			}
			if mc.messages != 1 {
				t.Errorf("%d calls reached the connection, want one", mc.messages)
			}
			if out := cc.out.Load(); out != int64(len(want)) {
				t.Errorf("counted %d bytes out, want %d", out, len(want))
			}
			if !bytes.Equal(<-got, want) {
				t.Error("bytes on the wire differ from the byte-body serialization")
			}
		})

		t.Run(fmt.Sprintf("memnet/%d", n), func(t *testing.T) {
			cli, srv := memPair(t)
			got := readAfter(cli, len(want), 0)
			mc := &messageCounter{Conn: srv}
			cc := &countingConn{Conn: mc}
			if err := WriteResponse(cc, fileResponse(t, n)); err != nil {
				t.Fatal(err)
			}
			if mc.messages != 1 {
				t.Errorf("%d messages, want one", mc.messages)
			}
			if out := cc.out.Load(); out != int64(len(want)) {
				t.Errorf("counted %d bytes out, want %d", out, len(want))
			}
			if !bytes.Equal(<-got, want) {
				t.Error("bytes on the wire differ from the byte-body serialization")
			}
		})

		t.Run(fmt.Sprintf("buffer/%d", n), func(t *testing.T) {
			var buf bytes.Buffer
			if err := WriteResponse(&buf, fileResponse(t, n)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Error("serialized bytes differ from the byte-body serialization")
			}
		})
	}
}

// TestWriteResponseShortFileFails: a file that holds fewer bytes than its
// FileSize fails the write on every writer; the body is never padded.
func TestWriteResponseShortFileFails(t *testing.T) {
	tcpCli, tcp := tcpPair(t)
	memCli, mem := memPair(t)
	go io.Copy(io.Discard, tcpCli) // until the pairs' cleanup closes them
	go io.Copy(io.Discard, memCli)
	tcp.SetWriteDeadline(time.Now().Add(10 * time.Second))
	writers := map[string]io.Writer{
		"tcp":    &countingConn{Conn: tcp},
		"memnet": &countingConn{Conn: mem},
		"buffer": new(bytes.Buffer),
	}
	for name, w := range writers {
		resp := fileResponse(t, 4<<10)
		resp.FileSize *= 2
		if err := WriteResponse(w, resp); err == nil {
			t.Errorf("%s: a file shorter than its FileSize was written without error", name)
		}
		resp.File.Close()
	}
}

// TestWriteResponseAllocsIndependentOfBody: serializing a response costs
// the same number of allocations, and the same number of allocated bytes,
// whether its body is 4 KiB or 1 MiB — on a plain writer and through the
// vectored TCP path alike. The body is never copied.
func TestWriteResponseAllocsIndependentOfBody(t *testing.T) {
	cli, srv := tcpPair(t)
	go io.Copy(io.Discard, cli) // until tcpPair's cleanup closes cli
	writers := map[string]io.Writer{
		"discard": io.Discard,
		"tcp":     &countingConn{Conn: srv},
	}
	for name, w := range writers {
		const runs = 50
		measure := func(n int) (allocs float64, bytesPerRun uint64) {
			resp := wireResponse(n)
			WriteResponse(w, resp) // warm the pool and the connection's iovec cache
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			allocs = testing.AllocsPerRun(runs, func() {
				if err := WriteResponse(w, resp); err != nil {
					t.Fatal(err)
				}
			})
			runtime.ReadMemStats(&after)
			return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		}
		smallAllocs, smallBytes := measure(4 << 10)
		largeAllocs, largeBytes := measure(1 << 20)
		if smallAllocs != largeAllocs && !raceEnabled {
			t.Errorf("%s: %v allocations for a 4 KiB body, %v for a 1 MiB body", name, smallAllocs, largeAllocs)
		}
		// A copied body would show as at least 1 MiB per run; leave room
		// for a pool refill after a collection.
		if largeBytes > smallBytes+4096 {
			t.Errorf("%s: %d bytes allocated per 1 MiB response, %d per 4 KiB response", name, largeBytes, smallBytes)
		}
	}
}

// TestPooledHeadKeepsGrowth: the buffer that goes back to the pool is the
// one the head was serialized into, growth included — not the slice as it
// was before growing, which left the pool cold forever.
func TestPooledHeadKeepsGrowth(t *testing.T) {
	resp := NewResponse(200)
	resp.Header.Set("X-Wide", string(bytes.Repeat([]byte{'x'}, 2048)))
	// The pool is per-P and the race detector makes it drop items at
	// random, so give the round trip a few chances.
	for i := 0; i < 32; i++ {
		if err := WriteResponse(io.Discard, resp); err != nil {
			t.Fatal(err)
		}
		wb := wireBufPool.Get().(*wireBuf)
		grown := cap(wb.head) >= 2048
		putWireBuf(wb)
		if grown {
			return
		}
	}
	t.Fatal("the pool never handed back a head buffer that kept its growth")
}

// TestOversizedHeadNotPooled: a head grown past maxPooledHead is dropped
// rather than pinned in the pool.
func TestOversizedHeadNotPooled(t *testing.T) {
	resp := NewResponse(200)
	resp.Header.Set("X-Big", string(bytes.Repeat([]byte{'x'}, 2*maxPooledHead)))
	if err := WriteResponse(io.Discard, resp); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		wb := wireBufPool.Get().(*wireBuf)
		if cap(wb.head) > maxPooledHead {
			t.Fatalf("pool handed out a %d-byte head buffer, limit is %d", cap(wb.head), maxPooledHead)
		}
		if wb.vec[0] != nil || wb.vec[1] != nil || wb.bufs != nil {
			t.Fatal("pooled wireBuf still references a message")
		}
	}
}

package httpx

import (
	"bufio"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcws/internal/memnet"
)

// startServer boots a Server on a fresh fabric address and returns a client.
func startServer(t *testing.T, cfg ServerConfig, h Handler) (*memnet.Fabric, *Client, *Server) {
	t.Helper()
	fabric := memnet.NewFabric()
	l, err := fabric.Listen("srv:80")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cfg, h)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return fabric, NewClient(DialerFunc(fabric.Dial)), srv
}

func okHandler(body string) Handler {
	return HandlerFunc(func(req *Request) *Response {
		resp := NewResponse(200)
		resp.Header.Set("Content-Type", "text/plain")
		resp.Body = []byte(body)
		return resp
	})
}

func TestServerServesRequest(t *testing.T) {
	_, client, _ := startServer(t, ServerConfig{}, okHandler("hello"))
	resp, err := client.Get("srv:80", "/index.html", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || string(resp.Body) != "hello" {
		t.Fatalf("got %d %q", resp.Status, resp.Body)
	}
}

func TestServerEchoesPath(t *testing.T) {
	h := HandlerFunc(func(req *Request) *Response {
		resp := NewResponse(200)
		resp.Body = []byte(req.Method + " " + req.Path)
		return resp
	})
	_, client, _ := startServer(t, ServerConfig{}, h)
	resp, err := client.Get("srv:80", "/a/b/c.html", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "GET /a/b/c.html" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestServerConcurrentRequests(t *testing.T) {
	var served int64
	h := HandlerFunc(func(req *Request) *Response {
		atomic.AddInt64(&served, 1)
		resp := NewResponse(200)
		resp.Body = []byte("ok")
		return resp
	})
	_, client, _ := startServer(t, ServerConfig{Workers: 4}, h)
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Get("srv:80", "/x", nil); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if atomic.LoadInt64(&served) != 50 {
		t.Fatalf("served %d, want 50", served)
	}
}

func TestServerQueueOverflowDrops503(t *testing.T) {
	block := make(chan struct{})
	h := HandlerFunc(func(req *Request) *Response {
		<-block
		return NewResponse(200)
	})
	// 1 worker, queue of 2: the worker picks up one connection, the queue
	// holds two more, everything else must be dropped with 503.
	fabric, client, srv := startServer(t, ServerConfig{Workers: 1, QueueLength: 2}, h)
	_ = fabric

	var mu sync.Mutex
	counts := map[int]int{}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get("srv:80", "/slow", nil)
			if err != nil {
				return // dial refused also possible under races; ignore
			}
			mu.Lock()
			counts[resp.Status]++
			mu.Unlock()
		}()
		time.Sleep(2 * time.Millisecond) // let the accept loop drain serially
	}
	// Give the drops time to happen, then release the worker.
	time.Sleep(50 * time.Millisecond)
	close(block)
	wg.Wait()
	if counts[503] == 0 {
		t.Fatalf("no 503 drops observed: %v (server dropped=%d)", counts, srv.Dropped())
	}
	if srv.Dropped() == 0 {
		t.Fatal("server did not count drops")
	}
	if counts[200] == 0 {
		t.Fatalf("no successes observed: %v", counts)
	}
}

func TestServerMalformedRequestGets400(t *testing.T) {
	fabric, _, _ := startServer(t, ServerConfig{}, okHandler("x"))
	conn, err := fabric.Dial("srv:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("NONSENSE\r\n\r\n"))
	buf := make([]byte, 64)
	n, _ := conn.Read(buf)
	if !strings.HasPrefix(string(buf[:n]), "HTTP/1.0 400") {
		t.Fatalf("got %q, want 400 response", buf[:n])
	}
}

func TestServerHandlerPanicGives500(t *testing.T) {
	h := HandlerFunc(func(req *Request) *Response { panic("boom") })
	_, client, _ := startServer(t, ServerConfig{}, h)
	resp, err := client.Get("srv:80", "/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 500 {
		t.Fatalf("status = %d, want 500", resp.Status)
	}
}

func TestServerNilResponseGives500(t *testing.T) {
	h := HandlerFunc(func(req *Request) *Response { return nil })
	_, client, _ := startServer(t, ServerConfig{}, h)
	resp, err := client.Get("srv:80", "/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 500 {
		t.Fatalf("status = %d, want 500", resp.Status)
	}
}

func TestServerKeepAlive(t *testing.T) {
	fabric := memnet.NewFabric()
	l, _ := fabric.Listen("srv:80")
	srv := NewServer(ServerConfig{KeepAlive: true}, okHandler("ka"))
	go srv.Serve(l)
	defer srv.Close()

	conn, err := fabric.Dial("srv:80")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Two requests on one connection.
	for i := 0; i < 2; i++ {
		req := NewRequest("GET", "/x")
		req.Header.Set("Connection", "keep-alive")
		if err := WriteRequest(conn, req); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	buf := make([]byte, 4096)
	deadline := time.Now().Add(2 * time.Second)
	var all []byte
	for time.Now().Before(deadline) && strings.Count(string(all), "HTTP/1.0 200") < 2 {
		conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, err := conn.Read(buf)
		all = append(all, buf[:n]...)
		if err != nil && n == 0 {
			break
		}
	}
	if got := strings.Count(string(all), "HTTP/1.0 200"); got != 2 {
		t.Fatalf("saw %d responses on one keep-alive connection, want 2", got)
	}
}

// TestServerWorkerSlotsBoundHandlers: connections are many, worker slots
// few. Six kept-alive requests against two slots run at most two handlers
// at once, and every one completes.
func TestServerWorkerSlotsBoundHandlers(t *testing.T) {
	var mu sync.Mutex
	running, peak := 0, 0
	release := make(chan struct{})
	h := HandlerFunc(func(req *Request) *Response {
		if req.Path == "/block" {
			mu.Lock()
			running++
			peak = max(peak, running)
			mu.Unlock()
			<-release
			mu.Lock()
			running--
			mu.Unlock()
		}
		return NewResponse(200)
	})
	fabric, _, srv := startKeepAliveServer(t, ServerConfig{Workers: 2}, PoolConfig{}, h)
	clients := keptAliveClients(t, fabric, 6)
	wait := getAll(t, clients, "/block")
	waitQueueDepth(t, srv, 4, "4 kept-alive requests beyond the 2 worker slots")
	close(release)
	wait()
	mu.Lock()
	defer mu.Unlock()
	if peak != 2 {
		t.Fatalf("peak concurrent handlers = %d, want 2 (Workers)", peak)
	}
}

// TestServerCloseLeaksNothing opens 200 loopback-TCP connections — idle
// after a kept-alive exchange, reset by the client while idle, or reset
// while their response is pending — closes the server, and checks that
// every goroutine and file descriptor the exchange made is gone. The
// collector is off meanwhile: a finalizer closing a leaked socket would
// hide the leak.
func TestServerCloseLeaksNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fds := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skipf("no /proc/self/fd: %v", err)
		}
		return len(ents)
	}
	baseFDs, baseG := fds(), runtime.NumGoroutine()

	l, err := memnet.TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP: %v", err)
	}
	const n = 200
	arrived := make(chan struct{}, n)
	release := make(chan struct{})
	body := make([]byte, 1<<20)
	srv := NewServer(ServerConfig{KeepAlive: true, Workers: n, ReadTimeout: time.Minute},
		HandlerFunc(func(req *Request) *Response {
			resp := NewResponse(200)
			if req.Path == "/cut" {
				arrived <- struct{}{}
				<-release
				resp.Body = body
			}
			return resp
		}))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()

	reset := func(c net.Conn) {
		c.(*net.TCPConn).SetLinger(0)
		c.Close()
	}
	var idle, cut []net.Conn
	for i := 0; i < n; i++ {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			fmt.Fprint(c, "GET /cut HTTP/1.1\r\n\r\n")
			cut = append(cut, c)
			continue
		}
		fmt.Fprint(c, "GET /x HTTP/1.1\r\n\r\n")
		if resp, err := ReadResponse(bufio.NewReader(c)); err != nil || resp.Status != 200 {
			t.Fatalf("conn %d: %v %v", i, resp, err)
		}
		if i%3 == 1 {
			reset(c)
		} else {
			idle = append(idle, c)
		}
	}
	for range cut {
		<-arrived
	}
	for _, c := range cut {
		reset(c)
	}
	close(release)

	srv.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return within 2s of Close")
	}
	for _, c := range idle {
		c.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		f, g := fds(), runtime.NumGoroutine()
		if f <= baseFDs && g <= baseG {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d fds (baseline %d), %d goroutines (baseline %d)", f, baseFDs, g, baseG)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestServerCloseStopsAccepting(t *testing.T) {
	fabric, client, srv := startServer(t, ServerConfig{}, okHandler("x"))
	if _, err := client.Get("srv:80", "/x", nil); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	time.Sleep(20 * time.Millisecond)
	if _, err := fabric.Dial("srv:80"); err == nil {
		t.Fatal("dial succeeded after server Close")
	}
}

func TestClientDialFailure(t *testing.T) {
	fabric := memnet.NewFabric()
	client := NewClient(DialerFunc(fabric.Dial))
	if _, err := client.Get("ghost:80", "/", nil); err == nil {
		t.Fatal("expected dial error")
	}
}

func TestClientSetsHostHeader(t *testing.T) {
	var gotHost string
	var mu sync.Mutex
	h := HandlerFunc(func(req *Request) *Response {
		mu.Lock()
		gotHost = req.Header.Get("Host")
		mu.Unlock()
		return NewResponse(200)
	})
	_, client, _ := startServer(t, ServerConfig{}, h)
	if _, err := client.Get("srv:80", "/", nil); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if gotHost != "srv:80" {
		t.Fatalf("Host = %q", gotHost)
	}
}

func TestClientExtraHeaders(t *testing.T) {
	var got string
	var mu sync.Mutex
	h := HandlerFunc(func(req *Request) *Response {
		mu.Lock()
		got = req.Header.Get("X-Dcws-Load")
		mu.Unlock()
		return NewResponse(200)
	})
	_, client, _ := startServer(t, ServerConfig{}, h)
	extra := make(Header)
	extra.Set("X-DCWS-Load", "a=1")
	if _, err := client.Get("srv:80", "/", extra); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got != "a=1" {
		t.Fatalf("extension header = %q", got)
	}
}

func TestServerOverTCP(t *testing.T) {
	n := memnet.TCP{}
	l, err := n.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP: %v", err)
	}
	srv := NewServer(ServerConfig{}, okHandler("tcp works"))
	go srv.Serve(l)
	defer srv.Close()
	client := NewClient(DialerFunc(n.Dial))
	resp, err := client.Get(l.Addr().String(), "/x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(resp.Body) != "tcp works" {
		t.Fatalf("body = %q", resp.Body)
	}
}

func TestAccessLogCarriesTraceID(t *testing.T) {
	var logMu sync.Mutex
	var logBuf strings.Builder
	h := HandlerFunc(func(req *Request) *Response {
		resp := NewResponse(200)
		resp.Header.Set("X-Test-Trace", req.Header.Get("X-Test-Trace"))
		resp.Body = []byte("ok")
		return resp
	})
	cfg := ServerConfig{
		AccessLog:   log.New(safeWriter{mu: &logMu, w: &logBuf}, "", 0),
		TraceHeader: "X-Test-Trace",
	}
	_, client, _ := startServer(t, cfg, h)

	extra := make(Header)
	extra.Set("X-Test-Trace", "trace-abc123")
	if _, err := client.Get("srv:80", "/traced.html", extra); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get("srv:80", "/plain.html", nil); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		logMu.Lock()
		out := logBuf.String()
		logMu.Unlock()
		if strings.Contains(out, "/traced.html") && strings.Contains(out, "/plain.html") {
			var traced, plain string
			for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
				if strings.Contains(line, "/traced.html") {
					traced = line
				}
				if strings.Contains(line, "/plain.html") {
					plain = line
				}
			}
			if !strings.Contains(traced, "GET /traced.html 200") || !strings.Contains(traced, "trace=trace-abc123") {
				t.Fatalf("traced line = %q", traced)
			}
			if !strings.Contains(plain, "trace=-") {
				t.Fatalf("plain line = %q", plain)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("access log incomplete:\n%s", out)
		}
		time.Sleep(time.Millisecond)
	}
}

// safeWriter serializes writes so the test can read the log buffer while
// worker goroutines are still appending.
type safeWriter struct {
	mu *sync.Mutex
	w  *strings.Builder
}

func (s safeWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

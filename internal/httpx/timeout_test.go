package httpx

import (
	"bufio"
	"fmt"
	"net"
	"testing"
	"time"

	"dcws/internal/memnet"
)

// timeoutSlack is the scheduling allowance on every "by T" bound below;
// the race detector and a loaded host delay the connection goroutines.
const timeoutSlack = 500 * time.Millisecond

// listenFor returns a listener on the fabric or, when tcp is set, on
// loopback TCP through memnet.TCP (the poller's deadlines), with the
// matching dial function.
func listenFor(t *testing.T, tcp bool) (net.Listener, func() (net.Conn, error)) {
	t.Helper()
	if tcp {
		l, err := memnet.TCP{}.Listen("127.0.0.1:0")
		if err != nil {
			t.Skipf("no TCP: %v", err)
		}
		return l, func() (net.Conn, error) { return net.Dial("tcp", l.Addr().String()) }
	}
	fabric := memnet.NewFabric()
	l, err := fabric.Listen(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	return l, func() (net.Conn, error) { return fabric.Dial(srvAddr) }
}

// serveTimeout starts a kept-alive server with the given ReadTimeout and
// returns a dial function for it.
func serveTimeout(t *testing.T, tcp bool, cfg ServerConfig, h Handler) (*Server, func() (net.Conn, error)) {
	t.Helper()
	l, dial := listenFor(t, tcp)
	cfg.KeepAlive = true
	srv := NewServer(cfg, h)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return srv, dial
}

// exchange sends one kept-alive GET on conn and reads its response,
// waiting at most five seconds for it.
func exchange(t *testing.T, conn net.Conn, br *bufio.Reader, path string) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintf(conn, "GET %s HTTP/1.1\r\n\r\n", path)
	resp, err := ReadResponse(br)
	if err != nil || resp.Status != 200 {
		t.Fatalf("GET %s: %v %v", path, resp, err)
	}
}

// waitClosed blocks until the server closes conn and returns when the
// client saw it.
func waitClosed(t *testing.T, conn net.Conn, br *bufio.Reader, limit time.Duration) time.Time {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(limit))
	if _, err := br.ReadByte(); err == nil {
		t.Fatal("read a byte from a connection the server should have closed")
	} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("connection still open after %v", limit)
	}
	return time.Now()
}

// TestServerReadTimeoutClosesIdleConn: a kept-alive connection that goes
// idle is closed between 7/8 of ReadTimeout after its last request was
// sent and ReadTimeout after its response came back. Three quick requests
// leave the deadline armed by the first; a fourth after a pause of T/4
// re-arms it.
func TestServerReadTimeoutClosesIdleConn(t *testing.T) {
	const T = 400 * time.Millisecond
	for _, tcp := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			_, dial := serveTimeout(t, tcp, ServerConfig{ReadTimeout: T}, okHandler("x"))
			for _, pause := range []time.Duration{0, T / 4} {
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				br := bufio.NewReader(conn)
				for i := 0; i < 3; i++ {
					exchange(t, conn, br, "/x")
				}
				time.Sleep(pause)
				sent := time.Now()
				exchange(t, conn, br, "/x")
				got := time.Now()
				closed := waitClosed(t, conn, br, 2*T)
				if d := closed.Sub(sent); d <= T*7/8 {
					t.Errorf("pause %v: idle connection closed %v after its last request, want > 7/8 of %v", pause, d, T)
				}
				if d := closed.Sub(got); d > T+timeoutSlack {
					t.Errorf("pause %v: idle connection closed %v after its last response, want by %v", pause, d, T)
				}
			}
		})
	}
}

// TestServerReadTimeoutCutsTrickledRequest: a request delivered one byte
// at a time, taking longer than ReadTimeout in all, is cut by the read
// deadline and never reaches the handler.
func TestServerReadTimeoutCutsTrickledRequest(t *testing.T) {
	const T = 300 * time.Millisecond
	for _, tcp := range []bool{false, true} {
		t.Run(fmt.Sprintf("tcp=%v", tcp), func(t *testing.T) {
			called := make(chan string, 4)
			h := HandlerFunc(func(req *Request) *Response {
				called <- req.Path
				return NewResponse(200)
			})
			_, dial := serveTimeout(t, tcp, ServerConfig{ReadTimeout: T}, h)
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			exchange(t, conn, br, "/first") // the cut comes on a kept-alive wait
			<-called
			stop := make(chan struct{})
			defer close(stop)
			start := time.Now()
			go func() {
				for _, c := range []byte("GET /trickled HTTP/1.1\r\nHost: srv\r\n\r\n") {
					select {
					case <-stop:
						return
					case <-time.After(T / 10):
					}
					if _, err := conn.Write([]byte{c}); err != nil {
						return
					}
				}
			}()
			closed := waitClosed(t, conn, br, 4*T)
			if d := closed.Sub(start); d > T+timeoutSlack {
				t.Errorf("trickled request cut after %v, want by %v", d, T)
			}
			select {
			case p := <-called:
				t.Errorf("handler ran for %s, want the trickled request cut before it", p)
			default:
			}
		})
	}
}

// TestServerWriteTimeoutCutsStalledReader: a client that asks for a large
// response and stops reading holds its worker slot only until the write
// deadline cuts the write, between 7/8 of ReadTimeout and ReadTimeout
// after the write began; with one worker slot, the next request on
// another connection is served right after the cut.
func TestServerWriteTimeoutCutsStalledReader(t *testing.T) {
	const T = 400 * time.Millisecond
	body := make([]byte, 4<<20) // far beyond the fabric's 64 KiB pipe
	bigStarted := make(chan struct{})
	h := HandlerFunc(func(req *Request) *Response {
		resp := NewResponse(200)
		if req.Path == "/big" {
			resp.Body = body
			close(bigStarted)
		}
		return resp
	})
	_, dial := serveTimeout(t, false, ServerConfig{ReadTimeout: T, Workers: 1}, h)
	stalled, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	sent := time.Now()
	fmt.Fprint(stalled, "GET /big HTTP/1.1\r\n\r\n") // and never read
	<-bigStarted
	// The next connection waits for the slot under its own read deadline,
	// armed when it is admitted: dialling it T/2 later leaves it T/2 of
	// margin past the cut.
	time.Sleep(T / 2)
	next, err := dial()
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	queued := time.Now()
	exchange(t, next, bufio.NewReader(next), "/small")
	served := time.Now()
	if d := served.Sub(sent); d <= T*7/8 {
		t.Errorf("next request served %v after the stalled one, want > 7/8 of %v (the write deadline)", d, T)
	}
	if d := served.Sub(queued); d > T+timeoutSlack {
		t.Errorf("next request served %v after it queued, want by %v", d, T)
	}
	// The stalled client finds its response cut short.
	stalled.SetReadDeadline(time.Now().Add(2 * time.Second))
	resp, err := ReadResponse(bufio.NewReader(stalled))
	if err == nil {
		t.Fatalf("stalled client read a whole %d-byte response, want it cut", len(resp.Body))
	}
}

// TestServerCloseEndsWaitBetweenRequests: Close ends a kept-alive
// connection waiting for its next request at once, long before its read
// deadline, whether the last iteration re-armed the deadline (after a
// pause of more than T/8) or left it armed from before.
func TestServerCloseEndsWaitBetweenRequests(t *testing.T) {
	const T = 4 * time.Second
	for _, tcp := range []bool{false, true} {
		for _, pause := range []time.Duration{0, T / 4} {
			t.Run(fmt.Sprintf("tcp=%v/pause=%v", tcp, pause), func(t *testing.T) {
				srv, dial := serveTimeout(t, tcp, ServerConfig{ReadTimeout: T}, okHandler("x"))
				conn, err := dial()
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				br := bufio.NewReader(conn)
				exchange(t, conn, br, "/x")
				time.Sleep(pause)
				exchange(t, conn, br, "/x")
				time.Sleep(20 * time.Millisecond) // the connection is back waiting
				closing := time.Now()
				srv.Close()
				// Waiting out the deadline would take 7/8 of T or more.
				closed := waitClosed(t, conn, br, T*3/4)
				if d := closed.Sub(closing); d > T/2 {
					t.Errorf("connection ended %v after Close, want well before its deadline", d)
				}
			})
		}
	}
}

package httpx

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"dcws/internal/memnet"
)

// startKeepAliveServer boots a keep-alive server on a fresh fabric and
// returns a pooled client dialing as "cli" (so link faults between "cli"
// and srvAddr apply to its connections).
func startKeepAliveServer(t *testing.T, cfg ServerConfig, pcfg PoolConfig, h Handler) (*memnet.Fabric, *Client, *Server) {
	t.Helper()
	cfg.KeepAlive = true
	fabric := memnet.NewFabric()
	l, err := fabric.Listen(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(cfg, h)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	client := NewPooledClient(DialerFunc(fabric.Named("cli").Dial), pcfg)
	t.Cleanup(client.CloseIdle)
	return fabric, client, srv
}

const srvAddr = "srv:80"

func TestWantsKeepAliveTokens(t *testing.T) {
	cases := []struct {
		proto, conn string
		want        bool
	}{
		{"HTTP/1.0", "keep-alive", true},
		{"HTTP/1.0", "Keep-Alive", true},        // ASCII-case-insensitive
		{"HTTP/1.0", "KEEP-ALIVE", true},        // ASCII-case-insensitive
		{"HTTP/1.0", "TE, Keep-Alive", true},    // comma-separated list
		{"HTTP/1.0", "te ,  keep-alive ", true}, // whitespace around tokens
		{"HTTP/1.0", "", false},                 // 1.0 defaults to close
		{"HTTP/1.0", "close", false},
		{"HTTP/1.0", "keepalive", false},            // no partial-token match
		{"HTTP/1.0", "keep-alive-extension", false}, // no prefix match
		{"HTTP/1.1", "", true},                      // 1.1 defaults to keep-alive
		{"HTTP/1.1", "Close", false},                // ASCII-case-insensitive
		{"HTTP/1.1", "keep-alive, Close", false},    // close anywhere in list wins
		{"HTTP/1.1", "closed", true},                // not the close token
	}
	for _, tc := range cases {
		req := NewRequest("GET", "/x")
		req.Proto = tc.proto
		if tc.conn != "" {
			req.Header.Set("Connection", tc.conn)
		}
		if got := wantsKeepAlive(req); got != tc.want {
			t.Errorf("wantsKeepAlive(%s, Connection=%q) = %v, want %v", tc.proto, tc.conn, got, tc.want)
		}
	}
}

func TestClientPoolReusesConnection(t *testing.T) {
	_, client, _ := startKeepAliveServer(t, ServerConfig{}, PoolConfig{}, okHandler("pooled"))
	for i := 0; i < 3; i++ {
		resp, err := client.Get(srvAddr, "/x", nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if resp.Status != 200 || string(resp.Body) != "pooled" {
			t.Fatalf("request %d: got %d %q", i, resp.Status, resp.Body)
		}
	}
	if d, r := client.Pool.Dials(), client.Pool.Reuses(); d != 1 || r != 2 {
		t.Fatalf("dials=%d reuses=%d, want 1 and 2", d, r)
	}
	st := client.Pool.Stats()
	if pp := st.Peers[srvAddr]; pp.Open != 1 || pp.Idle != 1 {
		t.Fatalf("peer stats = %+v, want open=1 idle=1", pp)
	}
}

func TestClientPoolServerCloseRetires(t *testing.T) {
	// KeepAlive off: every response says Connection: close, so nothing can
	// be pooled and every request must dial fresh.
	fabric := memnet.NewFabric()
	l, err := fabric.Listen(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{}, okHandler("once"))
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	client := NewPooledClient(DialerFunc(fabric.Dial), PoolConfig{})
	for i := 0; i < 2; i++ {
		if _, err := client.Get(srvAddr, "/x", nil); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	st := client.Pool.Stats()
	if st.Dials != 2 || st.Reuses != 0 {
		t.Fatalf("dials=%d reuses=%d, want 2 and 0", st.Dials, st.Reuses)
	}
	if st.Retires[RetireServerClose] != 2 {
		t.Fatalf("server-close retires = %d, want 2", st.Retires[RetireServerClose])
	}
}

// TestClientPoolFabricResetRetries arms a mid-stream reset budget sized so
// the first exchange fits but the second — over the now-pooled connection —
// trips the reset. The client must retire the broken pooled connection and
// transparently retry on a fresh dial, which carries a fresh budget.
func TestClientPoolFabricResetRetries(t *testing.T) {
	const body = "reset-me"
	fabric, client, _ := startKeepAliveServer(t, ServerConfig{}, PoolConfig{}, okHandler(body))

	// Compute the exact wire size of one exchange by serializing the same
	// messages the client and server will: header order is deterministic.
	req := NewRequest("GET", "/x")
	req.Header.Set("Host", srvAddr)
	req.Header.Set("Connection", "keep-alive")
	var wire bytes.Buffer
	if err := WriteRequest(&wire, req); err != nil {
		t.Fatal(err)
	}
	resp := NewResponse(200)
	resp.Header.Set("Content-Type", "text/plain")
	resp.Header.Set("Connection", "keep-alive")
	resp.Body = []byte(body)
	if err := WriteResponse(&wire, resp); err != nil {
		t.Fatal(err)
	}
	rt := wire.Len()
	// One full exchange plus a partial second: the reset fires mid-way
	// through the second request or its response.
	fabric.SetResetAfterBytes("cli", srvAddr, int64(rt+rt/3))

	for i := 0; i < 2; i++ {
		got, err := client.Get(srvAddr, "/x", nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got.Status != 200 || string(got.Body) != body {
			t.Fatalf("request %d: %d %q", i, got.Status, got.Body)
		}
	}
	st := client.Pool.Stats()
	if st.Dials != 2 {
		t.Fatalf("dials = %d, want 2 (fresh dial after the reset)", st.Dials)
	}
	if st.Reuses != 1 {
		t.Fatalf("reuses = %d, want 1 (the doomed pooled attempt)", st.Reuses)
	}
	if st.Retires[RetireError] == 0 {
		t.Fatalf("no error retire recorded: %v", st.Retires)
	}
}

// TestClientPoolStalledConnDeadline parks a connection through a stalled
// link: the pooled request must fail by its own per-request deadline, not
// hang on the stall, and the connection must not return to the pool.
func TestClientPoolStalledConnDeadline(t *testing.T) {
	fabric, client, _ := startKeepAliveServer(t, ServerConfig{}, PoolConfig{}, okHandler("slow"))
	fabric.SetStall("cli", srvAddr, 150*time.Millisecond)

	// First request: generous deadline rides out the stall and pools the
	// connection.
	if _, err := client.GetTimeout(srvAddr, "/x", nil, time.Second); err != nil {
		t.Fatalf("first request: %v", err)
	}
	if client.Pool.Stats().Peers[srvAddr].Idle != 1 {
		t.Fatal("first connection was not pooled")
	}

	// Second request: 20ms deadline cannot survive a 150ms stall — on the
	// pooled connection or on the fresh-dial retry.
	start := time.Now()
	_, err := client.GetTimeout(srvAddr, "/x", nil, 20*time.Millisecond)
	if err == nil {
		t.Fatal("expected deadline error through the stalled link")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline took %v, request hung on the stall", elapsed)
	}
	if idle := client.Pool.Stats().Peers[srvAddr].Idle; idle != 0 {
		t.Fatalf("%d stalled connections back in the pool, want 0", idle)
	}
}

// TestClientPoolNoResponseCrossing drives many distinct requests through
// pooled connections, sequentially and concurrently, asserting every
// response belongs to its own request.
func TestClientPoolNoResponseCrossing(t *testing.T) {
	echo := HandlerFunc(func(req *Request) *Response {
		resp := NewResponse(200)
		resp.Header.Set("Content-Type", "text/plain")
		resp.Body = []byte("echo:" + req.Path)
		return resp
	})
	_, client, _ := startKeepAliveServer(t, ServerConfig{}, PoolConfig{MaxIdlePerHost: 2}, echo)

	for i := 0; i < 20; i++ {
		path := fmt.Sprintf("/seq/%d", i)
		resp, err := client.Get(srvAddr, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp.Body) != "echo:"+path {
			t.Fatalf("sequential response crossed: sent %s, got %q", path, resp.Body)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				path := fmt.Sprintf("/g%d/%d", g, i)
				resp, err := client.Get(srvAddr, path, nil)
				if err != nil {
					errs <- err
					return
				}
				if string(resp.Body) != "echo:"+path {
					errs <- fmt.Errorf("concurrent response crossed: sent %s, got %q", path, resp.Body)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestPoolIdleTimeoutRetires(t *testing.T) {
	_, client, _ := startKeepAliveServer(t, ServerConfig{}, PoolConfig{IdleTimeout: 10 * time.Millisecond}, okHandler("x"))
	if _, err := client.Get(srvAddr, "/x", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if _, err := client.Get(srvAddr, "/x", nil); err != nil {
		t.Fatal(err)
	}
	st := client.Pool.Stats()
	if st.Dials != 2 || st.Reuses != 0 {
		t.Fatalf("dials=%d reuses=%d, want 2 and 0 (idle conn expired)", st.Dials, st.Reuses)
	}
	if st.Retires[RetireIdleTimeout] != 1 {
		t.Fatalf("idle-timeout retires = %d, want 1: %v", st.Retires[RetireIdleTimeout], st.Retires)
	}
}

func TestPoolMaxLifetimeRetires(t *testing.T) {
	_, client, _ := startKeepAliveServer(t, ServerConfig{}, PoolConfig{MaxLifetime: 5 * time.Millisecond}, okHandler("x"))
	if _, err := client.Get(srvAddr, "/x", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := client.Get(srvAddr, "/x", nil); err != nil {
		t.Fatal(err)
	}
	st := client.Pool.Stats()
	if st.Dials != 2 {
		t.Fatalf("dials = %d, want 2 (lifetime-expired conn replaced)", st.Dials)
	}
	if st.Retires[RetireLifetime] != 1 {
		t.Fatalf("lifetime retires = %d, want 1: %v", st.Retires[RetireLifetime], st.Retires)
	}
}

func TestPoolCapacityRetires(t *testing.T) {
	// Block two requests in-flight simultaneously so the client must open
	// two connections; with MaxIdlePerHost 1 only one may return to the
	// pool, the other retires for capacity.
	var arrived sync.WaitGroup
	arrived.Add(2)
	release := make(chan struct{})
	h := HandlerFunc(func(req *Request) *Response {
		arrived.Done()
		<-release
		resp := NewResponse(200)
		resp.Body = []byte("ok")
		return resp
	})
	_, client, _ := startKeepAliveServer(t, ServerConfig{}, PoolConfig{MaxIdlePerHost: 1}, h)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := client.Get(srvAddr, "/x", nil); err != nil {
				t.Error(err)
			}
		}()
	}
	arrived.Wait()
	close(release)
	wg.Wait()
	st := client.Pool.Stats()
	if st.Retires[RetireCapacity] != 1 {
		t.Fatalf("capacity retires = %d, want 1: %v", st.Retires[RetireCapacity], st.Retires)
	}
	if pp := st.Peers[srvAddr]; pp.Idle != 1 {
		t.Fatalf("idle = %d, want 1", pp.Idle)
	}
}

func TestPoolFlushAddr(t *testing.T) {
	_, client, _ := startKeepAliveServer(t, ServerConfig{}, PoolConfig{}, okHandler("x"))
	if _, err := client.Get(srvAddr, "/x", nil); err != nil {
		t.Fatal(err)
	}
	if n := client.Pool.FlushAddr(srvAddr); n != 1 {
		t.Fatalf("flushed %d, want 1", n)
	}
	st := client.Pool.Stats()
	if st.Retires[RetireFlush] != 1 {
		t.Fatalf("flush retires = %d, want 1", st.Retires[RetireFlush])
	}
	// The next request dials fresh and succeeds.
	if _, err := client.Get(srvAddr, "/x", nil); err != nil {
		t.Fatal(err)
	}
	if st := client.Pool.Stats(); st.Dials != 2 {
		t.Fatalf("dials = %d, want 2", st.Dials)
	}
}

func TestCancelTokenAbortsInFlight(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	h := HandlerFunc(func(req *Request) *Response {
		started <- struct{}{}
		<-release
		return NewResponse(200)
	})
	_, client, _ := startKeepAliveServer(t, ServerConfig{}, PoolConfig{}, h)
	defer close(release)

	tok := &CancelToken{}
	done := make(chan error, 1)
	go func() {
		_, err := client.DoCancel(srvAddr, NewRequest("GET", "/x"), 5*time.Second, tok)
		done <- err
	}()
	<-started
	tok.Cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancel did not abort the in-flight request")
	}
	st := client.Pool.Stats()
	if st.Retires[RetireCanceled] != 1 {
		t.Fatalf("canceled retires = %d, want 1: %v", st.Retires[RetireCanceled], st.Retires)
	}
	// A canceled token refuses later binds.
	if _, err := client.DoCancel(srvAddr, NewRequest("GET", "/x"), time.Second, tok); !errors.Is(err, ErrCanceled) {
		t.Fatalf("post-cancel bind err = %v, want ErrCanceled", err)
	}
}

// TestServerKeepAliveAfterIdle: a kept-alive connection that sits idle
// between requests is served again on the same pooled connection.
func TestServerKeepAliveAfterIdle(t *testing.T) {
	_, client, _ := startKeepAliveServer(t, ServerConfig{}, PoolConfig{}, okHandler("again"))
	if _, err := client.Get(srvAddr, "/x", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	resp, err := client.Get(srvAddr, "/x", nil)
	if err != nil {
		t.Fatalf("request over idle connection: %v", err)
	}
	if resp.Status != 200 || string(resp.Body) != "again" {
		t.Fatalf("got %d %q", resp.Status, resp.Body)
	}
	if r := client.Pool.Reuses(); r != 1 {
		t.Fatalf("reuses = %d, want 1", r)
	}
}

// TestServerCloseSweepsIdleConns: closing a server with an idle kept-alive
// connection on a long read timeout must return promptly. The shutdown
// sweep expires every live read deadline, and the connection's goroutine
// must not re-arm a future deadline over the sweep and sit out the timeout.
func TestServerCloseSweepsIdleConns(t *testing.T) {
	fabric := memnet.NewFabric()
	l, err := fabric.Listen(srvAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{
		KeepAlive:   true,
		ReadTimeout: time.Minute,
	}, okHandler("idle"))
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	client := NewPooledClient(DialerFunc(fabric.Named("cli").Dial), PoolConfig{})
	t.Cleanup(client.CloseIdle)
	if _, err := client.Get(srvAddr, "/x", nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // let the connection settle into its idle wait
	srv.Close()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Serve did not return; an idle connection held shutdown hostage")
	}
}

// TestPoolSoak hammers a keep-alive server with a small pool from many
// goroutines — run under -race in CI to shake out pool lifecycle races.
func TestPoolSoak(t *testing.T) {
	echo := HandlerFunc(func(req *Request) *Response {
		resp := NewResponse(200)
		resp.Body = []byte(req.Path)
		return resp
	})
	_, client, _ := startKeepAliveServer(t,
		ServerConfig{Workers: 8},
		PoolConfig{MaxIdlePerHost: 2, IdleTimeout: 20 * time.Millisecond, MaxLifetime: 200 * time.Millisecond},
		echo)
	var wg sync.WaitGroup
	errs := make(chan error, 10)
	for g := 0; g < 10; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				path := fmt.Sprintf("/soak/%d/%d", g, i)
				resp, err := client.Get(srvAddr, path, nil)
				if err != nil {
					errs <- fmt.Errorf("g%d req %d: %w", g, i, err)
					return
				}
				if string(resp.Body) != path {
					errs <- fmt.Errorf("g%d req %d: response crossed, got %q", g, i, resp.Body)
					return
				}
				if i%25 == 24 {
					time.Sleep(25 * time.Millisecond) // let idle expiry churn the pool
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if client.Pool.Reuses() == 0 {
		t.Fatal("soak never reused a connection")
	}
}

package httpx

import (
	"sync"
	"testing"
	"time"

	"dcws/internal/memnet"
)

// TestQueueDepthReportsBacklog holds the single worker hostage and checks
// that connections stacking up behind it are visible through QueueDepth —
// the gauge the queue-aware load metric consumes.
func TestQueueDepthReportsBacklog(t *testing.T) {
	release := make(chan struct{})
	blocked := make(chan struct{}, 16)
	h := HandlerFunc(func(req *Request) *Response {
		blocked <- struct{}{}
		<-release
		return NewResponse(200)
	})
	_, client, srv := startServer(t, ServerConfig{Workers: 1, QueueLength: 8}, h)
	if srv.QueueDepth() != 0 {
		t.Fatalf("fresh server queue depth = %d", srv.QueueDepth())
	}

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := client.Get("srv:80", "/x", nil)
			if err != nil {
				t.Errorf("get: %v", err)
				return
			}
			if resp.Status != 200 {
				t.Errorf("status = %d", resp.Status)
			}
		}()
	}

	// One request occupies the worker; the other three sit in the queue.
	<-blocked
	waitQueueDepth(t, srv, 3, "3 fresh connections waiting for the one worker")

	close(release)
	wg.Wait()
	if d := srv.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after drain = %d", d)
	}
}

// TestQueueDepthCountsKeptAliveRequests: a request arriving on a kept-alive
// connection that sat idle waits in the socket queue just as a fresh
// connection does, so QueueDepth — and the load the server advertises —
// sees it. Every inter-server RPC travels this way.
func TestQueueDepthCountsKeptAliveRequests(t *testing.T) {
	h, release := blockingHandler("/block")
	fabric, _, srv := startKeepAliveServer(t, ServerConfig{Workers: 1, QueueLength: 8}, PoolConfig{}, h)
	clients := keptAliveClients(t, fabric, 4)
	wait := getAll(t, clients, "/block")
	waitQueueDepth(t, srv, 3, "3 kept-alive requests waiting for the one worker")
	close(release)
	wait()
	if d := srv.QueueDepth(); d != 0 {
		t.Fatalf("queue depth after drain = %d", d)
	}
}

// TestQueueFullOfKeptAliveRequestsDrops503: kept-alive requests waiting for
// a worker fill the socket queue, so a fresh connection arriving behind
// them is answered 503.
func TestQueueFullOfKeptAliveRequestsDrops503(t *testing.T) {
	h, release := blockingHandler("/block")
	fabric, _, srv := startKeepAliveServer(t, ServerConfig{Workers: 1, QueueLength: 2}, PoolConfig{}, h)
	clients := keptAliveClients(t, fabric, 4)
	wait := getAll(t, clients, "/block")
	waitQueueDepth(t, srv, 3, "3 kept-alive requests waiting for the one worker")
	resp, err := NewClient(DialerFunc(fabric.Dial)).Get(srvAddr, "/fresh", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 503 {
		t.Fatalf("fresh connection behind a full queue got %d, want 503", resp.Status)
	}
	if srv.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", srv.Dropped())
	}
	close(release)
	wait()
}

// blockingHandler answers 200 at once, except on path, where it waits for
// release to close.
func blockingHandler(path string) (Handler, chan struct{}) {
	release := make(chan struct{})
	return HandlerFunc(func(req *Request) *Response {
		if req.Path == path {
			<-release
		}
		return NewResponse(200)
	}), release
}

// keptAliveClients returns n pooled clients of srvAddr, each holding one
// kept-alive connection that has served a request and then sat idle.
func keptAliveClients(t *testing.T, fabric *memnet.Fabric, n int) []*Client {
	t.Helper()
	clients := make([]*Client, n)
	for i := range clients {
		clients[i] = NewPooledClient(DialerFunc(fabric.Named("cli").Dial), PoolConfig{})
		t.Cleanup(clients[i].CloseIdle)
		if _, err := clients[i].Get(srvAddr, "/warm", nil); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	return clients
}

// getAll issues GET path from every client at once. The returned function
// waits for them all and checks each got 200 over its kept-alive
// connection.
func getAll(t *testing.T, clients []*Client, path string) (wait func()) {
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			resp, err := c.Get(srvAddr, path, nil)
			if err != nil {
				t.Errorf("get %s: %v", path, err)
				return
			}
			if resp.Status != 200 {
				t.Errorf("get %s: status %d", path, resp.Status)
			}
		}(c)
	}
	return func() {
		wg.Wait()
		for i, c := range clients {
			if r := c.Pool.Reuses(); r != 1 {
				t.Errorf("client %d: reuses = %d, want 1", i, r)
			}
		}
	}
}

// waitQueueDepth polls until srv's queue depth reaches want, what naming
// the backlog that should be there.
func waitQueueDepth(t *testing.T, srv *Server, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.QueueDepth() < want {
		if time.Now().After(deadline) {
			t.Fatalf("queue depth = %d with %s, want %d", srv.QueueDepth(), what, want)
		}
		time.Sleep(time.Millisecond)
	}
}

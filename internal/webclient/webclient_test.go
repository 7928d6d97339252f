package webclient

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcws/internal/clock"
	"dcws/internal/httpx"
	"dcws/internal/memnet"
)

// miniSite serves a three-page site with images from a plain httpx server.
func miniSite(t *testing.T) (*memnet.Fabric, *int64) {
	t.Helper()
	pages := map[string]string{
		"/index.html": `<html><a href="/a.html">a</a><a href="/b.html">b</a></html>`,
		"/a.html":     `<html><img src="/i1.gif"><img src="/i2.gif"><a href="/b.html">b</a></html>`,
		"/b.html":     `<html><a href="/index.html">home</a></html>`,
		"/i1.gif":     "GIF8-one",
		"/i2.gif":     "GIF8-two",
	}
	var served int64
	fabric := memnet.NewFabric()
	l, err := fabric.Listen("site:80")
	if err != nil {
		t.Fatal(err)
	}
	srv := httpx.NewServer(httpx.ServerConfig{}, httpx.HandlerFunc(func(req *httpx.Request) *httpx.Response {
		atomic.AddInt64(&served, 1)
		body, ok := pages[req.Path]
		if !ok {
			resp := httpx.NewResponse(404)
			return resp
		}
		resp := httpx.NewResponse(200)
		resp.Header.Set("Content-Type", httpx.ContentTypeFor(req.Path))
		resp.Body = []byte(body)
		return resp
	}))
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })
	return fabric, &served
}

func TestSequenceWalksSite(t *testing.T) {
	fabric, served := miniSite(t)
	stats := &Stats{}
	c, err := New(Config{
		Dialer:    httpx.DialerFunc(fabric.Dial),
		EntryURLs: []string{"http://site:80/index.html"},
		Seed:      42,
		Stats:     stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.RunSequence(nil)
	if stats.Sequences.Value() != 1 {
		t.Fatalf("sequences = %d", stats.Sequences.Value())
	}
	if stats.Connections.Value() == 0 {
		t.Fatal("no connections recorded")
	}
	if atomic.LoadInt64(served) == 0 {
		t.Fatal("server saw no requests")
	}
	if stats.Bytes.Value() == 0 {
		t.Fatal("no bytes recorded")
	}
}

func TestCacheSuppressesRefetchWithinSequence(t *testing.T) {
	fabric, served := miniSite(t)
	stats := &Stats{}
	c, _ := New(Config{
		Dialer:    httpx.DialerFunc(fabric.Dial),
		EntryURLs: []string{"http://site:80/index.html"},
		Seed:      7,
		Stats:     stats,
	})
	// The walk's first draw is its step budget: seed 7 takes 12 steps over
	// a site with no dead end. Without the cache, connections would far
	// exceed the distinct document count (3 pages + 2 images).
	if steps := 1 + rand.New(rand.NewSource(7)).Intn(maxSteps); steps != 12 {
		t.Fatalf("seed 7 walks %d steps", steps)
	}
	c.RunSequence(nil)
	if got := stats.Connections.Value(); got > 5 {
		t.Fatalf("connections = %d; cache not effective (site has 5 distinct docs)", got)
	}
	if got := atomic.LoadInt64(served); got != stats.Connections.Value() {
		t.Fatalf("server saw %d requests, client counted %d", got, stats.Connections.Value())
	}
}

func TestBackoffOn503(t *testing.T) {
	fabric := memnet.NewFabric()
	l, _ := fabric.Listen("busy:80")
	var mu sync.Mutex
	failures := 2
	srv := httpx.NewServer(httpx.ServerConfig{}, httpx.HandlerFunc(func(req *httpx.Request) *httpx.Response {
		mu.Lock()
		defer mu.Unlock()
		if failures > 0 {
			failures--
			return httpx.NewResponse(503)
		}
		resp := httpx.NewResponse(200)
		resp.Body = []byte("<html>finally</html>")
		return resp
	}))
	go srv.Serve(l)
	defer srv.Close()

	manual := clock.NewManual(time.Unix(0, 0))
	stats := &Stats{}
	c, _ := New(Config{
		Dialer:    httpx.DialerFunc(fabric.Dial),
		Clock:     manual,
		EntryURLs: []string{"http://busy:80/index.html"},
		Seed:      1,
		Stats:     stats,
	})
	done := make(chan struct{})
	go func() {
		body, _, ok := c.Fetch("http://busy:80/index.html")
		if !ok || !strings.Contains(string(body), "finally") {
			t.Errorf("fetch after backoff failed: %q, %v", body, ok)
		}
		close(done)
	}()
	// Two drops: 1s then 2s of backoff on the manual clock.
	waitWaiters(t, manual, 1)
	manual.Advance(time.Second)
	waitWaiters(t, manual, 1)
	manual.Advance(2 * time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("fetch did not complete after backoff")
	}
	if stats.Drops.Value() != 2 {
		t.Fatalf("drops = %d, want 2", stats.Drops.Value())
	}
}

// TestRunStopsDuringBackoff: closing stop while the client sits out a 503
// backoff ends Run at once. The manual clock never advances, so a backoff
// that ignored stop would hold Run for good.
func TestRunStopsDuringBackoff(t *testing.T) {
	fabric := memnet.NewFabric()
	l, _ := fabric.Listen("busy:80")
	srv := httpx.NewServer(httpx.ServerConfig{}, httpx.HandlerFunc(func(*httpx.Request) *httpx.Response {
		return httpx.NewResponse(503)
	}))
	go srv.Serve(l)
	defer srv.Close()

	manual := clock.NewManual(time.Unix(0, 0))
	stats := &Stats{}
	c, _ := New(Config{
		Dialer:    httpx.DialerFunc(fabric.Dial),
		Clock:     manual,
		EntryURLs: []string{"http://busy:80/index.html"},
		Seed:      1,
		Stats:     stats,
	})
	defer c.Close()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		c.Run(stop)
		close(done)
	}()
	waitWaiters(t, manual, 1) // the first drop's backoff
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run kept backing off after stop closed")
	}
	if got := stats.Drops.Value(); got != 1 {
		t.Fatalf("drops = %d, want 1", got)
	}
}

func waitWaiters(t *testing.T, m *clock.Manual, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for m.Waiters() < n {
		if time.Now().After(deadline) {
			t.Fatal("sleeper never registered")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRedirectFollowing(t *testing.T) {
	fabric := memnet.NewFabric()
	l, _ := fabric.Listen("redir:80")
	srv := httpx.NewServer(httpx.ServerConfig{}, httpx.HandlerFunc(func(req *httpx.Request) *httpx.Response {
		switch req.Path {
		case "/old.html":
			resp := httpx.NewResponse(301)
			resp.Header.Set("Location", "http://redir:80/new.html")
			return resp
		case "/new.html":
			resp := httpx.NewResponse(200)
			resp.Body = []byte("<html>new home</html>")
			return resp
		}
		return httpx.NewResponse(404)
	}))
	go srv.Serve(l)
	defer srv.Close()

	stats := &Stats{}
	c, _ := New(Config{
		Dialer:    httpx.DialerFunc(fabric.Dial),
		EntryURLs: []string{"http://redir:80/old.html"},
		Seed:      1,
		Stats:     stats,
	})
	body, finalURL, ok := c.Fetch("http://redir:80/old.html")
	if !ok || !strings.Contains(string(body), "new home") {
		t.Fatalf("fetch = %q, %v", body, ok)
	}
	if finalURL != "http://redir:80/new.html" {
		t.Fatalf("finalURL = %q", finalURL)
	}
	if stats.Redirects.Value() != 1 {
		t.Fatalf("redirects = %d", stats.Redirects.Value())
	}
}

func TestRedirectLoopAborts(t *testing.T) {
	fabric := memnet.NewFabric()
	l, _ := fabric.Listen("loop:80")
	srv := httpx.NewServer(httpx.ServerConfig{}, httpx.HandlerFunc(func(req *httpx.Request) *httpx.Response {
		resp := httpx.NewResponse(301)
		resp.Header.Set("Location", "http://loop:80"+req.Path)
		return resp
	}))
	go srv.Serve(l)
	defer srv.Close()
	stats := &Stats{}
	c, _ := New(Config{
		Dialer:    httpx.DialerFunc(fabric.Dial),
		EntryURLs: []string{"http://loop:80/x.html"},
		Seed:      1,
		Stats:     stats,
	})
	if _, _, ok := c.Fetch("http://loop:80/x.html"); ok {
		t.Fatal("redirect loop did not abort")
	}
	if stats.Errors.Value() == 0 {
		t.Fatal("loop abort not counted as error")
	}
}

func TestRunStopsOnSignal(t *testing.T) {
	fabric, _ := miniSite(t)
	stats := &Stats{}
	c, _ := New(Config{
		Dialer:    httpx.DialerFunc(fabric.Dial),
		EntryURLs: []string{"http://site:80/index.html"},
		Seed:      3,
		Stats:     stats,
	})
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		c.Run(stop)
		close(done)
	}()
	time.Sleep(50 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop")
	}
	if stats.Sequences.Value() == 0 {
		t.Fatal("no sequences completed")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without dialer succeeded")
	}
	fabric := memnet.NewFabric()
	if _, err := New(Config{Dialer: httpx.DialerFunc(fabric.Dial)}); err == nil {
		t.Fatal("New without entry URLs succeeded")
	}
}

func TestResolveAgainst(t *testing.T) {
	cases := []struct{ base, raw, want string }{
		{"http://h:80/a/b.html", "c.html", "http://h:80/a/c.html"},
		{"http://h:80/a/b.html", "/c.html", "http://h:80/c.html"},
		{"http://h:80/a.html", "http://x:81/y.html", "http://x:81/y.html"},
		{"http://h:80/a.html", "/~migrate/h/80/d.html", "http://h:80/~migrate/h/80/d.html"},
		{"http://h:80/a.html", "mailto:x@y", ""},
		{"http://h:80/a.html", "#frag", ""},
		{"http://h:80/a.html", "ftp://x/y", ""},
	}
	for _, c := range cases {
		if got := resolveAgainst(c.base, c.raw); got != c.want {
			t.Errorf("resolveAgainst(%q, %q) = %q, want %q", c.base, c.raw, got, c.want)
		}
	}
}

func TestAbsolutize(t *testing.T) {
	if got := absolutize("h:80", "/x.html"); got != "http://h:80/x.html" {
		t.Fatalf("absolutize = %q", got)
	}
	if got := absolutize("h:80", "http://other:81/y"); got != "http://other:81/y" {
		t.Fatalf("absolutize = %q", got)
	}
}

func TestThinkTimeExtension(t *testing.T) {
	fabric, _ := miniSite(t)
	manual := clock.NewManual(time.Unix(0, 0))
	stats := &Stats{}
	c, _ := New(Config{
		Dialer:    httpx.DialerFunc(fabric.Dial),
		Clock:     manual,
		EntryURLs: []string{"http://site:80/index.html"},
		Seed:      99, // a budget of 18 steps
		ThinkTime: 5 * time.Second,
		Stats:     stats,
	})
	done := make(chan struct{})
	go func() {
		c.RunSequence(nil)
		close(done)
	}()
	// The client must block on think time at least once.
	waitWaiters(t, manual, 1)
	for i := 0; i < 30; i++ {
		manual.Advance(5 * time.Second)
		select {
		case <-done:
			return
		default:
			time.Sleep(5 * time.Millisecond)
		}
	}
	<-done
}

func TestStatsString(t *testing.T) {
	s := &Stats{}
	s.Connections.Add(3)
	s.Drops.Inc()
	out := s.String()
	if !strings.Contains(out, "conns=3") || !strings.Contains(out, "drops=1") {
		t.Fatalf("String = %q", out)
	}
}

func TestImageFetchRedirectsAndDrops(t *testing.T) {
	// An image that first 503s, then 301s, then succeeds — exercising the
	// helper-thread path end to end.
	fabric := memnet.NewFabric()
	l, _ := fabric.Listen("img:80")
	var mu sync.Mutex
	step := 0
	srv := httpx.NewServer(httpx.ServerConfig{}, httpx.HandlerFunc(func(req *httpx.Request) *httpx.Response {
		switch req.Path {
		case "/page.html":
			resp := httpx.NewResponse(200)
			resp.Body = []byte(`<html><img src="/old.gif"></html>`)
			return resp
		case "/old.gif":
			mu.Lock()
			defer mu.Unlock()
			step++
			if step == 1 {
				return httpx.NewResponse(503)
			}
			resp := httpx.NewResponse(301)
			resp.Header.Set("Location", "http://img:80/new.gif")
			return resp
		case "/new.gif":
			resp := httpx.NewResponse(200)
			resp.Body = []byte("GIF8")
			return resp
		}
		return httpx.NewResponse(404)
	}))
	go srv.Serve(l)
	defer srv.Close()

	manual := clock.NewManual(time.Unix(0, 0))
	stats := &Stats{}
	c, _ := New(Config{
		Dialer:    httpx.DialerFunc(fabric.Dial),
		Clock:     manual,
		EntryURLs: []string{"http://img:80/page.html"},
		Seed:      1,
		Stats:     stats, // the page has no anchors: one step

	})
	done := make(chan struct{})
	go func() {
		c.RunSequence(nil)
		close(done)
	}()
	waitWaiters(t, manual, 1) // image helper backing off on the 503
	manual.Advance(time.Second)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("sequence did not finish")
	}
	if stats.Drops.Value() != 1 {
		t.Fatalf("drops = %d", stats.Drops.Value())
	}
	if stats.Redirects.Value() != 1 {
		t.Fatalf("redirects = %d", stats.Redirects.Value())
	}
	// page + new.gif
	if stats.Connections.Value() != 2 {
		t.Fatalf("connections = %d", stats.Connections.Value())
	}
}

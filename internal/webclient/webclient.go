// Package webclient implements the custom client benchmark of §5.2
// (Algorithm 2). Conventional benchmarks request documents without regard
// to the hyperlinks inside them; DCWS rewrites those hyperlinks, so the
// benchmark must navigate the link structure the servers produce:
//
//	do forever:
//	    reset cache
//	    current <- a randomly selected well-known entry point
//	    for i = 1 .. random(1..25):
//	        request current (unless cached)
//	        request all embedded images in parallel (helper threads)
//	        parse the document, select a new link
//	        current <- the link
//
// A per-sequence client-side cache models browser caching (reducing image
// hot spots and increasing stale-link redirections), four image requests
// in flight model browser image parallelism, and 503 drops trigger
// exponential backoff, all as specified in the paper. The rules are
// written once, in Walker; Client drives it over HTTP, the simulator
// drives it from its event heap, and DryWalk over a site specification.
package webclient

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"dcws/internal/clock"
	"dcws/internal/graph"
	"dcws/internal/httpx"
	"dcws/internal/hypertext"
	"dcws/internal/metrics"
	"dcws/internal/naming"
)

// Stats aggregates benchmark-side measurements, shared by any number of
// concurrent clients.
type Stats struct {
	Connections metrics.Counter // successful document/image transfers
	Bytes       metrics.Counter // body bytes received
	Drops       metrics.Counter // 503 responses
	Redirects   metrics.Counter // 301/302 hops followed
	Errors      metrics.Counter // transport failures
	Sequences   metrics.Counter // completed access sequences
}

// String summarizes the counters.
func (s *Stats) String() string {
	return fmt.Sprintf("conns=%d bytes=%d drops=%d redirects=%d errors=%d sequences=%d",
		s.Connections.Value(), s.Bytes.Value(), s.Drops.Value(),
		s.Redirects.Value(), s.Errors.Value(), s.Sequences.Value())
}

// Config configures one simulated client.
type Config struct {
	// Dialer connects to servers (TCP or the in-memory fabric).
	Dialer httpx.Dialer
	// Clock paces backoff and think time.
	Clock clock.Clock
	// EntryURLs are the absolute well-known entry point URLs
	// ("http://host:port/index.html").
	EntryURLs []string
	// Seed makes the random walk reproducible.
	Seed int64
	// ThinkTime, when non-zero, inserts a pause between navigation steps —
	// the user think time extension discussed in §6.
	ThinkTime time.Duration
	// Stats receives measurements; required.
	Stats *Stats
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.Stats == nil {
		c.Stats = &Stats{}
	}
	return c
}

// Client is one simulated browsing user: a Walker, which owns every rule
// of Algorithm 2, driven over HTTP. The client only sends requests,
// resolves URLs and hands replies back to the walker.
type Client struct {
	cfg    Config
	client *httpx.Client
	walk   *Walker
}

// New returns a client ready to run sequences.
func New(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Dialer == nil {
		return nil, errors.New("webclient: Dialer is required")
	}
	if len(cfg.EntryURLs) == 0 {
		return nil, errors.New("webclient: at least one entry URL is required")
	}
	entries := make([]Ref, len(cfg.EntryURLs))
	for i, u := range cfg.EntryURLs {
		ref, ok := refOf(u)
		if !ok {
			return nil, fmt.Errorf("webclient: entry URL %q is not http://host:port/path", u)
		}
		entries[i] = ref
	}
	walk := NewWalker(cfg.Seed, Entries{Sites: [][]Ref{entries}})
	walk.Think = cfg.ThinkTime
	return &Client{
		cfg: cfg,
		// Keep-alive pooling sized to the image-helper parallelism: one
		// sequence fetches a page plus its images from the same server, so
		// reusing connections mirrors what real browsers do.
		client: httpx.NewPooledClient(cfg.Dialer, httpx.PoolConfig{MaxIdlePerHost: imageHelpers}),
		walk:   walk,
	}, nil
}

// Close releases the client's pooled connections.
func (c *Client) Close() { c.client.CloseIdle() }

// Run executes sequences until stop is closed.
func (c *Client) Run(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
		}
		c.RunSequence(stop)
	}
}

// RunSequence performs one access sequence of Algorithm 2. Closing stop
// ends it early, uncounted.
func (c *Client) RunSequence(stop <-chan struct{}) {
	if _, ok := c.run(c.walk, stop, true); ok {
		c.cfg.Stats.Sequences.Inc()
	}
}

// ResetCache clears the client-side cache, as happens at the start of each
// access sequence; a sequence under way is abandoned.
func (c *Client) ResetCache() { c.walk.Reset() }

// Fetch retrieves one absolute URL the way a sequence step requests a page
// — following redirects, backing off on 503 — and reports the body and
// final URL. It is a walk of its own that starts at url and follows no
// link, so it always sends. It is the single-document entry point used by
// harnesses and tools.
func (c *Client) Fetch(url string) (body []byte, finalURL string, ok bool) {
	ref, ok := refOf(url)
	if !ok {
		c.cfg.Stats.Errors.Inc()
		return nil, "", false
	}
	page, _ := c.run(NewWalker(0, Entries{Sites: [][]Ref{{ref}}}), nil, false)
	if page.status != 200 {
		return nil, "", false
	}
	return page.body, urlOf(page.req.Ref), true
}

// reply is one answered request.
type reply struct {
	req      Request
	status   int // 0 for a transport failure
	body     []byte
	location Ref
	stopped  bool // stop closed before the request was sent
}

// run drives a walker through one sequence, one goroutine per request so
// that images load in parallel; replies come back to this goroutine, the
// walker's only caller. Unless follow is set, the walker sees no page's
// links. run reports the last page received (status 0 when none was), and
// false when stop closed first.
func (c *Client) run(walk *Walker, stop <-chan struct{}, follow bool) (page reply, ok bool) {
	replies := make(chan reply, imageHelpers) // one slot per request in flight
	inFlight := 0
	for {
		req, step := walk.Next()
		switch step {
		case Send:
			inFlight++
			go func() { replies <- c.send(req, stop) }()
			continue
		case Pause:
			if c.wait(req.Delay, stop) {
				continue
			}
			walk.Reset()
			return page, false
		case End:
			return page, true
		}
		rep := <-replies
		inFlight--
		if rep.stopped {
			for ; inFlight > 0; inFlight-- {
				<-replies
			}
			walk.Reset()
			return page, false
		}
		var links, images []Ref
		switch rep.status {
		case 200:
			c.cfg.Stats.Connections.Inc()
			c.cfg.Stats.Bytes.Add(int64(len(rep.body)))
			if !rep.req.Image {
				page = rep
				if follow {
					links, images = linksOf(urlOf(rep.req.Ref), rep.body)
				}
			}
		case 301, 302:
			c.cfg.Stats.Redirects.Inc()
		case 503:
			c.cfg.Stats.Drops.Inc()
		}
		if walk.OnReply(rep.req, rep.status, rep.location, links, images) {
			c.cfg.Stats.Errors.Inc()
		}
	}
}

// send waits out a request's backoff and sends it.
func (c *Client) send(req Request, stop <-chan struct{}) reply {
	rep := reply{req: req}
	if !c.wait(req.Delay, stop) {
		rep.stopped = true
		return rep
	}
	resp, err := c.client.Get(req.Ref.Addr, pathOf(req.Ref), nil)
	if err != nil {
		return rep
	}
	rep.status, rep.body = resp.Status, resp.Body
	if loc := resp.Header.Get("Location"); loc != "" {
		// A Location the client cannot read stays zero: the walker fails
		// the redirect.
		rep.location, _ = refOf(absolutize(req.Ref.Addr, loc))
	}
	return rep
}

// wait pauses for d on the configured clock, and reports false when stop
// closes first.
func (c *Client) wait(d time.Duration, stop <-chan struct{}) bool {
	if d <= 0 {
		select {
		case <-stop:
			return false
		default:
			return true
		}
	}
	select {
	case <-stop:
		return false
	case <-c.cfg.Clock.After(d):
		return true
	}
}

// linksOf parses a page and resolves its navigable links (anchors and
// frames) and embedded images against its URL, in document order,
// duplicates kept; links the client cannot follow are left out.
func linksOf(pageURL string, body []byte) (links, images []Ref) {
	for _, l := range hypertext.Parse(string(body)).Links() {
		ref, ok := refOf(resolveAgainst(pageURL, l.URL))
		switch {
		case !ok:
		case l.Kind == hypertext.LinkImage:
			images = append(images, ref)
		default:
			links = append(links, ref)
		}
	}
	return links, images
}

// refOf reads an absolute URL as a walk target: a ~migrate path names its
// document at the home server it encodes, any other path names a
// document at the server addressed.
func refOf(url string) (Ref, bool) {
	addr, path, err := naming.SplitURL(url)
	if err != nil || addr == "" {
		return Ref{}, false
	}
	if home, name, err := naming.Decode(path); err == nil && home.Addr() != addr {
		return Ref{Addr: addr, Home: home.Addr(), Name: name}, true
	}
	return Ref{Addr: addr, Home: addr, Name: path}, true
}

// pathOf is the request path of a walk target, refOf's inverse.
func pathOf(r Ref) string {
	if r.Home == r.Addr {
		return r.Name
	}
	home, _ := naming.ParseOrigin(r.Home) // refOf read it from a valid path
	path, _ := naming.Encode(home, r.Name)
	return path
}

// urlOf is the absolute URL of a walk target.
func urlOf(r Ref) string { return "http://" + r.Addr + pathOf(r) }

// resolveAgainst turns a raw link from a document at baseURL into an
// absolute URL, or "" for unsupported schemes.
func resolveAgainst(baseURL, raw string) string {
	if strings.HasPrefix(raw, "http://") {
		return raw
	}
	if strings.Contains(raw, "://") || strings.HasPrefix(raw, "mailto:") || strings.HasPrefix(raw, "#") {
		return ""
	}
	baseAddr, basePath, err := naming.SplitURL(baseURL)
	if err != nil || baseAddr == "" {
		return ""
	}
	target := graph.ResolveLink(basePath, raw)
	if target == "" {
		// graph.ResolveLink rejects ~migrate paths; accept them here, the
		// client must be able to follow rewritten links.
		if strings.HasPrefix(raw, "/") {
			target = raw
		} else {
			return ""
		}
	}
	return "http://" + baseAddr + target
}

// absolutize resolves a Location header against the responding server.
func absolutize(addr, loc string) string {
	if strings.HasPrefix(loc, "http://") {
		return loc
	}
	if strings.HasPrefix(loc, "/") {
		return "http://" + addr + loc
	}
	return "http://" + addr + "/" + loc
}

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
// hot spots and increasing stale-link redirections), four helper goroutines
// model browser image parallelism, and 503 drops trigger exponential
// backoff, all as specified in the paper.
package webclient

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
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
	// MaxSteps bounds a sequence's length: each sequence performs
	// random(1..MaxSteps) navigation steps (paper: 25).
	MaxSteps int
	// ImageHelpers is the number of parallel image-fetching goroutines
	// (paper: 4).
	ImageHelpers int
	// ThinkTime, when non-zero, inserts a pause between navigation steps —
	// the user think time extension discussed in §6.
	ThinkTime time.Duration
	// MaxBackoff caps the exponential 503 backoff.
	MaxBackoff time.Duration
	// Stats receives measurements; required.
	Stats *Stats
}

func (c Config) withDefaults() Config {
	if c.Clock == nil {
		c.Clock = clock.Real{}
	}
	if c.MaxSteps <= 0 {
		c.MaxSteps = 25
	}
	if c.ImageHelpers <= 0 {
		c.ImageHelpers = 4
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 32 * time.Second
	}
	if c.Stats == nil {
		c.Stats = &Stats{}
	}
	return c
}

// Client is one simulated browsing user.
type Client struct {
	cfg    Config
	client *httpx.Client
	rng    *rand.Rand
	// cache holds the bodies fetched in the current access sequence,
	// keyed by URL.
	cache map[string][]byte
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
	return &Client{
		cfg: cfg,
		// Keep-alive pooling sized to the image-helper parallelism: one
		// sequence fetches a page plus its images from the same server, so
		// reusing connections mirrors what real browsers do.
		client: httpx.NewPooledClient(cfg.Dialer, httpx.PoolConfig{MaxIdlePerHost: cfg.ImageHelpers}),
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		cache:  make(map[string][]byte),
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

// RunSequence performs one access sequence of Algorithm 2: reset the cache,
// start at a random entry point, and follow random(1..MaxSteps) links.
func (c *Client) RunSequence(stop <-chan struct{}) {
	c.cache = make(map[string][]byte) // reset cache
	current := c.cfg.EntryURLs[c.rng.Intn(len(c.cfg.EntryURLs))]
	steps := 1 + c.rng.Intn(c.cfg.MaxSteps)
	for i := 0; i < steps; i++ {
		select {
		case <-stop:
			return
		default:
		}
		body, finalURL, ok := c.fetch(current, stop)
		if !ok {
			break
		}
		doc := hypertext.Parse(string(body))
		c.fetchImages(finalURL, doc, stop)
		next, ok := c.pickLink(finalURL, doc)
		if !ok {
			break // dead end: restart from an entry point next sequence
		}
		current = next
		if c.cfg.ThinkTime > 0 && !c.wait(c.cfg.ThinkTime, stop) {
			return
		}
	}
	c.cfg.Stats.Sequences.Inc()
}

// ResetCache clears the client-side cache, as happens at the start of each
// access sequence.
func (c *Client) ResetCache() {
	c.cache = make(map[string][]byte)
}

// Fetch retrieves one absolute URL the way a sequence step does — following
// redirects, backing off on 503 — and reports the body and final URL. It is
// the single-document entry point used by harnesses and tools.
func (c *Client) Fetch(url string) (body []byte, finalURL string, ok bool) {
	return c.fetch(url, nil)
}

// fetch retrieves a URL through the sequence cache.
func (c *Client) fetch(url string, stop <-chan struct{}) (body []byte, finalURL string, ok bool) {
	if body, hit := c.cache[url]; hit {
		return body, url, true
	}
	body, finalURL, ok = c.get(url, stop)
	if ok {
		c.cache[url] = body
		c.cache[finalURL] = body
	}
	return body, finalURL, ok
}

// get retrieves a URL, following redirects and backing off exponentially
// on 503 drops ("a client thread sleeps for a second at the first drop, two
// seconds at the second drop, four seconds at the third", §5.2). It returns
// the body and the final URL after redirects. Closing stop ends it, in the
// middle of a backoff too. get leaves the cache to its callers.
func (c *Client) get(url string, stop <-chan struct{}) (body []byte, finalURL string, ok bool) {
	backoff := time.Second
	redirects := 0
	cur := url
	for attempt := 0; attempt < 12; attempt++ {
		select {
		case <-stop:
			return nil, "", false
		default:
		}
		addr, path, err := naming.SplitURL(cur)
		if err != nil || addr == "" {
			c.cfg.Stats.Errors.Inc()
			return nil, "", false
		}
		resp, err := c.client.Get(addr, path, nil)
		if err != nil {
			c.cfg.Stats.Errors.Inc()
			return nil, "", false
		}
		switch resp.Status {
		case 200:
			c.cfg.Stats.Connections.Inc()
			c.cfg.Stats.Bytes.Add(int64(len(resp.Body)))
			return resp.Body, cur, true
		case 301, 302:
			c.cfg.Stats.Redirects.Inc()
			loc := resp.Header.Get("Location")
			if loc == "" || redirects >= 5 {
				c.cfg.Stats.Errors.Inc()
				return nil, "", false
			}
			redirects++
			cur = absolutize(addr, loc)
		case 503:
			c.cfg.Stats.Drops.Inc()
			if !c.wait(backoff, stop) {
				return nil, "", false
			}
			backoff = min(2*backoff, c.cfg.MaxBackoff)
		default:
			c.cfg.Stats.Errors.Inc()
			return nil, "", false
		}
	}
	return nil, "", false
}

// wait pauses for d on the configured clock, and reports false when stop
// closes first.
func (c *Client) wait(d time.Duration, stop <-chan struct{}) bool {
	select {
	case <-stop:
		return false
	case <-c.cfg.Clock.After(d):
		return true
	}
}

// fetchImages requests the document's embedded images in parallel using the
// configured number of helper goroutines, skipping cached ones, and waits
// for all of them ("request all embedded images in parallel ... wait until
// all the requested documents arrive").
func (c *Client) fetchImages(baseURL string, doc *hypertext.Document, stop <-chan struct{}) {
	imgs := doc.LinkURLs(hypertext.LinkImage)
	if len(imgs) == 0 {
		return
	}
	type job struct{ url string }
	var jobs []job
	var mu sync.Mutex
	for _, raw := range imgs {
		u := resolveAgainst(baseURL, raw)
		if u == "" {
			continue
		}
		if _, hit := c.cache[u]; hit {
			continue
		}
		jobs = append(jobs, job{u})
	}
	if len(jobs) == 0 {
		return
	}
	ch := make(chan job, len(jobs))
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	helpers := c.cfg.ImageHelpers
	if helpers > len(jobs) {
		helpers = len(jobs)
	}
	var wg sync.WaitGroup
	for h := 0; h < helpers; h++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				body, finalURL, ok := c.get(j.url, stop)
				if ok {
					mu.Lock()
					c.cache[j.url] = body
					c.cache[finalURL] = body
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
}

// pickLink selects a random navigable anchor or frame from the document.
func (c *Client) pickLink(baseURL string, doc *hypertext.Document) (string, bool) {
	candidates := doc.LinkURLs(hypertext.LinkAnchor, hypertext.LinkFrame)
	var resolved []string
	for _, raw := range candidates {
		if u := resolveAgainst(baseURL, raw); u != "" {
			resolved = append(resolved, u)
		}
	}
	if len(resolved) == 0 {
		return "", false
	}
	return resolved[c.rng.Intn(len(resolved))], true
}

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

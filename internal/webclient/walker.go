package webclient

import (
	"math/rand"
	"time"
)

// Algorithm 2's fixed figures (§5.2).
const (
	maxSteps     = 25               // a sequence takes random(1..25) steps
	imageHelpers = 4                // images fetched in parallel
	firstBackoff = time.Second      // the wait after a request's first 503
	maxBackoff   = 32 * time.Second // the doubling backoff's cap
	maxRedirects = 5                // redirects one request follows
	maxDrops     = 12               // the 503 at which a request is abandoned
)

// Ref names one request target of a walk: the server the request goes to
// and the document it asks for. Home and Name are the document's identity
// and so its key in the per-sequence cache: a document is one cache entry
// whether a link points at its home or at a co-op hosting it.
type Ref struct {
	Addr string // the server the request is sent to ("host:port")
	Home string // the document's home server
	Name string // the document's path at its home
}

type docID struct{ home, name string }

func (r Ref) id() docID { return docID{r.Home, r.Name} }

// Entries are where sequences start: entry points grouped by site. Each
// sequence draws a site, then one of that site's entry points.
type Entries struct {
	Sites [][]Ref
	// SkewFirst, when positive, is the chance that a sequence starts at
	// the first site; the other sites share the rest evenly. Zero draws
	// the site uniformly.
	SkewFirst float64
}

// Request is one transfer a Walker asks its driver to make.
type Request struct {
	Ref Ref
	// Image marks an embedded image, fetched by one of the four helpers;
	// otherwise the request is the page of the current step.
	Image bool
	// Delay is how long the driver waits before sending: the backoff
	// after a 503. For a Pause it is the think time.
	Delay time.Duration

	backoff   time.Duration // the wait after the next 503
	redirects int           // redirects followed so far
	drops     int           // 503s received so far
}

// First reports whether r is a request's first attempt, not a redirect
// hop or a retry after a 503.
func (r Request) First() bool { return r.redirects == 0 && r.drops == 0 }

// Step is what a driver does next.
type Step int

// The moves Next returns.
const (
	Send  Step = iota // send the returned request
	Wait              // wait for a reply to a request in flight
	Pause             // think for the returned Delay, then call Next again
	End               // the sequence is over; the next call starts another
)

// Walker is Algorithm 2 (see the package comment) as a seeded state
// machine with no clock and no network. A driver calls Next for each move:
// it sends each request it is given, hands every reply back through
// OnReply, and waits out each pause. The Walker owns every rule of the
// algorithm: the step budget (drawn before the entry point), the cache, at
// most four images in flight, backoff on 503 (1 s doubling to 32 s, a
// request abandoned at its twelfth drop), at most five redirects per
// request, and the uniform choice over a page's navigable links as
// written, duplicates included. It is not safe for concurrent use.
type Walker struct {
	// Entries are where sequences start. A driver may change them between
	// sequences.
	Entries Entries
	// Think is the pause before every step after a sequence's first.
	Think time.Duration

	rng      *rand.Rand
	running  bool           // a walk has started and its End is not yet reported
	steps    int            // steps left, the current one included
	pages    map[docID]page // pages fetched this sequence
	images   map[docID]bool // images fetched or queued this sequence
	cur      page           // the page of the current step
	queue    []Ref          // its images still waiting for a helper
	ready    []Request      // requests for the next calls of Next
	inFlight int            // requests handed out and not yet answered
	going    bool           // the walk owes a step to target
	target   Ref            // the page of the next step
	pause    time.Duration  // think time owed before going there
}

// page is what a fetched page contributes to the walk: its links.
type page struct{ links, images []Ref }

// NewWalker returns a walker whose every draw comes from seed.
func NewWalker(seed int64, entries Entries) *Walker {
	return &Walker{Entries: entries, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the driver's next move. With no sequence under way it
// starts one: it clears the cache, draws the step budget and then the
// entry point. A step the cache answers costs its think time and sends
// nothing.
func (w *Walker) Next() (Request, Step) {
	if !w.running {
		w.start()
	}
	for w.going {
		if w.pause > 0 {
			d := w.pause
			w.pause = 0
			return Request{Delay: d}, Pause
		}
		w.going = false
		if p, hit := w.pages[w.target.id()]; hit {
			w.visit(p) // may owe the next step
		} else {
			w.ready = append(w.ready, newRequest(w.target, false))
		}
	}
	if len(w.ready) > 0 {
		r := w.ready[0]
		w.ready = append(w.ready[:0], w.ready[1:]...)
		w.inFlight++
		return r, Send
	}
	if w.inFlight > 0 {
		return Request{}, Wait
	}
	w.running = false
	return Request{}, End
}

// OnReply takes the reply to a request Next handed out: its status (0 for
// a transport failure), the target of a redirect, and, for a page, its
// navigable links and embedded images. It reports whether the request
// failed: a status other than 200, 301, 302 and 503, a redirect beyond the
// fifth or without a target, or the twelfth 503. A failed page ends the
// sequence; a failed image is skipped.
func (w *Walker) OnReply(r Request, status int, location Ref, links, images []Ref) (failed bool) {
	w.inFlight--
	switch {
	case status == 200 && !r.Image:
		p := page{links, images}
		w.pages[r.Ref.id()] = p
		w.visit(p)
		return false
	case status == 200:
	case (status == 301 || status == 302) && r.redirects < maxRedirects && location.Addr != "":
		r.Ref, r.Delay = location, 0
		r.redirects++
		w.ready = append(w.ready, r)
		return false
	case status == 503 && r.drops+1 < maxDrops:
		r.Delay = r.backoff
		r.backoff = min(2*r.backoff, maxBackoff)
		r.drops++
		w.ready = append(w.ready, r)
		return false
	case !r.Image:
		return true // the sequence ends
	default:
		failed = true
	}
	w.fillImages()
	return failed
}

// Reset abandons the sequence under way; the next call of Next starts a
// new one. Replies still owed to the old sequence must not be handed back.
func (w *Walker) Reset() {
	w.running = false
	w.queue, w.ready = w.queue[:0], w.ready[:0]
	w.inFlight, w.going, w.pause = 0, false, 0
}

func newRequest(ref Ref, image bool) Request {
	return Request{Ref: ref, Image: image, backoff: firstBackoff}
}

// start begins a sequence: reset the cache, draw the budget, then the
// entry point, and go there.
func (w *Walker) start() {
	w.Reset()
	w.running = true
	w.pages = make(map[docID]page)
	w.images = make(map[docID]bool)
	w.steps = 1 + w.rng.Intn(maxSteps)
	w.going, w.target = true, w.entry()
}

// entry draws an entry point: a site (the first with chance SkewFirst,
// when set), then one of its entry points.
func (w *Walker) entry() Ref {
	sites := w.Entries.Sites
	site := sites[0]
	if n := len(sites); n > 1 {
		switch skew := w.Entries.SkewFirst; {
		case skew <= 0:
			site = sites[w.rng.Intn(n)]
		case w.rng.Float64() >= skew:
			site = sites[1+w.rng.Intn(n-1)]
		}
	}
	return site[w.rng.Intn(len(site))]
}

// visit queues the page's images that this sequence has not fetched yet
// and hands them to the helpers.
func (w *Walker) visit(p page) {
	w.cur = p
	w.queue = w.queue[:0]
	for _, img := range p.images {
		if !w.images[img.id()] {
			w.images[img.id()] = true
			w.queue = append(w.queue, img)
		}
	}
	w.fillImages()
}

// fillImages keeps up to four images in flight; once the page's last image
// is answered, the walk takes its next step.
func (w *Walker) fillImages() {
	for ; len(w.queue) > 0 && w.inFlight+len(w.ready) < imageHelpers; w.queue = w.queue[1:] {
		w.ready = append(w.ready, newRequest(w.queue[0], true))
	}
	if len(w.queue) == 0 && len(w.ready) == 0 && w.inFlight == 0 {
		w.step()
	}
}

// step ends the current step: with budget left and a link to follow, it
// picks one uniformly, to go there after the think time; otherwise the
// sequence is over.
func (w *Walker) step() {
	w.steps--
	if w.steps <= 0 || len(w.cur.links) == 0 {
		return // the sequence ends
	}
	w.going, w.pause = true, w.Think
	w.target = w.cur.links[w.rng.Intn(len(w.cur.links))]
}

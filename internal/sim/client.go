package sim

import (
	"time"

	"dcws/internal/webclient"
)

// simClient is one Algorithm 2 client thread: a webclient.Walker, which
// owns every rule of the algorithm, driven by the event heap.
type simClient struct {
	walk    *webclient.Walker
	fetchAt time.Time // when the current page's first attempt was sent
}

// clientStart begins a client's next sequence. Under RR-DNS it resolves
// the site once, the answers rotated round-robin (the coarse granularity
// of §1).
func (w *World) clientStart(c *simClient) {
	if w.cfg.Mode == ModeRRDNS {
		c.walk.Entries = w.entries[w.rrDNS%len(w.entries)]
		w.rrDNS++
	}
	w.clientPump(c)
}

// clientPump makes the walker's moves until it waits for a reply or a
// pause. Once a sequence ends, the next starts 1 ms later.
func (w *World) clientPump(c *simClient) {
	if !w.now.Before(w.stopAt) {
		return
	}
	for {
		req, step := c.walk.Next()
		switch step {
		case webclient.Send:
			if req.Delay > 0 { // a 503's backoff
				w.schedule(req.Delay, func() { w.clientSend(c, req) })
			} else {
				w.clientSend(c, req)
			}
			continue
		case webclient.Pause:
			w.schedule(req.Delay, func() { w.clientPump(c) })
		case webclient.End:
			w.res.Sequences++
			w.schedule(time.Millisecond, func() { w.clientStart(c) })
		}
		return
	}
}

// clientSend sends one request of the walk.
func (w *World) clientSend(c *simClient, req webclient.Request) {
	if !w.now.Before(w.stopAt) {
		return
	}
	if !req.Image && req.First() {
		c.fetchAt = w.now
	}
	if w.onSend != nil {
		w.onSend(req)
	}
	w.dispatch(req.Ref, func(rep reply) { w.clientReply(c, req, rep) })
}

// clientReply counts a reply and hands it to the walker. Latency is a
// page's, from its first attempt to its 200.
func (w *World) clientReply(c *simClient, req webclient.Request, rep reply) {
	if !w.now.Before(w.stopAt) {
		return
	}
	switch rep.status {
	case 200:
		w.res.Connections++
		w.res.Bytes += rep.bytes
		if !req.Image {
			w.res.Latency.Observe(w.now.Sub(c.fetchAt))
		}
	case 301:
		w.res.Redirects++
	case 503:
		w.res.Drops++
	}
	var links, images []target
	if rep.doc != nil {
		links, images = w.route(rep.doc.links), w.route(rep.doc.images)
	}
	if c.walk.OnReply(req, rep.status, rep.loc, links, images) {
		w.res.Errors++
	}
	w.clientPump(c)
}

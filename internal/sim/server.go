package sim

import (
	"slices"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/glt"
	"dcws/internal/graph"
	"dcws/internal/policy"
	"dcws/internal/webclient"
)

// target addresses one document request: which server to contact, which
// home server owns the document, and the document's name there. Addr ==
// Home is a plain request; Addr != Home is a ~migrate request at a co-op.
// It is the walker's Ref, so a served link goes to the client unconverted.
type target = webclient.Ref

// hostKey is a co-op's key for a target's document identity.
func hostKey(t target) string { return t.Home + "|" + t.Name }

// servedDoc is the simulated payload of a 200 response for an HTML page:
// its size and its hyperlinks as last rendered, each already resolved to
// the host assigned at regeneration time — exactly what a client browser
// would see in the rewritten HTML.
type servedDoc struct {
	size   int64
	links  []target // navigable links, in document order
	images []target // embedded images, in document order
}

// current reports whether a copy rendered as d still matches the home's
// rendering now: the live validator compares content hashes, and a
// simulated page's content is its rewritten links.
func (d *servedDoc) current(cur *servedDoc) bool {
	return d == cur || slices.Equal(d.links, cur.links) && slices.Equal(d.images, cur.images)
}

// reply is a simulated HTTP response.
type reply struct {
	status int // 200, 301, 404, 503
	bytes  int64
	doc    *servedDoc // non-nil for 200 HTML pages
	loc    target     // redirect target for 301
}

// simDoc is what a home keeps of one document beside its graph tuple
// (§3.3, in graph.LDG): the specification it renders from and its last
// rendering.
type simDoc struct {
	spec     *dataset.Doc
	snapshot *servedDoc
}

// hostedDoc is the co-op-side state of one document hosted for a peer.
type hostedDoc struct {
	present    bool
	fetching   bool
	doc        *servedDoc
	windowHits int64
	waiters    []func(reply)
}

// simServer is one simulated workstation running the DCWS server.
type simServer struct {
	w    *World
	addr string
	cost CostModel

	workers  []time.Time // per-worker busy-until
	nicBusy  time.Time
	waiting  int
	queueLen int
	// capacity is the analytic achievable throughput of this workstation
	// (the live server's calibrated estimate, known exactly here because
	// the cost model is explicit). Gossiped with the load entry so peers
	// rank placement targets by headroom; 0 when normalization is off.
	capacity float64

	// Home-side state. ldg is the production document graph; ctl is the
	// production control plane (dcws.Controller) with this server as its
	// Plant, and ldg, table and ledger are shared with it.
	docs     map[string]*simDoc
	ldg      *graph.LDG
	table    *glt.Table
	ledger   *policy.Ledger
	ctl      *dcws.Controller
	replicas map[string][]string
	rr       map[string]int

	// Co-op-side state.
	hosted map[string]*hostedDoc

	// Counters.
	conns          int64
	windowConns    int64
	windowBytes    int64
	bytesOut       int64
	drops          int64
	redirects      int64
	fetches        int64
	rebuilds       int64
	migrations     int64
	revocations    int64
	chainPushes    int64
	chainPushBytes int64
	// Push-invalidation mirror (active when Params.LeaseDuration > 0):
	// validations counts validator polls actually issued, leaseSkips the
	// polls elided under lease cover, invalPushes the invalidations the
	// home delivered directly to hosted copies.
	validations int64
	leaseSkips  int64
	invalPushes int64
}

func newSimServer(w *World, addr string, params dcws.Params, cost CostModel) *simServer {
	s := &simServer{
		w:        w,
		addr:     addr,
		cost:     cost,
		workers:  make([]time.Time, params.Workers),
		queueLen: params.QueueLength,
		docs:     make(map[string]*simDoc),
		ldg:      graph.New(),
		table:    glt.NewTable(addr),
		ledger:   policy.NewLedger(),
		replicas: make(map[string][]string),
		rr:       make(map[string]int),
		hosted:   make(map[string]*hostedDoc),
	}
	s.ctl = &dcws.Controller{
		Self:   addr,
		Params: params,
		Plant:  s,
		Graph:  s.ldg,
		Table:  s.table,
		Ledger: s.ledger,
		Gate:   policy.NewRateGate(params.StatsInterval, params.CoopMigrateInterval),
	}
	// Mirror the live server's startup calibration: seed the gossiped
	// capacity/zone self-metadata before the first exchange.
	if params.CapacityEnabled() {
		s.capacity = cost.analyticCapacity(params.Workers, params.UseBPSMetric)
		s.table.SetSelfInfo(s.capacity, params.Zone)
	} else if params.Zone != "" {
		s.table.SetSelfInfo(0, params.Zone)
	}
	return s
}

// loadSite installs a data set on this server as its home content.
func (s *simServer) loadSite(site *dataset.Site) {
	for i := range site.Docs {
		d := &site.Docs[i]
		s.docs[d.Name] = &simDoc{spec: d}
		links := make([]string, len(d.Links))
		for j, l := range d.Links {
			links[j] = l.URL
		}
		s.ldg.AddDoc(d.Name, d.Size, links)
	}
	for _, ep := range site.EntryPoints {
		s.ldg.SetEntryPoint(ep, true)
	}
}

// Replicas lists the co-ops hosting a document, primary first; callers
// must not modify the result.
func (s *simServer) Replicas(name string) []string { return s.replicas[name] }

// Usable: simulated peers never fail, so any server that exists will do.
func (s *simServer) Usable(e glt.Entry) bool { return s.w.servers[e.Server] != nil }

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// reserveWorker commits the earliest-free worker to a service of the given
// length and returns the service start time.
func (s *simServer) reserveWorker(now time.Time, service time.Duration) time.Time {
	best := 0
	for i := 1; i < len(s.workers); i++ {
		if s.workers[i].Before(s.workers[best]) {
			best = i
		}
	}
	start := maxTime(now, s.workers[best])
	s.workers[best] = start.Add(service)
	return start
}

// finish commits a computed reply to the worker pool and NIC and schedules
// its arrival at the requester.
func (s *simServer) finish(rep reply, extraService time.Duration, done func(reply)) {
	w := s.w
	var service time.Duration
	switch rep.status {
	case 301:
		service = s.cost.RedirectOverhead
	case 404:
		service = s.cost.RedirectOverhead
	default:
		service = s.cost.serviceTime(rep.bytes)
	}
	service += extraService
	s.waiting++
	start := s.reserveWorker(w.now, service)
	w.scheduleAt(start, func() { s.waiting-- })
	doneAt := start.Add(service)
	tx := maxTime(s.nicBusy, doneAt).Add(s.cost.txTime(rep.bytes))
	s.nicBusy = tx
	s.conns++
	s.windowConns++
	s.windowBytes += rep.bytes
	s.bytesOut += rep.bytes
	if rep.status == 301 {
		s.redirects++
	}
	w.scheduleAt(tx.Add(s.cost.RTT/2), func() { done(rep) })
}

// admit is the front-end thread: drop with 503 when the socket queue is
// full, otherwise serve.
func (s *simServer) admit(t target, done func(reply)) {
	w := s.w
	if s.waiting >= s.queueLen {
		s.drops++
		w.schedule(s.cost.RTT/2, func() { done(reply{status: 503}) })
		return
	}
	if t.Addr != t.Home {
		s.admitCoop(t, done)
		return
	}
	rep, extra := s.serveHome(t.Name)
	s.finish(rep, extra, done)
}

// serveHome computes the reply for a request for one of this server's own
// documents, mutating home-side state (hit counts, dirty regeneration).
func (s *simServer) serveHome(name string) (reply, time.Duration) {
	d, ok := s.docs[name]
	if !ok {
		return reply{status: 404, bytes: s.cost.RedirectBytes}, 0
	}
	location, dirty, _, _ := s.ldg.ServeInfo(name)
	if location != "" {
		return reply{
			status: 301,
			bytes:  s.cost.RedirectBytes,
			loc:    target{Addr: s.pickReplica(name), Home: s.addr, Name: name},
		}, 0
	}
	var extra time.Duration
	if d.snapshot == nil {
		s.render(name, d)
		if d.spec.IsHTML() {
			extra += s.cost.ParseCost
		}
	} else if dirty {
		s.render(name, d)
		if d.spec.IsHTML() {
			s.rebuilds++
			extra += s.cost.RegenCost
		}
	}
	s.ldg.RecordHit(name)
	return reply{status: 200, bytes: d.spec.Size, doc: d.snapshot}, extra
}

// render recomputes a document's served hyperlinks from the graph's
// current locations — the simulated equivalent of parsing the HTML,
// rewriting moved links, and re-rendering (§4.3) — and clears its Dirty
// bit.
func (s *simServer) render(name string, d *simDoc) {
	var links, images []target
	for _, l := range d.spec.Links {
		addr := s.addr
		if loc, _ := s.ldg.Location(l.URL); loc != "" {
			addr = s.pickReplica(l.URL)
		}
		t := target{Addr: addr, Home: s.addr, Name: l.URL}
		if l.Image {
			images = append(images, t)
		} else {
			links = append(links, t)
		}
	}
	s.ldg.ClearDirty(name)
	d.snapshot = &servedDoc{size: d.spec.Size, links: links, images: images}
}

// rendered returns a document's current rendering, re-rendering it first
// when it has none or is dirty.
func (s *simServer) rendered(name string, d *simDoc) *servedDoc {
	if d.snapshot == nil || s.ldg.IsDirty(name) {
		s.render(name, d)
	}
	return d.snapshot
}

// pickReplica rotates across a migrated document's replica set (identical
// to dcws.Server.pickReplica).
func (s *simServer) pickReplica(name string) string {
	reps := s.replicas[name]
	if len(reps) == 1 {
		return reps[0]
	}
	i := s.rr[name] % len(reps)
	s.rr[name]++
	return reps[i]
}

// admitCoop serves a ~migrate request, lazily fetching the document from
// its home server on first touch (§4.2).
func (s *simServer) admitCoop(t target, done func(reply)) {
	key := hostKey(t)
	h, ok := s.hosted[key]
	if !ok {
		h = &hostedDoc{}
		s.hosted[key] = h
	}
	if h.present {
		h.windowHits++
		s.finish(reply{status: 200, bytes: h.doc.size, doc: h.doc}, 0, done)
		return
	}
	h.waiters = append(h.waiters, done)
	if h.fetching {
		return
	}
	h.fetching = true
	s.w.internalFetch(s, t, func(rep reply) {
		h.fetching = false
		waiters := h.waiters
		h.waiters = nil
		if rep.status == 200 {
			h.present = true
			h.doc = rep.doc
			s.fetches++
			for _, dn := range waiters {
				h.windowHits++
				s.finish(reply{status: 200, bytes: h.doc.size, doc: h.doc}, 0, dn)
			}
			return
		}
		// Not assigned to us (revoked/re-migrated): relay a redirect home.
		delete(s.hosted, key)
		for _, dn := range waiters {
			s.finish(reply{
				status: 301,
				bytes:  s.cost.RedirectBytes,
				loc:    target{Addr: t.Home, Home: t.Home, Name: t.Name},
			}, 0, dn)
		}
	})
}

// dropHosted discards a hosted copy (revocation).
func (s *simServer) dropHosted(home, name string) {
	delete(s.hosted, hostKey(target{Home: home, Name: name}))
}

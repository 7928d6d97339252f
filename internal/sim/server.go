package sim

import (
	"sort"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/glt"
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
// its size and its hyperlinks as of the serving copy's rewrite version,
// each already resolved to the host assigned at regeneration time —
// exactly what a client browser would see in the rewritten HTML.
type servedDoc struct {
	size    int64
	links   []target // navigable links, in document order
	images  []target // embedded images, in document order
	version int
}

// reply is a simulated HTTP response.
type reply struct {
	status int // 200, 301, 404, 503
	bytes  int64
	doc    *servedDoc // non-nil for 200 HTML pages
	loc    target     // redirect target for 301
}

// simDoc is the home-side state of one document (the LDG tuple, §3.3).
type simDoc struct {
	spec       *dataset.Doc
	location   string // co-op address, "" while at home
	dirty      bool
	entry      bool
	hits       int64
	windowHits int64
	linkFrom   []string
	snapshot   *servedDoc // current regenerated form
	version    int        // bumped on every regeneration/content change
}

// hostedDoc is the co-op-side state of one document hosted for a peer.
type hostedDoc struct {
	present    bool
	fetching   bool
	doc        *servedDoc
	version    int
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

	// Home-side state. ctl is the production control plane (dcws.Controller)
	// with this server as its Plant; table and ledger are shared with it.
	docs     map[string]*simDoc
	docNames []string
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
		s.docNames = append(s.docNames, d.Name)
	}
	sort.Strings(s.docNames)
	for _, ep := range site.EntryPoints {
		if d, ok := s.docs[ep]; ok {
			d.entry = true
		}
	}
	// LinkFrom inversion, mirroring graph.Build.
	for i := range site.Docs {
		from := &site.Docs[i]
		seen := map[string]bool{}
		for _, l := range from.Links {
			if l.URL == from.Name || seen[l.URL] {
				continue
			}
			seen[l.URL] = true
			if to, ok := s.docs[l.URL]; ok {
				to.linkFrom = append(to.linkFrom, from.Name)
			}
		}
	}
}

// Docs is the control plane's view of this server's documents
// (dcws.Plant), in name order.
func (s *simServer) Docs() []dcws.DocStat {
	out := make([]dcws.DocStat, 0, len(s.docNames))
	for _, name := range s.docNames {
		d := s.docs[name]
		remote := 0
		for _, from := range d.linkFrom {
			if fd, ok := s.docs[from]; ok && fd.location != "" {
				remote++
			}
		}
		out = append(out, dcws.DocStat{
			Name:           name,
			WindowHits:     d.windowHits,
			Size:           d.spec.Size,
			EntryPoint:     d.entry,
			Location:       d.location,
			RemoteLinkFrom: remote,
			LinkTo:         len(d.spec.Links),
		})
	}
	return out
}

// Replicas lists the co-ops hosting a document, primary first; callers
// must not modify the result.
func (s *simServer) Replicas(name string) []string {
	if reps := s.replicas[name]; len(reps) > 0 {
		return reps
	}
	if d, ok := s.docs[name]; ok && d.location != "" {
		return []string{d.location}
	}
	return nil
}

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
	if d.location != "" {
		return reply{
			status: 301,
			bytes:  s.cost.RedirectBytes,
			loc:    target{Addr: s.pickReplica(name), Home: s.addr, Name: name},
		}, 0
	}
	var extra time.Duration
	if d.snapshot == nil {
		s.rebuildSnapshot(d)
		if d.spec.IsHTML() {
			extra += s.cost.ParseCost
		}
	} else if d.dirty {
		s.rebuildSnapshot(d)
		if d.spec.IsHTML() {
			s.rebuilds++
			extra += s.cost.RegenCost
		}
	}
	d.hits++
	d.windowHits++
	return reply{status: 200, bytes: d.spec.Size, doc: d.snapshot}, extra
}

// rebuildSnapshot recomputes a document's served hyperlinks from the
// current migration state — the simulated equivalent of parsing the HTML,
// rewriting moved links, and re-rendering (§4.3).
func (s *simServer) rebuildSnapshot(d *simDoc) {
	var links, images []target
	for _, l := range d.spec.Links {
		addr := s.addr
		if td, ok := s.docs[l.URL]; ok && td.location != "" {
			addr = s.pickReplica(l.URL)
		}
		t := target{Addr: addr, Home: s.addr, Name: l.URL}
		if l.Image {
			images = append(images, t)
		} else {
			links = append(links, t)
		}
	}
	d.version++
	d.dirty = false
	d.snapshot = &servedDoc{
		size:    d.spec.Size,
		links:   links,
		images:  images,
		version: d.version,
	}
}

// pickReplica rotates across a migrated document's replica set (identical
// to dcws.Server.pickReplica).
func (s *simServer) pickReplica(name string) string {
	reps := s.replicas[name]
	if len(reps) == 0 {
		if d, ok := s.docs[name]; ok {
			return d.location
		}
		return s.addr
	}
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
			h.version = rep.doc.version
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

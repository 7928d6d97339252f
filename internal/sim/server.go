package sim

import (
	"slices"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/glt"
	"dcws/internal/graph"
	"dcws/internal/naming"
	"dcws/internal/policy"
	"dcws/internal/webclient"
)

// target addresses one document request: which server to contact, which
// home server owns the document, and the document's name there. Addr ==
// Home is a plain request; Addr != Home is a ~migrate request at a co-op.
// It is the walker's Ref, so a served link goes to the client unconverted.
type target = webclient.Ref

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
	// Plant, and ldg, table and ledger are shared with it. replicas is the
	// production replica table.
	docs     map[string]*simDoc
	ldg      *graph.LDG
	table    *glt.Table
	ledger   *policy.Ledger
	ctl      *dcws.Controller
	replicas *dcws.ReplicaTable

	// Co-op side. coop is the production co-op core, which keeps the
	// hosted copies' records and the peers' health; copies is the
	// simulated disk holding the copies' payloads by key, and waiters the
	// requests parked on a fetch in flight.
	coop    *dcws.Coop
	copies  map[string]*servedDoc
	waiters map[string][]func(reply)
	keys    map[[2]string]string // hostKey's encodings, by (home, name)

	// Counters.
	conns          int64
	windowConns    int64
	windowBytes    int64
	bytesOut       int64
	drops          int64
	redirects      int64
	rebuilds       int64
	migrations     int64
	revocations    int64
	chainPushes    int64
	chainPushBytes int64
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
		copies:   make(map[string]*servedDoc),
		waiters:  make(map[string][]func(reply)),
		keys:     make(map[[2]string]string),
	}
	s.replicas = dcws.NewReplicaTable(params.Zone, s.table)
	s.coop = dcws.NewCoop(params, s.table)
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
func (s *simServer) Replicas(name string) []string { return s.replicas.Get(name) }

// Usable reads the co-op core's peer health: a peer with failed probes or
// declared down takes no documents.
func (s *simServer) Usable(e glt.Entry) bool { return !s.coop.Suspect(e.Server) }

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
			loc:    target{Addr: s.replicas.Pick(name), Home: s.addr, Name: name},
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
			addr = s.replicas.Pick(l.URL)
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

// hostKey is a co-op's key for a document: its /~migrate path, as the
// live server names a hosted copy. Each is encoded once and remembered,
// as every co-op request asks for one.
func (s *simServer) hostKey(home, name string) string {
	key, ok := s.keys[[2]string{home, name}]
	if !ok {
		origin, _ := naming.ParseOrigin(home)
		key, _ = naming.Encode(origin, name)
		s.keys[[2]string{home, name}] = key
	}
	return key
}

// admitCoop serves a ~migrate request as the co-op core decides: the
// present copy, or a lazy fetch from the document's home on first touch
// (§4.2). A request that arrives while that fetch is in flight joins its
// waiters: they are the simulator's stand-in for the live server's
// goroutines, which each block on a fetch of their own.
func (s *simServer) admitCoop(t target, done func(reply)) {
	key := s.hostKey(t.Home, t.Name)
	_, act := s.coop.Touch(key, s.w.now)
	switch act {
	case dcws.CoopServe:
		s.serveCopy(key, t, done)
	case dcws.CoopValidate:
		s.validate(key, func() { s.serveCopy(key, t, done) })
	case dcws.CoopFetch:
		inFlight := len(s.waiters[key]) > 0
		s.waiters[key] = append(s.waiters[key], done)
		if inFlight {
			return
		}
		s.w.internalFetch(s, t, func(rep reply) {
			if rep.status == 200 {
				s.admitCopy(key, rep.doc)
			} else {
				s.dropCopy(key) // not assigned to us (revoked/re-migrated)
			}
			waiters := s.waiters[key]
			delete(s.waiters, key)
			for _, dn := range waiters {
				s.serveCopy(key, t, dn)
			}
		})
	}
}

// serveCopy answers from the copy of key, or relays a redirect home when
// the home no longer places the document here.
func (s *simServer) serveCopy(key string, t target, done func(reply)) {
	if doc := s.copies[key]; doc != nil {
		s.finish(reply{status: 200, bytes: doc.size, doc: doc}, 0, done)
		return
	}
	s.finish(reply{
		status: 301,
		bytes:  s.cost.RedirectBytes,
		loc:    target{Addr: t.Home, Home: t.Home, Name: t.Name},
	}, 0, done)
}

// admitCopy stores an arrived copy as the co-op core admits it.
func (s *simServer) admitCopy(key string, doc *servedDoc) {
	ok, evicted := s.coop.Admit(key, doc.size, 0, s.w.now)
	if !ok {
		return
	}
	s.copies[key] = doc
	for _, k := range evicted {
		delete(s.copies, k)
	}
}

// dropCopy discards a hosted copy (revocation).
func (s *simServer) dropCopy(key string) {
	s.coop.Drop(key)
	delete(s.copies, key)
}

package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/metrics"
	"dcws/internal/webclient"
)

// Mode selects the load-balancing architecture under test.
type Mode int

// Modes.
const (
	// ModeDCWS is the paper's system: one home server per site, empty
	// co-op servers, hyperlink-rewriting migration.
	ModeDCWS Mode = iota
	// ModeRRDNS is the round-robin DNS baseline (§2, NCSA-style): every
	// server holds a full replica; each client sequence is pinned to one
	// server by its cached DNS answer.
	ModeRRDNS
	// ModeRouter is the centralized TCP router baseline (§2, IBM /
	// LocalDirector-style): all traffic passes through one router that
	// forwards round-robin to full replicas.
	ModeRouter
)

func (m Mode) String() string {
	switch m {
	case ModeDCWS:
		return "DCWS"
	case ModeRRDNS:
		return "RR-DNS"
	case ModeRouter:
		return "Router"
	default:
		return "unknown"
	}
}

// Config describes one simulation run.
type Config struct {
	// Site is the data set served (its entry points are the client start
	// URLs).
	Site *dataset.Site
	// Servers is the total number of server workstations. In ModeDCWS the
	// first hosts the site and the rest start empty; in the baseline modes
	// every server holds a full replica.
	Servers int
	// Clients is the number of simulated client threads.
	Clients int
	// Duration is the virtual time simulated.
	Duration time.Duration
	// SampleEvery is the sampling interval for the CPS/BPS time series
	// (paper: 10 s).
	SampleEvery time.Duration
	// Params are the DCWS tunables, resolved by Params.WithDefaults exactly
	// as a live server resolves them: a zero HotReplicateRate means the
	// default chain-replication trigger, so a run that reproduces the
	// paper's system (which has no replication) sets it negative.
	Params dcws.Params
	// Cost is the workstation cost model (calibrated defaults when zero).
	Cost CostModel
	// Seed drives every random choice.
	Seed int64
	// Mode selects DCWS or a baseline.
	Mode Mode
	// ThinkTime inserts a pause between client navigation steps (the §6
	// future-work extension; 0 matches the paper's benchmark).
	ThinkTime time.Duration
	// WarmStart pre-places every non-entry-point document round-robin
	// across the server group at t=0 (ModeDCWS only), approximating the
	// converged state the paper's peak-load measurements run in. Cold
	// start (the Figure 8 experiment) leaves everything at home and lets
	// the migration policy spread the load.
	WarmStart bool

	// Sites configures the federated scenario of the paper's conclusion
	// ("integrate a group of independent servers to build a federated web
	// server"): site i is homed on server i, every server is
	// simultaneously a home for its own documents and a potential co-op
	// for the others (§3.3 full symmetry). When set, Site is ignored and
	// Servers is raised to at least len(Sites). ModeDCWS only.
	Sites []*dataset.Site
	// SkewFirst, in a federated run, is the probability that a client
	// sequence targets the first site; the remainder spread uniformly
	// over the other sites. 0 means uniform across all sites.
	SkewFirst float64
	// NoCooperation disables migration entirely (servers never exchange
	// documents) — the isolated-servers baseline the federation
	// experiment compares against.
	NoCooperation bool

	// HeteroSpread makes the server group heterogeneous: the ratio between
	// the fastest workstation's capacity and the slowest's. Server 0 keeps
	// the base cost model and later servers slow down geometrically, so a
	// spread of 4 over 16 servers steps each successive machine ~9.7%
	// slower than its neighbour. 0 or 1 keeps the paper's homogeneous
	// testbed. Capacity-normalized placement (Params.CapacitySmoothing)
	// is what makes the group usable at high spread: raw-load placement
	// sends equal work to unequal machines.
	HeteroSpread float64
}

// Result reports a run's measurements.
type Result struct {
	// CPS and BPS are the client-observed series sampled every
	// SampleEvery.
	CPS *metrics.Series
	BPS *metrics.Series
	// PeakCPS and PeakBPS are the series maxima.
	PeakCPS float64
	PeakBPS float64
	// Totals.
	Connections int64 // successful client transfers
	Bytes       int64
	Drops       int64 // 503s observed by clients
	Redirects   int64 // 301 hops followed by clients
	Errors      int64
	Sequences   int64
	Issued      int64 // client requests issued (conservation check)
	Migrations  int64 // documents migrated, summed over servers
	Revocations int64
	Rebuilds    int64 // dirty-document regenerations
	// ChainPushes / ChainPushBytes count proactive chain-replication
	// disseminations and the bytes uploaded by the documents' home servers
	// for them (one upload per dissemination, however many replicas the
	// chain installs).
	ChainPushes    int64
	ChainPushBytes int64
	// PerServer maps server address to connections served (balance check).
	PerServer map[string]int64
	// PerServerBytes maps server address to bytes served (the byte-balance
	// view the BPS load metric optimizes).
	PerServerBytes map[string]int64
	// Latency is the client-observed request latency distribution (first
	// byte of request to last byte of response, including queueing,
	// redirect hops, and 503 backoff) — the paper's third metric (RTT,
	// §5.3), measurable here because the simulator sees every edge.
	Latency *metrics.Histogram
}

// ShedRate reports the fraction of resolved client transfers answered 503
// — the figure the SLO shed budget is written against.
func (r Result) ShedRate() float64 {
	total := r.Connections + r.Drops
	if total <= 0 {
		return 0
	}
	return float64(r.Drops) / float64(total)
}

// World is a running simulation.
type World struct {
	cfg    Config
	params dcws.Params
	cost   CostModel

	now   time.Time
	queue eventQueue
	seq   uint64
	rng   *rand.Rand

	servers map[string]*simServer
	order   []string
	router  string // non-empty in ModeRouter
	// entries are where client sequences start: one value, or under
	// RR-DNS one per server, rotated per sequence.
	entries []webclient.Entries
	// onSend, when set, sees every request a client sends.
	onSend func(webclient.Request)

	res       *Result
	lastConns int64
	lastBytes int64
	stopAt    time.Time
	rrDNS     int
}

// Run executes one simulation and returns its measurements.
func Run(cfg Config) (*Result, error) {
	w, err := newWorld(cfg)
	if err != nil {
		return nil, err
	}
	w.build()
	w.start()
	w.drain(w.stopAt)
	w.collect()
	return w.res, nil
}

// newWorld resolves a configuration — Params exactly as a live server
// resolves them — into a world ready to build.
func newWorld(cfg Config) (*World, error) {
	if cfg.Site == nil && len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("sim: Config.Site or Config.Sites is required")
	}
	if cfg.Site == nil {
		cfg.Site = cfg.Sites[0]
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 1
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Minute
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 10 * time.Second
	}
	if cfg.Cost == (CostModel{}) {
		cfg.Cost = DefaultCostModel()
	}
	w := &World{
		cfg:     cfg,
		params:  cfg.Params.WithDefaults(),
		cost:    cfg.Cost,
		now:     time.Unix(0, 0),
		rng:     rand.New(rand.NewSource(cfg.Seed + 1)),
		servers: make(map[string]*simServer),
		res: &Result{
			CPS:            metrics.NewSeries("cps"),
			BPS:            metrics.NewSeries("bps"),
			PerServer:      make(map[string]int64),
			PerServerBytes: make(map[string]int64),
			Latency:        &metrics.Histogram{},
		},
	}
	w.stopAt = w.now.Add(cfg.Duration)
	return w, nil
}

// serverCost returns server i's cost model: the shared base model when the
// group is homogeneous, or a geometrically interpolated slowdown when
// Config.HeteroSpread asks for a heterogeneous testbed (server 0 fastest,
// the last HeteroSpread× slower).
func (w *World) serverCost(i int) CostModel {
	spread := w.cfg.HeteroSpread
	if spread <= 1 || w.cfg.Servers <= 1 {
		return w.cost
	}
	exp := float64(i) / float64(w.cfg.Servers-1)
	return w.cost.Scaled(math.Pow(spread, exp))
}

// build creates the server topology for the configured mode.
func (w *World) build() {
	cfg := w.cfg
	serverAddr := func(i int) string { return fmt.Sprintf("server%02d:80", i+1) }

	switch cfg.Mode {
	case ModeDCWS:
		sites := cfg.Sites
		if len(sites) == 0 {
			sites = []*dataset.Site{cfg.Site}
		}
		if cfg.Servers < len(sites) {
			cfg.Servers = len(sites)
			w.cfg.Servers = cfg.Servers
		}
		for i := 0; i < cfg.Servers; i++ {
			addr := serverAddr(i)
			s := newSimServer(w, addr, w.params, w.serverCost(i))
			if i < len(sites) {
				s.loadSite(sites[i])
			}
			w.servers[addr] = s
			w.order = append(w.order, addr)
		}
		e := webclient.Entries{SkewFirst: cfg.SkewFirst}
		for i, site := range sites {
			e.Sites = append(e.Sites, entryRefs(site, w.order[i]))
		}
		w.entries = []webclient.Entries{e}
		if cfg.WarmStart && cfg.Servers > 1 && len(sites) == 1 {
			w.warmPlace(w.servers[w.order[0]])
		}
	case ModeRRDNS:
		for i := 0; i < cfg.Servers; i++ {
			addr := serverAddr(i)
			s := newSimServer(w, addr, w.params, w.serverCost(i))
			s.loadSite(cfg.Site)
			w.servers[addr] = s
			w.order = append(w.order, addr)
			w.entries = append(w.entries, webclient.Entries{Sites: [][]target{entryRefs(cfg.Site, addr)}})
		}
	case ModeRouter:
		w.router = "router:80"
		r := newSimServer(w, w.router, w.params, w.cost)
		// The router forwards cheaply and in volume: many forwarding
		// contexts, tiny per-request cost, but one shared NIC.
		r.workers = make([]time.Time, 64)
		w.servers[w.router] = r
		w.order = append(w.order, w.router)
		w.entries = []webclient.Entries{{Sites: [][]target{entryRefs(cfg.Site, w.router)}}}
		for i := 0; i < cfg.Servers; i++ {
			addr := serverAddr(i)
			s := newSimServer(w, addr, w.params, w.serverCost(i))
			s.loadSite(cfg.Site)
			w.servers[addr] = s
			w.order = append(w.order, addr)
		}
	}
	w.seedPeers()
}

// entryRefs addresses a site's entry points at one server.
func entryRefs(site *dataset.Site, addr string) []target {
	out := make([]target, len(site.EntryPoints))
	for i, ep := range site.EntryPoints {
		out[i] = target{Addr: addr, Home: addr, Name: ep}
	}
	return out
}

// warmPlace approximates the converged placement a long-running system
// reaches: every non-entry document is assigned greedily — hottest first,
// to the least-loaded server — across ALL servers including the home, with
// the home pre-loaded by its entry points (which may never migrate, §3.2).
// Popularity comes from a short dry random-walk census of the site under
// the Algorithm 2 client behaviour, so a navigation button embedded by
// every page weighs what it is actually requested (about once per access
// sequence, thanks to the client cache), not its raw fan-in.
func (w *World) warmPlace(hs *simServer) {
	hits := walkCensus(w.cfg.Site, 2000, w.cfg.Seed+99)
	weight := func(name string) float64 { return hits[name] + 1 }

	// On a heterogeneous group the converged placement is capacity-
	// proportional, not equal-share: the greedy step minimizes projected
	// completion time (load/capacity), the same headroom order the live
	// placement walk uses. Homogeneous groups (or capacity normalization
	// off) keep every speed at 1 and reproduce the old equal split.
	speed := make(map[string]float64, len(w.order))
	for _, addr := range w.order {
		speed[addr] = 1
		if c := w.servers[addr].capacity; c > 0 {
			speed[addr] = c
		}
	}

	load := make(map[string]float64, len(w.order))
	for _, addr := range w.order {
		load[addr] = 0
	}
	var names []string
	for _, d := range hs.ldg.Snapshot() {
		if d.EntryPoint {
			load[hs.addr] += weight(d.Name)
		} else {
			names = append(names, d.Name)
		}
	}
	// Hottest-first, name-tie-broken for determinism.
	sort.SliceStable(names, func(i, j int) bool {
		wi, wj := weight(names[i]), weight(names[j])
		if wi != wj {
			return wi > wj
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		best := ""
		for _, addr := range w.order {
			if best == "" {
				best = addr
				continue
			}
			switch {
			case load[addr]/speed[addr] < load[best]/speed[best]:
				best = addr
			case load[addr]/speed[addr] == load[best]/speed[best] && best == hs.addr:
				// Ties prefer a co-op over the home server.
				best = addr
			}
		}
		load[best] += weight(name)
		if best != hs.addr {
			hs.Migrate(name, best)
		}
	}
	// Warm-start placements are historical, not measurement-time work:
	// exclude them from the run's migration count.
	hs.migrations = 0
}

// walkCensus dry-runs the Algorithm 2 walker over the site specification
// for the given number of sequences and counts the requests it sends per
// document: each page or image at most once per sequence (the client
// cache).
func walkCensus(site *dataset.Site, sequences int, seed int64) map[string]float64 {
	hits := make(map[string]float64, len(site.Docs))
	webclient.DryWalk(site, seed, func(seq int, r webclient.Request) bool {
		if seq == sequences {
			return false
		}
		hits[r.Ref.Name]++
		return true
	})
	return hits
}

// start schedules maintenance ticks, samplers, and client sequences.
func (w *World) start() {
	if w.cfg.Mode == ModeDCWS && !w.cfg.NoCooperation {
		for _, addr := range w.order {
			s := w.servers[addr]
			w.scheduleEvery(w.params.StatsInterval, s.statsTick)
			w.scheduleEvery(w.params.PingerInterval, s.pingerTick)
			w.scheduleEvery(w.params.ValidateInterval, s.validatorTick)
			w.scheduleEvery(w.params.AntiEntropyInterval, s.antiEntropyTick)
		}
	}
	w.scheduleEvery(w.cfg.SampleEvery, w.sample)
	for i := 0; i < w.cfg.Clients; i++ {
		c := &simClient{walk: webclient.NewWalker(w.cfg.Seed+int64(i)*7919+17, w.entries[0])}
		c.walk.Think = w.cost.ClientStepDelay + w.cfg.ThinkTime
		// Stagger client starts over the first second.
		d := time.Duration(w.rng.Int63n(int64(time.Second)))
		w.schedule(d, func() { w.clientStart(c) })
	}
}

// scheduleEvery runs fn every interval until the horizon.
func (w *World) scheduleEvery(interval time.Duration, fn func()) {
	if interval <= 0 {
		return
	}
	var tick func()
	tick = func() {
		fn()
		if w.now.Add(interval).Before(w.stopAt) {
			w.schedule(interval, tick)
		}
	}
	w.schedule(interval, tick)
}

// sample records the CPS/BPS deltas since the previous sample.
func (w *World) sample() {
	dt := w.cfg.SampleEvery.Seconds()
	conns := w.res.Connections
	bytes := w.res.Bytes
	w.res.CPS.Record(w.now, float64(conns-w.lastConns)/dt)
	w.res.BPS.Record(w.now, float64(bytes-w.lastBytes)/dt)
	w.lastConns = conns
	w.lastBytes = bytes
}

// collect finalizes the result.
func (w *World) collect() {
	w.res.PeakCPS = w.res.CPS.Max()
	w.res.PeakBPS = w.res.BPS.Max()
	for addr, s := range w.servers {
		w.res.PerServer[addr] = s.conns
		w.res.PerServerBytes[addr] = s.bytesOut
		w.res.Migrations += s.migrations
		w.res.Revocations += s.revocations
		w.res.Rebuilds += s.rebuilds
		w.res.ChainPushes += s.chainPushes
		w.res.ChainPushBytes += s.chainPushBytes
	}
}

// dispatch sends a client request toward its target, routing through the
// central router in ModeRouter.
func (w *World) dispatch(t target, done func(reply)) {
	w.res.Issued++
	if w.cfg.Mode == ModeRouter {
		w.dispatchViaRouter(t, done)
		return
	}
	s := w.servers[t.Addr]
	if s == nil {
		w.schedule(w.cost.RTT, func() { done(reply{status: 404}) })
		return
	}
	w.schedule(w.cost.RTT/2, func() { s.admit(t, done) })
}

// route maps a page's links to where the client sends them: the virtual IP
// in router mode, else the address in the link (the mechanism of DCWS).
func (w *World) route(refs []target) []target {
	if w.cfg.Mode != ModeRouter {
		return refs
	}
	out := make([]target, len(refs))
	for i, t := range refs {
		out[i] = target{Addr: w.router, Home: w.router, Name: t.Name}
	}
	return out
}

// dispatchViaRouter models the centralized router baseline: the router
// spends RouterOverhead per connection, forwards round-robin, and every
// response byte crosses the router's NIC — the bottleneck the paper's
// design avoids.
func (w *World) dispatchViaRouter(t target, done func(reply)) {
	r := w.servers[w.router]
	w.schedule(w.cost.RTT/2, func() {
		if r.waiting >= r.queueLen {
			r.drops++
			w.schedule(w.cost.RTT/2, func() { done(reply{status: 503}) })
			return
		}
		// Router forwarding work.
		r.waiting++
		start := r.reserveWorker(w.now, w.cost.RouterOverhead)
		w.scheduleAt(start, func() { r.waiting-- })
		r.conns++
		r.windowConns++
		// Pick a backend round-robin.
		backend := w.order[1+w.rrDNS%(len(w.order)-1)]
		w.rrDNS++
		b := w.servers[backend]
		w.scheduleAt(start.Add(w.cost.RouterOverhead), func() {
			b.admit(target{Addr: backend, Home: backend, Name: t.Name}, func(rep reply) {
				// Response transits the router NIC.
				tx := maxTime(r.nicBusy, w.now).Add(w.cost.txTime(rep.bytes))
				r.nicBusy = tx
				r.bytesOut += rep.bytes
				w.scheduleAt(tx.Add(w.cost.RTT/2), func() { done(rep) })
			})
		})
	})
}

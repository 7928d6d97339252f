package sim

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dcws/internal/clock"
	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/glt"
	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/naming"
	"dcws/internal/store"
	"dcws/internal/webclient"
)

// placementActions names what one statistics tick did to each document,
// read off its replica set before and after — the same reading for both
// drivers, so the two streams compare line for line.
func placementActions(names []string, before, after map[string][]string) []string {
	var out []string
	for _, name := range names {
		b, a := before[name], after[name]
		switch {
		case reflect.DeepEqual(a, b):
		case len(a) == 0:
			out = append(out, "revoke "+name)
		case len(b) == 0 && len(a) == 1:
			out = append(out, fmt.Sprintf("migrate %s -> %s", name, a[0]))
		case len(a) > len(b):
			out = append(out, fmt.Sprintf("chain %s -> %v", name, a[len(b):]))
		default:
			out = append(out, fmt.Sprintf("shrink %s to %v", name, a))
		}
	}
	return out
}

// TestSimMatchesLiveMigrationDecision cross-validates the two drivers of
// the control core: given the same site, the same request trace, three
// idle co-ops and the same clock, the simulated home and a production
// server must take the same actions tick for tick — a chain replication
// and an Algorithm 1 migration under load, nothing while the chain cools,
// a shrink to two replicas at T_home while it is still warm, and
// revocation once the co-op is the busier side. This is the evidence
// behind DESIGN.md's claim that the simulator substitutes only hardware,
// not policy.
func TestSimMatchesLiveMigrationDecision(t *testing.T) {
	site := dataset.HotImage()
	// One document crosses the replication trigger, a second is merely the
	// hottest of the rest; the entry point is busiest of all and stays put.
	var trace []string
	for i := 0; i < 100; i++ {
		trace = append(trace, "/index.html")
		if i < 80 {
			trace = append(trace, "/pages/p03.html")
		}
		if i < 20 {
			trace = append(trace, "/pages/p07.html")
		}
		if i < 5 {
			trace = append(trace, "/pages/p11.html")
		}
	}
	// Every loop interval is longer than the five minutes the test spans,
	// so on the live side only the explicit TickStats calls ever run.
	// Capacity is off because a live server measures it from wall-clock
	// serve latency: with it on, the two load tables would rank the idle
	// co-ops differently for a reason that is not policy.
	params := dcws.Params{
		CapacitySmoothing:     -1,
		MigrationThreshold:    1,
		StatsInterval:         10 * time.Minute,
		PingerInterval:        time.Hour,
		ValidateInterval:      time.Hour,
		AntiEntropyInterval:   -1,
		SLOCheckInterval:      -1,
		HomeReMigrateInterval: 150 * time.Second,
		PlacementMaxStaleness: -1,
		HotReplicateRate:      0.05, // 80 hits / 600 s, halved by the EWMA: 0.067
		HotReplicaCount:       3,
	}
	coops := []string{"coop1:81", "coop2:82", "coop3:83"}
	d := newDrivers(t, site, params, coops)
	w, simHome, live, mc := d.w, d.sim, d.live, d.clock

	var names []string
	for _, d := range site.Docs {
		names = append(names, d.Name)
	}
	sort.Strings(names)
	placement := func(p interface{ Replicas(string) []string }) map[string][]string {
		out := make(map[string][]string)
		for _, name := range names {
			if reps := p.Replicas(name); len(reps) > 0 {
				out[name] = append([]string(nil), reps...)
			}
		}
		return out
	}

	// One step per statistics tick: the requests served since the last one,
	// then how far the clock moves before the tick.
	steps := []struct {
		trace    []string
		advance  time.Duration
		coopLoad float64 // when set, coop1's load as the home's table sees it
		want     []string
	}{
		{trace: trace, want: []string{
			"chain /pages/p03.html -> [coop1:81 coop2:82 coop3:83]",
			"migrate /pages/p07.html -> coop1:81",
		}},
		{advance: time.Minute}, // the chain cools: 0.033
		{advance: time.Minute}, // 0.017
		// Past T_home. The cooled chain is still warm, so it shrinks; the
		// single placement stays, its co-op being no busier than the home.
		{advance: time.Minute, want: []string{"shrink /pages/p03.html to [coop1:81 coop2:82]"}},
		// The workload has moved to the co-op: both placements come home,
		// one per tick.
		{advance: time.Minute, coopLoad: 5, want: []string{"revoke /pages/p03.html"}},
		{advance: time.Minute, want: []string{"revoke /pages/p07.html"}},
	}
	kinds := make(map[string]bool)
	for i, step := range steps {
		mc.Advance(step.advance)
		w.now = w.now.Add(step.advance)
		if step.coopLoad > 0 {
			for _, tab := range []*glt.Table{simHome.table, live.LoadTable()} {
				cur, _ := tab.Get(coops[0])
				tab.Observe(glt.Entry{Server: coops[0], Load: step.coopLoad, Stamp: cur.Stamp + 1, Updated: w.now})
			}
		}
		for _, name := range step.trace {
			d.serve(t, name)
		}
		simBefore, liveBefore := placement(simHome), placement(live)
		simHome.statsTick()
		live.TickStats()
		simActs := placementActions(names, simBefore, placement(simHome))
		liveActs := placementActions(names, liveBefore, placement(live))
		if !reflect.DeepEqual(simActs, liveActs) {
			t.Fatalf("tick %d: decision divergence:\n  sim:  %q\n  live: %q", i, simActs, liveActs)
		}
		if !reflect.DeepEqual(liveActs, step.want) {
			t.Fatalf("tick %d: both drivers did %q, want %q", i, liveActs, step.want)
		}
		for _, a := range liveActs {
			kinds[strings.Fields(a)[0]] = true
		}
	}
	if len(kinds) != 4 {
		t.Fatalf("action stream covered %v, want migrate, chain, shrink and revoke", kinds)
	}
}

// drivers is one home server under both drivers of the control core: a
// simulated home with idle simulated co-ops, and a production server with
// idle production co-ops on an in-memory fabric, both on the same site,
// Params and manual clock start.
type drivers struct {
	w         *World
	sim       *simServer
	live      *dcws.Server
	liveCoops []*dcws.Server
	fabric    *memnet.Fabric
	clock     *clock.Manual
	client    *httpx.Client
}

func newDrivers(t *testing.T, site *dataset.Site, params dcws.Params, coops []string) *drivers {
	t.Helper()
	start := time.Unix(0, 0)

	// --- Simulator side ---
	w := &World{
		cfg:     Config{},
		params:  params.WithDefaults(),
		cost:    DefaultCostModel(),
		now:     start,
		servers: make(map[string]*simServer),
	}
	w.stopAt = w.now.Add(time.Hour)
	simHome := newSimServer(w, "home:80", w.params, w.cost)
	simHome.loadSite(site)
	w.servers["home:80"] = simHome
	w.order = []string{"home:80"}
	for _, addr := range coops {
		w.servers[addr] = newSimServer(w, addr, w.params, w.cost)
		w.order = append(w.order, addr)
	}
	w.seedPeers()

	// --- Live server side ---
	fabric := memnet.NewFabric()
	mc := clock.NewManual(start)
	st := store.NewMem()
	if err := site.Materialize(st, 1.0); err != nil {
		t.Fatal(err)
	}
	// Each server dials as its own address, as internal/cluster's do, so a
	// fabric partition of one address refuses dials in both directions.
	boot := func(host string, port int, st store.Store, entries, peers []string) *dcws.Server {
		t.Helper()
		origin := naming.Origin{Host: host, Port: port}
		srv, err := dcws.New(dcws.Config{
			Origin:      origin,
			Store:       st,
			Network:     fabric.Named(origin.Addr()),
			Clock:       mc,
			EntryPoints: entries,
			Peers:       peers,
			Params:      params,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	live := boot("home", 80, st, site.EntryPoints, coops)
	var liveCoops []*dcws.Server
	for _, addr := range coops {
		host, port, _ := strings.Cut(addr, ":")
		n, err := strconv.Atoi(port)
		if err != nil {
			t.Fatal(err)
		}
		liveCoops = append(liveCoops, boot(host, n, store.NewMem(), nil, []string{"home:80"}))
	}
	return &drivers{w: w, sim: simHome, live: live, liveCoops: liveCoops, fabric: fabric, clock: mc,
		client: httpx.NewClient(httpx.DialerFunc(fabric.Dial))}
}

// serve has both homes serve one request for name.
func (d *drivers) serve(t *testing.T, name string) {
	t.Helper()
	d.sim.serveHome(name)
	d.sim.windowConns++
	if _, err := d.client.Get("home:80", name, nil); err != nil {
		t.Fatal(err)
	}
}

// TestSimMatchesLiveStep5Input pins Algorithm 1 step 5's input in both
// drivers: LinkTo counts the distinct documents a page links to, as the
// graph keeps them. Two candidates tie on load and on remote LinkFrom; the
// page that links one target three times links fewer documents than the
// page with two distinct targets, though its raw link list is longer, so
// both drivers must move it.
func TestSimMatchesLiveStep5Input(t *testing.T) {
	leaf := func(name string) dataset.Doc { return dataset.Doc{Name: name, Size: 1024} }
	site := &dataset.Site{Name: "Step5", EntryPoints: []string{"/index.html"}, Docs: []dataset.Doc{
		{Name: "/index.html", Size: 1024, Links: []dataset.Link{{URL: "/a.html"}, {URL: "/b.html"}}},
		{Name: "/a.html", Size: 1024, Links: []dataset.Link{{URL: "/t1.html"}, {URL: "/t1.html"}, {URL: "/t1.html"}}},
		{Name: "/b.html", Size: 1024, Links: []dataset.Link{{URL: "/t1.html"}, {URL: "/t2.html"}}},
		leaf("/t1.html"), leaf("/t2.html"),
	}}
	params := dcws.Params{
		CapacitySmoothing:     -1,
		MigrationThreshold:    1,
		StatsInterval:         10 * time.Minute,
		PingerInterval:        time.Hour,
		ValidateInterval:      time.Hour,
		AntiEntropyInterval:   -1,
		SLOCheckInterval:      -1,
		PlacementMaxStaleness: -1,
		HotReplicateRate:      -1,
	}
	d := newDrivers(t, site, params, []string{"coop1:81"})
	for i := 0; i < 10; i++ {
		d.serve(t, "/a.html")
		d.serve(t, "/b.html")
	}
	d.sim.statsTick()
	d.live.TickStats()
	for _, name := range []string{"/a.html", "/b.html"} {
		simReps, liveReps := d.sim.Replicas(name), d.live.Replicas(name)
		if !reflect.DeepEqual(simReps, liveReps) {
			t.Fatalf("%s: simulator placed it on %v, live server on %v", name, simReps, liveReps)
		}
	}
	if got := d.live.Replicas("/a.html"); !reflect.DeepEqual(got, []string{"coop1:81"}) {
		t.Fatalf("/a.html placed on %v, want [coop1:81] (one distinct link beats two)", got)
	}
}

// TestSimAndLiveResolveSameParams pins the one-defaults-function rule: the
// Params a simulated world runs with are exactly what dcws.New resolves
// the same value to (Params.WithDefaults), field for field, so one Params
// value never describes two systems. The cases are the three shapes
// callers pass: nothing, everything, and a partial profile with the chain
// switched off (experiments.peakParams has this shape).
func TestSimAndLiveResolveSameParams(t *testing.T) {
	for name, p := range map[string]dcws.Params{
		"zero":     {},
		"defaults": dcws.DefaultParams(),
		"peak":     fastParams(),
	} {
		w, err := newWorld(Config{Site: dataset.HotImage(), Params: p})
		if err != nil {
			t.Fatal(err)
		}
		live := p.WithDefaults()
		if !reflect.DeepEqual(w.params, live) {
			t.Errorf("%s: simulator runs with %+v, live server with %+v", name, w.params, live)
		}
		if again := live.WithDefaults(); !reflect.DeepEqual(again, live) {
			t.Errorf("%s: WithDefaults is not idempotent: %+v then %+v", name, live, again)
		}
	}
}

// TestSimWalkMatchesLiveClient cross-validates the two drivers of the
// Algorithm 2 walker: with one seed, one site and one server that never
// sheds, the simulator's event-heap driver and the live webclient over
// the in-memory fabric must send the same documents in the same order.
// The live client's image helpers race one another to the wire, so
// within each run of images the order is compared as a set; which page
// comes next, and which images each page loads, must match exactly. LOD
// pages carry up to 40 images; MAPUG pages repeat their navigation
// anchors, which both drivers must keep as written.
func TestSimWalkMatchesLiveClient(t *testing.T) {
	for _, site := range []*dataset.Site{dataset.LOD(), dataset.MAPUG()} {
		t.Run(site.Name, func(t *testing.T) { walkMatchesLive(t, site) })
	}
}

func walkMatchesLive(t *testing.T, site *dataset.Site) {
	const seed = 42
	// --- Simulator side: one client, one server. ---
	w, err := newWorld(Config{Site: site, Servers: 1, Clients: 1, Duration: 2 * time.Minute, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	var simSent []string
	w.onSend = func(req webclient.Request) { simSent = append(simSent, sentAs(req.Ref.Name, req.Image)) }
	w.build()
	w.start()
	w.drain(w.stopAt)
	if w.res.Drops != 0 || w.res.Errors != 0 || w.res.Sequences < 20 {
		t.Fatalf("simulated run: %d drops, %d errors, %d sequences", w.res.Drops, w.res.Errors, w.res.Sequences)
	}

	// --- Live side: the materialized site behind an httpx server. ---
	st := store.NewMem()
	if err := site.Materialize(st, 1.0); err != nil {
		t.Fatal(err)
	}
	fabric := memnet.NewFabric()
	l, err := fabric.Listen("home:80")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var liveSent []string
	srv := httpx.NewServer(httpx.ServerConfig{}, httpx.HandlerFunc(func(req *httpx.Request) *httpx.Response {
		mu.Lock()
		liveSent = append(liveSent, sentAs(req.Path, !site.Doc(req.Path).IsHTML()))
		mu.Unlock()
		body, err := st.Get(req.Path)
		if err != nil {
			return httpx.NewResponse(404)
		}
		resp := httpx.NewResponse(200)
		resp.Body = body
		return resp
	}))
	go srv.Serve(l)
	defer srv.Close()
	stats := &webclient.Stats{}
	client, err := webclient.New(webclient.Config{
		Dialer:    httpx.DialerFunc(fabric.Dial),
		EntryURLs: []string{"http://home:80" + site.EntryPoints[0]},
		Seed:      seed + 17, // the walker seed the world gives client 0
		Stats:     stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	for i := int64(0); i < w.res.Sequences; i++ {
		client.RunSequence(nil)
	}
	if stats.Drops.Value() != 0 || stats.Errors.Value() != 0 {
		t.Fatalf("live run: %s", stats)
	}

	sim, live := imageRunsSorted(simSent), imageRunsSorted(liveSent)
	if len(live) > len(sim) {
		t.Fatalf("live client sent %d requests in %d sequences, the simulator %d", len(live), w.res.Sequences, len(sim))
	}
	for i := range live {
		if live[i] != sim[i] {
			t.Fatalf("request %d of %d: live %s, simulated %s", i, len(live), live[i], sim[i])
		}
	}
	images := 0
	for _, s := range live {
		if strings.HasPrefix(s, "image") {
			images++
		}
	}
	if images == 0 || images == len(live) {
		t.Fatalf("%d of %d requests are images; the walk needs both kinds", images, len(live))
	}
}

func sentAs(name string, image bool) string {
	if image {
		return "image " + name
	}
	return "page " + name
}

// imageRunsSorted sorts each run of consecutive image requests.
func imageRunsSorted(sent []string) []string {
	out := append([]string(nil), sent...)
	for i := 0; i < len(out); {
		j := i
		for j < len(out) && strings.HasPrefix(out[j], "image") {
			j++
		}
		sort.Strings(out[i:j])
		i = max(j, i+1)
	}
	return out
}

// coopSide is one driver of the co-op core as the co-op equivalence test
// steers it: a home at home:80 with one co-op at coop1:81, the cores of
// both, and the few actions the test takes on each.
type coopSide struct {
	home, coop *dcws.Coop
	get        func() int           // one client GET of the hosted page at the co-op
	validate   func()               // one validation pass at the co-op
	place      func(doc string)     // the home places doc on the co-op
	tickHome   func()               // one statistics tick at the home
	hotRate    func(string) float64 // the home's serve-rate EWMA of a document
	pingers    func()               // T_pi passes: every server's pinger runs
	cut        func(bool)           // cut the co-op off from the home, or heal
	recall     func()               // the home recalls everything from the co-op
	copyID     func() string        // identifies the co-op's copy's content
}

// coopStream runs the co-op script on one driver and returns what each
// step did, read off the co-op cores and the home's control plane.
func coopStream(t *testing.T, side coopSide) []string {
	t.Helper()
	key, _ := naming.Encode(naming.Origin{Host: "home", Port: 80}, "/a.html")
	var out []string
	log := func(format string, a ...any) { out = append(out, fmt.Sprintf(format, a...)) }
	validation := func() string {
		before := side.copyID()
		side.validate()
		switch v, ok := side.coop.View(key); {
		case !ok:
			return dcws.ValidDropped
		case !v.Present:
			return "absent"
		case side.copyID() != before:
			return dcws.ValidRefreshed
		}
		return dcws.ValidCurrent
	}
	health := func(c *dcws.Coop, peer string) string {
		switch {
		case slices.Contains(c.Down(), peer):
			return "down"
		case c.Suspect(peer):
			return "suspect"
		}
		return "ok"
	}

	side.place("/a.html")
	status := side.get()
	v, _ := side.coop.View(key)
	log("lazy fetch: %d, present %v", status, v.Present)
	log("validate unchanged: %s", validation())
	side.place("/b.html") // /a.html links to it: its rendering changes
	log("validate after its link moved: %s", validation())
	side.tickHome() // drains the hot reports the fetch and validations carried
	for i := 0; i < 20; i++ {
		side.get()
	}
	hits := side.coop.HotReport("home:80")["/a.html"]
	side.pingers()
	side.tickHome()
	log("ping with %d hosted hits: home's hot rate %.4f", hits, side.hotRate("/a.html"))
	side.cut(true)
	side.pingers()
	log("probe while cut: co-op sees home %s, home sees co-op %s",
		health(side.coop, "home:80"), health(side.home, "coop1:81"))
	side.cut(false)
	side.pingers()
	log("probe after heal: co-op sees home %s, home sees co-op %s",
		health(side.coop, "home:80"), health(side.home, "coop1:81"))
	side.cut(true)
	side.recall() // the revocation does not reach the co-op
	side.cut(false)
	log("validate after a recall it missed: %s", validation())
	return out
}

// TestSimMatchesLiveCoopOutcomes cross-validates the two drivers of the
// co-op core (dcws.Coop) the way TestSimMatchesLiveMigrationDecision does
// the control plane: one page placed on one co-op goes through a lazy
// fetch, a 304, a refresh and a drop; a ping carries no hosted hits to the
// home (only fetches and validations report heat); and a probe across a
// partition fails, then recovers. Both drivers must produce the same
// outcome stream. T_pi is one minute and every other loop interval is
// longer than the three minutes the clock moves, so on the live side only
// the pinger loops run, at the same instants the simulated pingers do.
func TestSimMatchesLiveCoopOutcomes(t *testing.T) {
	site := &dataset.Site{Name: "Coop", EntryPoints: []string{"/index.html"}, Docs: []dataset.Doc{
		{Name: "/index.html", Size: 1024, Links: []dataset.Link{{URL: "/a.html"}}},
		{Name: "/a.html", Size: 1024, Links: []dataset.Link{{URL: "/b.html"}}},
		{Name: "/b.html", Size: 1024},
	}}
	params := dcws.Params{
		CapacitySmoothing:     -1,
		StatsInterval:         10 * time.Minute,
		PingerInterval:        time.Minute,
		ValidateInterval:      time.Hour,
		AntiEntropyInterval:   -1,
		SLOCheckInterval:      -1,
		PlacementMaxStaleness: -1,
		RetryBaseDelay:        -1, // no real backoff sleep on a manual clock
		HotReplicateRate:      1e6,
	}
	const coopAddr = "coop1:81"
	d := newDrivers(t, site, params, []string{coopAddr})
	key, _ := naming.Encode(naming.Origin{Host: "home", Port: 80}, "/a.html")
	step := time.Minute + time.Second // past T_pi, so every peer is due

	w, simHome, simCoop := d.w, d.sim, d.w.servers[coopAddr]
	settle := func() { w.drain(w.now.Add(time.Minute)) }
	sim := coopSide{
		home: simHome.coop,
		coop: simCoop.coop,
		get: func() int {
			status := 0
			simCoop.admitCoop(target{Addr: coopAddr, Home: "home:80", Name: "/a.html"}, func(r reply) { status = r.status })
			settle()
			return status
		},
		validate: func() { simCoop.validatorTick(); settle() },
		place:    func(doc string) { simHome.Migrate(doc, coopAddr) },
		tickHome: simHome.statsTick,
		hotRate:  simHome.ctl.HotRate,
		pingers: func() {
			w.now = w.now.Add(step)
			simHome.pingerTick()
			simCoop.pingerTick()
			settle()
		},
		cut: func(cut bool) {
			if cut {
				delete(w.servers, "home:80")
				delete(w.servers, coopAddr)
			} else {
				w.servers["home:80"], w.servers[coopAddr] = simHome, simCoop
			}
		},
		recall: func() {
			for _, mig := range simHome.ledger.HostedBy(coopAddr) {
				simHome.Revoke(mig.Doc)
			}
		},
		copyID: func() string { return fmt.Sprintf("%p", simCoop.copies[key]) },
	}

	liveCoop, mc := d.liveCoops[0], d.clock
	loops := 3 * 2 // statistics, pinger, validator on each live server
	live := coopSide{
		home: d.live.Coop(),
		coop: liveCoop.Coop(),
		get: func() int {
			resp, err := d.client.Get(coopAddr, key, nil)
			if err != nil {
				t.Fatal(err)
			}
			return resp.Status
		},
		validate: liveCoop.TickValidator,
		place: func(doc string) {
			req := httpx.NewRequest("POST", "/~dcws/migrate")
			req.Header.Set("X-DCWS-Doc", doc)
			req.Header.Set("X-DCWS-Fetch", coopAddr)
			if resp, err := d.client.Do("home:80", req); err != nil || resp.Status != 200 {
				t.Fatalf("place %s: %v %v", doc, resp, err)
			}
		},
		tickHome: d.live.TickStats,
		hotRate:  d.live.HotRate,
		pingers: func() {
			mc.Advance(step)
			for deadline := time.Now().Add(10 * time.Second); mc.Waiters() < loops; {
				if time.Now().After(deadline) {
					t.Fatalf("%d of %d maintenance loops back on the clock", mc.Waiters(), loops)
				}
				time.Sleep(time.Millisecond)
			}
		},
		cut: func(cut bool) {
			// The servers dial as themselves, so cutting the home's address
			// refuses the co-op's dials to it and the home's dials out.
			if cut {
				d.fabric.Partition(memnet.Wildcard, "home:80")
				d.fabric.ResetLink(memnet.Wildcard, "home:80")
			} else {
				d.fabric.Heal(memnet.Wildcard, "home:80")
			}
		},
		recall: func() { d.live.RecallFrom(coopAddr) },
		copyID: func() string {
			v, _ := liveCoop.Coop().View(key)
			return strconv.FormatUint(v.Hash, 16)
		},
	}

	simOut, liveOut := coopStream(t, sim), coopStream(t, live)
	if !reflect.DeepEqual(simOut, liveOut) {
		t.Fatalf("co-op outcome divergence:\n  sim:  %q\n  live: %q", simOut, liveOut)
	}
	want := []string{
		"lazy fetch: 200, present true",
		"validate unchanged: current",
		"validate after its link moved: refreshed",
		"ping with 21 hosted hits: home's hot rate 0.0000",
		"probe while cut: co-op sees home suspect, home sees co-op suspect",
		"probe after heal: co-op sees home ok, home sees co-op ok",
		"validate after a recall it missed: dropped",
	}
	if !reflect.DeepEqual(liveOut, want) {
		t.Fatalf("both drivers did\n  %q\nwant\n  %q", liveOut, want)
	}
}

package sim

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
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
	boot := func(host string, port int, st store.Store, entries, peers []string) *dcws.Server {
		t.Helper()
		srv, err := dcws.New(dcws.Config{
			Origin:      naming.Origin{Host: host, Port: port},
			Store:       st,
			Network:     fabric,
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
	for i := range coops {
		boot(fmt.Sprintf("coop%d", i+1), 81+i, store.NewMem(), nil, []string{"home:80"})
	}
	client := httpx.NewClient(httpx.DialerFunc(fabric.Dial))

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
		// The workload has moved to the co-op: both placements come home.
		{advance: time.Minute, coopLoad: 5, want: []string{
			"revoke /pages/p03.html",
			"revoke /pages/p07.html",
		}},
	}
	kinds := make(map[string]bool)
	for i, step := range steps {
		mc.Advance(step.advance)
		w.now = w.now.Add(step.advance)
		if step.coopLoad > 0 {
			e := glt.Entry{Server: coops[0], Load: step.coopLoad, Updated: w.now}
			simHome.table.Observe(e)
			live.LoadTable().Observe(e)
		}
		for _, name := range step.trace {
			simHome.serveHome(name)
			simHome.windowConns++
			if _, err := client.Get("home:80", name, nil); err != nil {
				t.Fatal(err)
			}
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

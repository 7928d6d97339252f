package sim

import (
	"reflect"
	"testing"
	"time"

	"dcws/internal/clock"
	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/naming"
	"dcws/internal/store"
)

// TestSimMatchesLiveMigrationDecision cross-validates the simulator against
// the production server: given the same site, the same per-document request
// counts, and one idle co-op, both must select the same document for the
// first migration. This is the evidence behind DESIGN.md's claim that the
// simulator substitutes only hardware, not policy.
func TestSimMatchesLiveMigrationDecision(t *testing.T) {
	site := dataset.HotImage()
	// The request trace: hammer one page and touch a few others.
	trace := []string{
		"/pages/p03.html", "/pages/p03.html", "/pages/p03.html",
		"/pages/p03.html", "/pages/p03.html", "/pages/p03.html",
		"/pages/p07.html", "/pages/p07.html",
		"/pages/p11.html",
		"/index.html",
	}
	params := dcws.Params{MigrationThreshold: 1}

	// --- Simulator side ---
	w := &World{
		cfg:     Config{},
		params:  params.WithDefaults(),
		cost:    DefaultCostModel(),
		now:     time.Unix(0, 0),
		servers: make(map[string]*simServer),
	}
	w.stopAt = w.now.Add(time.Hour)
	simHome := newSimServer(w, "home:80", w.params, w.cost)
	simHome.loadSite(site)
	simCoop := newSimServer(w, "coop:81", w.params, w.cost)
	w.servers["home:80"] = simHome
	w.servers["coop:81"] = simCoop
	w.order = []string{"home:80", "coop:81"}
	for _, ep := range site.EntryPoints {
		if d, ok := simHome.docs[ep]; ok {
			d.entry = true
		}
	}
	w.seedPeers()
	for _, name := range trace {
		simHome.serveHome(name)
		simHome.windowConns++
	}
	simHome.statsTick()
	simMigrated := ""
	for name, d := range simHome.docs {
		if d.location != "" {
			simMigrated = name
		}
	}

	// --- Live server side ---
	fabric := memnet.NewFabric()
	st := store.NewMem()
	if err := site.Materialize(st, 1.0); err != nil {
		t.Fatal(err)
	}
	live, err := dcws.New(dcws.Config{
		Origin:      naming.Origin{Host: "home", Port: 80},
		Store:       st,
		Network:     fabric,
		Clock:       clock.NewManual(time.Unix(0, 0)),
		EntryPoints: site.EntryPoints,
		Peers:       []string{"coop:81"},
		Params:      params,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Start(); err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	coop, err := dcws.New(dcws.Config{
		Origin:  naming.Origin{Host: "coop", Port: 81},
		Store:   store.NewMem(),
		Network: fabric,
		Clock:   clock.NewManual(time.Unix(0, 0)),
		Peers:   []string{"home:80"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coop.Start(); err != nil {
		t.Fatal(err)
	}
	defer coop.Close()

	client := httpx.NewClient(httpx.DialerFunc(fabric.Dial))
	for _, name := range trace {
		if _, err := client.Get("home:80", name, nil); err != nil {
			t.Fatal(err)
		}
	}
	live.TickStats()
	liveMigrated := ""
	for name := range live.Graph().Migrated() {
		liveMigrated = name
	}

	if simMigrated == "" || liveMigrated == "" {
		t.Fatalf("no migration: sim=%q live=%q", simMigrated, liveMigrated)
	}
	if simMigrated != liveMigrated {
		t.Fatalf("decision divergence: sim migrated %q, live server migrated %q",
			simMigrated, liveMigrated)
	}
	// Note: requesting a page also fetches its embedded image client-side
	// in the full benchmark; this trace requests pages only, so both
	// implementations see identical per-document hit counts and both must
	// pick the hottest non-entry page by Algorithm 1.
	if simMigrated != "/pages/p03.html" {
		t.Fatalf("Algorithm 1 picked %q, want the hottest page /pages/p03.html", simMigrated)
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

package dcws

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"dcws/internal/clock"
	"dcws/internal/glt"
	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/naming"
	"dcws/internal/store"
)

// testWorld wires two or more servers on one in-memory fabric with a manual
// clock, so maintenance ticks can be driven deterministically.
type testWorld struct {
	fabric  *memnet.Fabric
	clock   *clock.Manual
	servers map[string]*Server
	client  *httpx.Client
	t       *testing.T
	// noLoops starts servers listening but without their maintenance
	// loops, so the test's explicit ticks are the only ones: otherwise a
	// loop woken by clock.Advance races the tick the test runs next.
	noLoops bool
}

func newWorld(t *testing.T) *testWorld {
	t.Helper()
	return &testWorld{
		fabric:  memnet.NewFabric(),
		clock:   clock.NewManual(time.Unix(1_000_000, 0)),
		servers: make(map[string]*Server),
		t:       t,
	}
}

// addServer boots a server over an in-memory store. docs maps document
// names to contents.
func (w *testWorld) addServer(host string, port int, docs map[string]string, entryPoints []string, params Params) *Server {
	w.t.Helper()
	return w.addServerOn(store.NewMem(), host, port, docs, entryPoints, params)
}

// addServerOn is addServer over a store of the caller's choosing.
func (w *testWorld) addServerOn(st store.Store, host string, port int, docs map[string]string, entryPoints []string, params Params) *Server {
	w.t.Helper()
	for name, body := range docs {
		if err := st.Put(name, []byte(body)); err != nil {
			w.t.Fatal(err)
		}
	}
	peers := make([]string, 0, len(w.servers))
	for addr := range w.servers {
		peers = append(peers, addr)
	}
	if params.RetryBaseDelay == 0 {
		// The world runs on a manual clock: a real backoff sleep would
		// block forever. Negative means "retry immediately".
		params.RetryBaseDelay = -1
	}
	addr := naming.Origin{Host: host, Port: port}.Addr()
	srv, err := New(Config{
		Origin:      naming.Origin{Host: host, Port: port},
		Store:       st,
		Network:     w.fabric.Named(addr),
		Clock:       w.clock,
		EntryPoints: entryPoints,
		Peers:       peers,
		Params:      params,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	// Tell existing servers about the newcomer.
	for _, s := range w.servers {
		s.LoadTable().Observe(glt.Entry{Server: srv.Addr(), Load: 0, Updated: time.Time{}})
	}
	start := srv.Start
	if w.noLoops {
		start = srv.listenAndServe
	}
	if err := start(); err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { srv.Close() })
	w.servers[srv.Addr()] = srv
	w.client = httpx.NewClient(httpx.DialerFunc(w.fabric.Dial))
	return srv
}

func (w *testWorld) get(addr, path string) *httpx.Response {
	w.t.Helper()
	resp, err := w.client.Get(addr, path, nil)
	if err != nil {
		w.t.Fatalf("GET %s%s: %v", addr, path, err)
	}
	return resp
}

// follow follows up to 5 redirects starting from addr+path.
func (w *testWorld) follow(addr, path string) *httpx.Response {
	w.t.Helper()
	for i := 0; i < 5; i++ {
		resp := w.get(addr, path)
		if resp.Status != 301 && resp.Status != 302 {
			return resp
		}
		loc := resp.Header.Get("Location")
		var err error
		addr, path, err = naming.SplitURL(loc)
		if err != nil {
			w.t.Fatalf("bad redirect Location %q: %v", loc, err)
		}
	}
	w.t.Fatal("redirect loop")
	return nil
}

// siteAB is a small two-page site: index links to page, page embeds image.
func siteAB() map[string]string {
	return map[string]string{
		"/index.html": `<html><title>home</title><a href="/page.html">page</a></html>`,
		"/page.html":  `<html><img src="/pic.gif"><a href="/index.html">back</a></html>`,
		"/pic.gif":    "GIF89a-fake-image-bytes",
	}
}

func TestServeLocalDocument(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	resp := w.get("home:80", "/index.html")
	if resp.Status != 200 {
		t.Fatalf("status = %d", resp.Status)
	}
	if !strings.Contains(string(resp.Body), "page.html") {
		t.Fatalf("body = %q", resp.Body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/html" {
		t.Fatalf("content type = %q", ct)
	}
	doc, err := home.Graph().Get("/index.html")
	if err != nil || doc.Hits != 1 {
		t.Fatalf("hit not recorded: %+v, %v", doc, err)
	}
}

func TestRootServesIndex(t *testing.T) {
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), nil, Params{})
	resp := w.get("home:80", "/")
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "page.html") {
		t.Fatalf("GET / = %d %q", resp.Status, resp.Body)
	}
}

func TestNotFound(t *testing.T) {
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), nil, Params{})
	if resp := w.get("home:80", "/ghost.html"); resp.Status != 404 {
		t.Fatalf("status = %d, want 404", resp.Status)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), nil, Params{})
	req := httpx.NewRequest("POST", "/index.html")
	resp, err := w.client.Do("home:80", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 405 {
		t.Fatalf("status = %d, want 405", resp.Status)
	}
}

func TestHeadOmitsBody(t *testing.T) {
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), nil, Params{})
	req := httpx.NewRequest("HEAD", "/index.html")
	resp, err := w.client.Do("home:80", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || len(resp.Body) != 0 {
		t.Fatalf("HEAD = %d with %d body bytes", resp.Status, len(resp.Body))
	}
}

func TestPingEndpoint(t *testing.T) {
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), nil, Params{})
	resp := w.get("home:80", "/~dcws/ping")
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "pong") {
		t.Fatalf("ping = %d %q", resp.Status, resp.Body)
	}
	if resp.Header.Get(glt.HeaderName) == "" {
		t.Fatal("ping response carries no piggybacked load table")
	}
}

func TestStatusEndpoint(t *testing.T) {
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), nil, Params{})
	w.get("home:80", "/index.html")
	resp := w.get("home:80", "/~dcws/status")
	if resp.Status != 200 {
		t.Fatalf("status endpoint = %d", resp.Status)
	}
	body := string(resp.Body)
	if !strings.Contains(body, `"addr": "home:80"`) || !strings.Contains(body, `"migrated_out"`) {
		t.Fatalf("status body = %s", body)
	}
	// Counts live in the registry, not in the status snapshot.
	if strings.Contains(body, `"documents"`) {
		t.Fatalf("status body repeats a registry figure: %s", body)
	}
	if metrics := string(w.get("home:80", "/~dcws/metrics").Body); !strings.Contains(metrics, "\ndcws_documents 3\n") {
		t.Fatalf("metrics lack dcws_documents 3:\n%s", metrics)
	}
}

// migrateAndServe drives a full migration of /page.html from home to coop
// and returns both servers.
func migrateAndServe(t *testing.T, w *testWorld) (*Server, *Server) {
	t.Helper()
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	coop := w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")
	return home, coop
}

func TestMigratedDocRedirectsAtHome(t *testing.T) {
	w := newWorld(t)
	home, _ := migrateAndServe(t, w)
	resp := w.get("home:80", "/page.html")
	if resp.Status != 301 {
		t.Fatalf("status = %d, want 301", resp.Status)
	}
	want := "http://coop:81/~migrate/home/80/page.html"
	if loc := resp.Header.Get("Location"); loc != want {
		t.Fatalf("Location = %q, want %q", loc, want)
	}
	if home.Stats().Redirects.Value() != 1 {
		t.Fatal("redirect not counted")
	}
}

func TestLazyPhysicalMigration(t *testing.T) {
	w := newWorld(t)
	home, coop := migrateAndServe(t, w)
	// First request at the coop triggers the fetch from home.
	resp := w.get("coop:81", "/~migrate/home/80/page.html")
	if resp.Status != 200 {
		t.Fatalf("coop served %d: %s", resp.Status, resp.Body)
	}
	if !strings.Contains(string(resp.Body), "pic.gif") {
		t.Fatalf("body = %q", resp.Body)
	}
	if home.Stats().Fetches.Value() == 0 {
		t.Fatal("home did not serve an internal fetch")
	}
	if coop.CoopDocCount() != 1 {
		t.Fatalf("coop hosts %d docs, want 1", coop.CoopDocCount())
	}
	// Second request must be served from the coop's local copy (no new
	// fetch).
	fetchesBefore := home.Stats().Fetches.Value()
	if resp := w.get("coop:81", "/~migrate/home/80/page.html"); resp.Status != 200 {
		t.Fatalf("second coop request = %d", resp.Status)
	}
	if home.Stats().Fetches.Value() != fetchesBefore {
		t.Fatal("coop refetched a document it already had")
	}
}

func TestMigratedCopyLinksAreAbsolute(t *testing.T) {
	w := newWorld(t)
	migrateAndServe(t, w)
	resp := w.get("coop:81", "/~migrate/home/80/page.html")
	body := string(resp.Body)
	// The embedded image still lives at home; the shipped copy must point
	// there absolutely, not relatively (a relative link would 404 at the
	// coop).
	if !strings.Contains(body, `http://home:80/pic.gif`) {
		t.Fatalf("image link not absolutized: %s", body)
	}
	if !strings.Contains(body, `http://home:80/index.html`) {
		t.Fatalf("anchor link not absolutized: %s", body)
	}
}

func TestDirtyLinkRewriting(t *testing.T) {
	w := newWorld(t)
	home, _ := migrateAndServe(t, w)
	// /index.html links to the migrated /page.html, so it is dirty and must
	// be regenerated with the coop URL on next request.
	if !home.Graph().IsDirty("/index.html") {
		t.Fatal("index not dirtied by migration")
	}
	resp := w.get("home:80", "/index.html")
	if !strings.Contains(string(resp.Body), "http://coop:81/~migrate/home/80/page.html") {
		t.Fatalf("regenerated index lacks coop link: %s", resp.Body)
	}
	if home.Graph().IsDirty("/index.html") {
		t.Fatal("dirty bit not cleared after regeneration")
	}
	if home.Stats().Rebuilds.Value() != 1 {
		t.Fatalf("rebuilds = %d", home.Stats().Rebuilds.Value())
	}
	// The client can navigate the rewritten link end to end.
	final := w.follow("home:80", "/page.html")
	if final.Status != 200 || !strings.Contains(string(final.Body), "pic.gif") {
		t.Fatalf("navigation to migrated doc failed: %d", final.Status)
	}
}

func TestRevocationRestoresHome(t *testing.T) {
	w := newWorld(t)
	home, coop := migrateAndServe(t, w)
	// Materialize the copy at the coop and rewrite index.
	w.get("coop:81", "/~migrate/home/80/page.html")
	w.get("home:80", "/index.html")

	home.revoke("/page.html")

	// Home serves the document directly again.
	resp := w.get("home:80", "/page.html")
	if resp.Status != 200 {
		t.Fatalf("after revoke, home served %d", resp.Status)
	}
	// The coop dropped its copy.
	if coop.CoopDocCount() != 0 {
		t.Fatalf("coop still hosts %d docs", coop.CoopDocCount())
	}
	// Index is dirty again and regenerates pointing home.
	resp = w.get("home:80", "/index.html")
	if strings.Contains(string(resp.Body), "~migrate") {
		t.Fatalf("index still points at coop after revocation: %s", resp.Body)
	}
	if !strings.Contains(string(resp.Body), `"/page.html"`) {
		t.Fatalf("index does not point home: %s", resp.Body)
	}
	// A stale coop URL still resolves for clients via relayed redirect.
	final := w.follow("coop:81", "/~migrate/home/80/page.html")
	if final.Status != 200 || !strings.Contains(string(final.Body), "pic.gif") {
		t.Fatalf("stale coop URL broke: %d %q", final.Status, final.Body)
	}
}

func TestValidationPropagatesContentChange(t *testing.T) {
	w := newWorld(t)
	home, coop := migrateAndServe(t, w)
	w.get("coop:81", "/~migrate/home/80/page.html")

	// Author edits the page at home.
	if err := home.UpdateDocument("/page.html", []byte(`<html>v2 content</html>`)); err != nil {
		t.Fatal(err)
	}
	// Before validation the coop still serves the stale copy.
	resp := w.get("coop:81", "/~migrate/home/80/page.html")
	if strings.Contains(string(resp.Body), "v2 content") {
		t.Fatal("coop served new content before validation — test premise broken")
	}
	coop.TickValidator()
	resp = w.get("coop:81", "/~migrate/home/80/page.html")
	if !strings.Contains(string(resp.Body), "v2 content") {
		t.Fatalf("coop copy not refreshed: %s", resp.Body)
	}
}

func TestValidationUnchangedGets304(t *testing.T) {
	w := newWorld(t)
	home, coop := migrateAndServe(t, w)
	w.get("coop:81", "/~migrate/home/80/page.html")
	fetchesBefore := home.Stats().Fetches.Value()
	coop.TickValidator()
	// Validation of an unchanged document is a 304: no full fetch counted.
	if home.Stats().Fetches.Value() != fetchesBefore {
		t.Fatal("validation of unchanged doc transferred content")
	}
}

func TestPiggybackPropagatesLoadTable(t *testing.T) {
	w := newWorld(t)
	home, coop := migrateAndServe(t, w)
	w.get("coop:81", "/~migrate/home/80/page.html") // coop <-> home traffic
	if _, ok := home.LoadTable().Get("coop:81"); !ok {
		t.Fatal("home never learned coop's load entry")
	}
	if _, ok := coop.LoadTable().Get("home:80"); !ok {
		t.Fatal("coop never learned home's load entry")
	}
}

func TestAutomaticMigrationUnderImbalance(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{MigrationThreshold: 1})
	w.addServer("coop", 81, nil, nil, Params{})
	// Generate load at home.
	for i := 0; i < 30; i++ {
		w.get("home:80", "/page.html")
	}
	home.TickStats()
	if home.Migrations().Len() != 1 {
		t.Fatalf("migrations = %d, want 1", home.Migrations().Len())
	}
	mig, ok := home.Migrations().Get("/page.html")
	if !ok || mig.Coop != "coop:81" {
		t.Fatalf("migrated doc = %+v, %v; want /page.html -> coop:81", mig, ok)
	}
	// The entry point stayed put.
	if loc, _ := home.Graph().Location("/index.html"); loc != "" {
		t.Fatal("entry point migrated")
	}
}

func TestNoMigrationWithoutLoad(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), nil, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	home.TickStats()
	if home.Migrations().Len() != 0 {
		t.Fatal("migrated with zero load")
	}
}

func TestMigrationRateLimitedPerStatsTick(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, map[string]string{
		"/index.html": `<a href="/a.html">a</a><a href="/b.html">b</a>`,
		"/a.html":     "<html>a</html>",
		"/b.html":     "<html>b</html>",
	}, []string{"/index.html"}, Params{MigrationThreshold: 1})
	w.addServer("c1", 81, nil, nil, Params{})
	w.addServer("c2", 82, nil, nil, Params{})
	for i := 0; i < 20; i++ {
		w.get("home:80", "/a.html")
		w.get("home:80", "/b.html")
	}
	home.TickStats() // only one migration allowed per tick
	if n := home.Migrations().Len(); n != 1 {
		t.Fatalf("migrations after one tick = %d, want 1", n)
	}
	// Next tick (after the home interval) migrates the second document to a
	// different coop (the first one is still inside T_coop).
	w.clock.Advance(10 * time.Second)
	for i := 0; i < 20; i++ {
		w.get("home:80", "/a.html")
		w.get("home:80", "/b.html")
	}
	home.TickStats()
	if n := home.Migrations().Len(); n != 2 {
		t.Fatalf("migrations after two ticks = %d, want 2", n)
	}
	snap := home.Migrations().Snapshot()
	if snap[0].Coop == snap[1].Coop {
		t.Fatalf("both docs migrated to %s within T_coop", snap[0].Coop)
	}
}

func TestPingerDeclaresDeadCoopDown(t *testing.T) {
	w := newWorld(t)
	home, coop := migrateAndServe(t, w)
	w.get("coop:81", "/~migrate/home/80/page.html")
	// Kill the coop.
	coop.Close()
	delete(w.servers, "coop:81")

	// Make the coop's entry stale, then fail pings repeatedly.
	w.clock.Advance(time.Hour)
	for i := 0; i < home.params.MaxPingFailures; i++ {
		home.TickPinger()
	}
	// The document was recalled home. The Advance also woke the home's own
	// pinger loop, whose failure may be the one that crosses the threshold:
	// its declare-down can still be recalling when the ticks above return.
	waitFor(t, 5*time.Second, "dead coop not declared down", func() bool {
		_, inTable := home.LoadTable().Get("coop:81")
		loc, _ := home.Graph().Location("/page.html")
		return !inTable && loc == ""
	})
	resp := w.get("home:80", "/page.html")
	if resp.Status != 200 {
		t.Fatalf("home does not serve recalled doc: %d", resp.Status)
	}
}

// TestReplicationAddsSecondHost: heat reported by a co-op (X-DCWS-Hot on
// its validation request), not served by the home itself, is what pushes a
// migrated document's rate over the trigger; the chain then adds a second
// host and regenerated links rotate over both.
func TestReplicationAddsSecondHost(t *testing.T) {
	w := newWorld(t)
	// 50 reported hits over the 10 s window are 5 hits/s; the first EWMA
	// step halves that.
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"},
		Params{HotReplicateRate: 2, MigrationThreshold: 1})
	w.addServer("c1", 81, nil, nil, Params{})
	w.addServer("c2", 82, nil, nil, Params{})
	home.migrate("/pic.gif", "c1:81")
	// Hammer the replica at c1, then let validation report the heat.
	for i := 0; i < 50; i++ {
		w.get("c1:81", "/~migrate/home/80/pic.gif")
	}
	srvC1 := w.servers["c1:81"]
	srvC1.TickValidator() // piggybacks the hot report to home
	home.TickStats()
	reps := home.Replicas("/pic.gif")
	if len(reps) != 2 {
		t.Fatalf("replicas = %v, want 2 hosts", reps)
	}
	// Redirects from home now rotate across both hosts.
	seen := map[string]bool{}
	for i := 0; i < 4; i++ {
		resp := w.get("home:80", "/pic.gif")
		if resp.Status != 301 {
			t.Fatalf("status = %d", resp.Status)
		}
		addr, _, err := naming.SplitURL(resp.Header.Get("Location"))
		if err != nil {
			t.Fatal(err)
		}
		seen[addr] = true
	}
	if len(seen) != 2 {
		t.Fatalf("redirects did not rotate: %v", seen)
	}
	// Both hosts can serve the document.
	for addr := range seen {
		final := w.follow(addr, "/~migrate/home/80/pic.gif")
		if final.Status != 200 {
			t.Fatalf("replica at %s served %d", addr, final.Status)
		}
	}
}

func TestQueueDropCounted(t *testing.T) {
	w := newWorld(t)
	srv := w.addServer("home", 80, siteAB(), nil, Params{Workers: 1, QueueLength: 1})
	_ = srv
	// Not deterministic to force drops through the public interface with a
	// single worker quickly; just assert the counter starts at zero and the
	// path exists.
	if srv.metric("dcws_httpx_connections_shed_total") != 0 {
		t.Fatal("fresh server reports drops")
	}
}

func TestUpdateDocumentReparsesLinks(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), nil, Params{})
	if err := home.UpdateDocument("/index.html", []byte(`<a href="/pic.gif">only pic now</a>`)); err != nil {
		t.Fatal(err)
	}
	doc, err := home.Graph().Get("/index.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(doc.LinkTo) != 1 || doc.LinkTo[0] != "/pic.gif" {
		t.Fatalf("LinkTo after update = %v", doc.LinkTo)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with empty config succeeded")
	}
	st := store.NewMem()
	fabric := memnet.NewFabric()
	if _, err := New(Config{Store: st, Network: fabric}); err == nil {
		t.Fatal("New without origin succeeded")
	}
	if _, err := New(Config{
		Store:       st,
		Network:     fabric,
		Origin:      naming.Origin{Host: "h", Port: 80},
		EntryPoints: []string{"/nope.html"},
	}); err == nil {
		t.Fatal("New with missing entry point succeeded")
	}
}

func TestStaleCoopURLForUnmigratedDoc(t *testing.T) {
	// A search engine indexed a ~migrate URL, then the doc was revoked. The
	// coop fetches, home answers 301, coop relays it.
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), nil, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	final := w.follow("coop:81", "/~migrate/home/80/page.html")
	if final.Status != 200 || !strings.Contains(string(final.Body), "pic.gif") {
		t.Fatalf("stale URL resolution failed: %d %q", final.Status, final.Body)
	}
}

func TestCoopSelfMigrateURLRedirectsToCanonical(t *testing.T) {
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), nil, Params{})
	resp := w.get("home:80", "/~migrate/home/80/page.html")
	if resp.Status != 301 {
		t.Fatalf("status = %d", resp.Status)
	}
	if loc := resp.Header.Get("Location"); loc != "http://home:80/page.html" {
		t.Fatalf("Location = %q", loc)
	}
}

func TestDefaultParamsMatchTable1(t *testing.T) {
	p := DefaultParams()
	if p.Workers != 12 {
		t.Errorf("Workers = %d, want 12", p.Workers)
	}
	if p.QueueLength != 100 {
		t.Errorf("QueueLength = %d, want 100", p.QueueLength)
	}
	if p.StatsInterval != 10*time.Second {
		t.Errorf("StatsInterval = %v, want 10s", p.StatsInterval)
	}
	if p.PingerInterval != 20*time.Second {
		t.Errorf("PingerInterval = %v, want 20s", p.PingerInterval)
	}
	if p.ValidateInterval != 120*time.Second {
		t.Errorf("ValidateInterval = %v, want 120s", p.ValidateInterval)
	}
	if p.HomeReMigrateInterval != 300*time.Second {
		t.Errorf("HomeReMigrateInterval = %v, want 300s", p.HomeReMigrateInterval)
	}
	if p.CoopMigrateInterval != 60*time.Second {
		t.Errorf("CoopMigrateInterval = %v, want 60s", p.CoopMigrateInterval)
	}
}

func TestExpiredMigrationRevokedWhenCoopOverloaded(t *testing.T) {
	w := newWorld(t)
	home, _ := migrateAndServe(t, w)
	w.get("coop:81", "/~migrate/home/80/page.html")
	// Age the migration beyond T_home and make the coop look overloaded.
	w.clock.Advance(301 * time.Second)
	cur, _ := home.LoadTable().Get("coop:81")
	home.LoadTable().Observe(glt.Entry{Server: "coop:81", Load: 1000, Stamp: cur.Stamp + 1, Updated: w.clock.Now()})
	home.TickStats()
	if loc, _ := home.Graph().Location("/page.html"); loc != "" {
		t.Fatalf("overloaded-coop migration not revoked: %q", loc)
	}
}

func TestRegenerationAfterRevokeRestoresOriginalForm(t *testing.T) {
	// Full cycle: migrate, regenerate index (coop URL), revoke, regenerate
	// again — the link must resolve back to the plain rooted form even
	// though the stored source now contains an absolute ~migrate URL.
	w := newWorld(t)
	home, _ := migrateAndServe(t, w)
	w.get("home:80", "/index.html") // regenerate with coop URL
	home.revoke("/page.html")
	resp := w.get("home:80", "/index.html")
	body := string(resp.Body)
	if strings.Contains(body, "~migrate") {
		t.Fatalf("link not restored: %s", body)
	}
	// Graph link structure survived the round trip.
	doc, _ := home.Graph().Get("/index.html")
	if len(doc.LinkTo) != 1 || doc.LinkTo[0] != "/page.html" {
		t.Fatalf("LinkTo after cycle = %v", doc.LinkTo)
	}
}

func TestResolveDocRefForms(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), nil, Params{})
	if home.Origin().Addr() != "home:80" {
		t.Fatalf("Origin = %v", home.Origin())
	}
	cases := []struct{ base, raw, want string }{
		{"/index.html", "/page.html", "/page.html"},
		{"/index.html", "page.html", "/page.html"},
		{"/a/b.html", "c.html", "/a/c.html"},
		{"/index.html", "http://home:80/page.html", "/page.html"},
		{"/index.html", "http://other:80/page.html", ""},
		{"/index.html", "http://coop:81/~migrate/home/80/page.html", "/page.html"},
		{"/index.html", "http://coop:81/~migrate/other/80/page.html", ""},
		{"/index.html", "http://coop:81/~migrate/garbage", ""},
		{"/index.html", "mailto:a@b", ""},
		{"/index.html", "#frag", ""},
		{"/index.html", "ftp://x/y", ""},
	}
	for _, c := range cases {
		if got := home.resolve(c.base, c.raw); got != c.want {
			t.Errorf("resolve(%q, %q) = %q, want %q", c.base, c.raw, got, c.want)
		}
	}
}

func TestUpdateDocumentRejectsBadName(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), nil, Params{})
	if err := home.UpdateDocument("/../evil.html", []byte("x")); err == nil {
		t.Fatal("escaping name accepted")
	}
}

func TestPathTraversalRejectedOverHTTP(t *testing.T) {
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), nil, Params{})
	resp := w.get("home:80", "/../../etc/passwd")
	if resp.Status != 400 && resp.Status != 404 {
		t.Fatalf("traversal request answered %d", resp.Status)
	}
	if strings.Contains(string(resp.Body), "root:") {
		t.Fatal("traversal leaked file contents")
	}
}

// TestRelativeLinksRewrittenOnMigration guards the relative-link path end
// to end: a site written with relative hrefs must still get its links
// rewritten when the target migrates.
func TestRelativeLinksRewrittenOnMigration(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, map[string]string{
		"/guide/index.html": `<html><a href="page.html">page</a></html>`,
		"/guide/page.html":  `<html>content</html>`,
	}, []string{"/guide/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	// The relative link produced a graph edge at build time.
	doc, err := home.Graph().Get("/guide/index.html")
	if err != nil || len(doc.LinkTo) != 1 || doc.LinkTo[0] != "/guide/page.html" {
		t.Fatalf("relative link not in graph: %+v, %v", doc, err)
	}
	home.migrate("/guide/page.html", "coop:81")
	resp := w.get("home:80", "/guide/index.html")
	if !strings.Contains(string(resp.Body), "http://coop:81/~migrate/home/80/guide/page.html") {
		t.Fatalf("relative link not rewritten: %s", resp.Body)
	}
	// End-to-end navigation still works.
	final := w.follow("coop:81", "/~migrate/home/80/guide/page.html")
	if final.Status != 200 || !strings.Contains(string(final.Body), "content") {
		t.Fatalf("migrated relative-linked doc unreachable: %d", final.Status)
	}
}

// TestParamsFieldCount pins the number of independently settable values.
// Each one multiplies the configurations tests and benchmarks must cover:
// a value with one user belongs in a constant next to the code that reads
// it (DESIGN.md "Configuration"), and a new field has to be argued for by
// raising this number.
func TestParamsFieldCount(t *testing.T) {
	if n := reflect.TypeOf(Params{}).NumField(); n != 32 {
		t.Fatalf("Params has %d fields, want 32", n)
	}
}

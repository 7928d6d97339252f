package dcws

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"dcws/internal/glt"
	"dcws/internal/httpx"
	"dcws/internal/naming"
	"dcws/internal/resilience"
	"dcws/internal/telemetry"
)

// TestHomeCrashCoopKeepsServing covers §4.5 case 4: "a co-op server should
// not throw away any data until absolutely necessary ... in order to make
// that data available in case of a home server crash."
func TestHomeCrashCoopKeepsServing(t *testing.T) {
	w := newWorld(t)
	home, coop := migrateAndServe(t, w)
	// Materialize the copy at the coop.
	if resp := w.get("coop:81", "/~migrate/home/80/page.html"); resp.Status != 200 {
		t.Fatalf("pre-crash fetch = %d", resp.Status)
	}
	// Home crashes.
	home.Close()
	delete(w.servers, "home:80")

	// The coop still serves the hosted copy.
	resp := w.get("coop:81", "/~migrate/home/80/page.html")
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "pic.gif") {
		t.Fatalf("post-crash coop serve = %d %q", resp.Status, resp.Body)
	}
	// A validation pass cannot reach the home, but must NOT drop the copy.
	coop.runValidatorTick()
	resp = w.get("coop:81", "/~migrate/home/80/page.html")
	if resp.Status != 200 {
		t.Fatalf("copy discarded after failed validation: %d", resp.Status)
	}
	if coop.CoopDocCount() != 1 {
		t.Fatalf("coop dropped the crashed home's document: %d", coop.CoopDocCount())
	}
}

// TestCoopCrashMidFetch: a request for a logically-migrated document whose
// coop cannot reach the home is answered 503, and the client can retry.
func TestCoopUnreachableHomeGives503(t *testing.T) {
	w := newWorld(t)
	w.addServer("coop", 81, nil, nil, Params{})
	// The home was never started: the coop's lazy fetch fails.
	resp := w.get("coop:81", "/~migrate/ghost/80/doc.html")
	if resp.Status != 503 {
		t.Fatalf("status = %d, want 503 when home unreachable", resp.Status)
	}
}

// TestRevokeUnreachableCoopStillRestoresHome: revocation must succeed
// locally even when the coop cannot be told (it will age out at
// validation).
func TestRevokeUnreachableCoopStillRestoresHome(t *testing.T) {
	w := newWorld(t)
	home, coop := migrateAndServe(t, w)
	w.get("coop:81", "/~migrate/home/80/page.html")
	coop.Close()
	delete(w.servers, "coop:81")

	home.revoke("/page.html")
	if loc, _ := home.Graph().Location("/page.html"); loc != "" {
		t.Fatalf("location after revoke = %q", loc)
	}
	resp := w.get("home:80", "/page.html")
	if resp.Status != 200 {
		t.Fatalf("home serve after revoke = %d", resp.Status)
	}
}

// TestOrphanedCoopCopyDroppedAtValidation: when the home re-migrates a
// document elsewhere behind the coop's back, the coop discards its copy at
// the next validation pass.
func TestOrphanedCoopCopyDroppedAtValidation(t *testing.T) {
	w := newWorld(t)
	home, _ := migrateAndServe(t, w)
	coop := w.servers["coop:81"]
	w.addServer("coop2", 82, nil, nil, Params{})
	w.get("coop:81", "/~migrate/home/80/page.html")
	if coop.CoopDocCount() != 1 {
		t.Fatal("setup: coop has no copy")
	}
	// Home reassigns the document to coop2 directly (simulating a
	// re-migration the first coop never heard about).
	home.revoke("/page.html")
	// revoke() notified coop; force the copy back to simulate a missed
	// revocation instead.
	home.migrate("/page.html", "coop2:82")
	w.get("coop:81", "/~migrate/home/80/page.html") // refetch attempt
	// The fetch relays a redirect since coop:81 is no longer authorized;
	// any remaining state is cleared by validation.
	coop.runValidatorTick()
	if n := coop.CoopDocCount(); n != 0 {
		t.Fatalf("orphaned copy still hosted: %d", n)
	}
	// And the document remains reachable end to end via coop2.
	final := w.follow("home:80", "/page.html")
	if final.Status != 200 {
		t.Fatalf("document unreachable after reassignment: %d", final.Status)
	}
}

// TestPingerRecoversFromTransientFailure: failures below the threshold must
// not trigger a recall.
func TestPingerTransientFailureTolerated(t *testing.T) {
	w := newWorld(t)
	home, coop := migrateAndServe(t, w)
	w.get("coop:81", "/~migrate/home/80/page.html")
	// One failed pinger round (coop briefly unreachable).
	l := w.fabric // close and reopen the coop listener is not supported;
	_ = l
	// Instead simulate by making the entry stale and failing fewer than
	// MaxPingFailures times against a live server — pings succeed, so
	// failures reset.
	w.clock.Advance(time.Hour)
	home.runPingerTick()
	if loc, _ := home.Graph().Location("/page.html"); loc != "coop:81" {
		t.Fatalf("healthy coop lost its document: %q", loc)
	}
	if coop.CoopDocCount() != 1 {
		t.Fatal("copy vanished")
	}
}

// TestPiggybackSurvivesForeignHeaders: unknown extension headers from other
// implementations must be ignored gracefully.
func TestForeignExtensionHeadersIgnored(t *testing.T) {
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), nil, Params{})
	extra := make(httpx.Header)
	extra.Set("X-Whatever-Else", "surprise")
	extra.Set(glt.HeaderName, "not,a,valid=header@@@")
	resp, err := w.client.Get("home:80", "/index.html", extra)
	if err != nil || resp.Status != 200 {
		t.Fatalf("request with junk headers failed: %v %v", err, resp)
	}
}

// TestConcurrentCoopFetchSingleFlight: many simultaneous first requests for
// the same migrated document must not produce duplicate stored copies or
// errors.
func TestConcurrentCoopFetch(t *testing.T) {
	w := newWorld(t)
	home, coop := migrateAndServe(t, w)
	done := make(chan int, 8)
	for i := 0; i < 8; i++ {
		go func() {
			resp, err := w.client.Get("coop:81", "/~migrate/home/80/page.html", nil)
			if err != nil {
				done <- 0
				return
			}
			done <- resp.Status
		}()
	}
	for i := 0; i < 8; i++ {
		if status := <-done; status != 200 {
			t.Fatalf("concurrent fetch %d returned %d", i, status)
		}
	}
	if coop.CoopDocCount() != 1 {
		t.Fatalf("coop doc count = %d", coop.CoopDocCount())
	}
	if home.Stats().Fetches.Value() > 8 {
		t.Fatalf("excessive refetching: %d", home.Stats().Fetches.Value())
	}
}

// TestStatusJSONServesOverHTTP verifies the operational endpoint is valid
// JSON with the expected fields after real traffic.
func TestStatusReflectsMigrations(t *testing.T) {
	w := newWorld(t)
	home, _ := migrateAndServe(t, w)
	w.get("coop:81", "/~migrate/home/80/page.html")
	st := home.Status()
	if st.MigratedOut["/page.html"] != "coop:81" {
		t.Fatalf("status migrated_out = %v", st.MigratedOut)
	}
	if home.metric("dcws_fetches_total") == 0 {
		t.Fatal("fetches = 0")
	}
	coopStatus := w.servers["coop:81"].Status()
	if len(coopStatus.CoopHosted) != 1 {
		t.Fatalf("coop status hosted = %v", coopStatus.CoopHosted)
	}
}

// TestRestartPreservesGraphAfterRegeneration: a server restarted over a
// store whose documents were regenerated (and therefore contain absolute
// ~migrate hyperlinks) must rebuild the same link graph, so later
// revocations still dirty the right documents.
func TestRestartPreservesGraphAfterRegeneration(t *testing.T) {
	w := newWorld(t)
	home, _ := migrateAndServe(t, w)
	// Regenerate /index.html: its stored source now holds an absolute
	// coop URL for /page.html.
	w.get("home:80", "/index.html")
	data, err := home.cfg.Store.Get("/index.html")
	if err != nil || !strings.Contains(string(data), "~migrate") {
		t.Fatalf("setup: stored index not regenerated: %q %v", data, err)
	}
	st := home.cfg.Store
	home.Close()
	delete(w.servers, "home:80")

	// Boot a fresh server over the same store.
	restarted, err := New(Config{
		Origin:      naming.Origin{Host: "home", Port: 80},
		Store:       st,
		Network:     w.fabric,
		Clock:       w.clock,
		EntryPoints: []string{"/index.html"},
		Peers:       []string{"coop:81"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := restarted.Start(); err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	w.servers["home:80"] = restarted

	// The edge index.html -> page.html must have survived the absolute
	// ~migrate form.
	doc, err := restarted.Graph().Get("/index.html")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, to := range doc.LinkTo {
		if to == "/page.html" {
			found = true
		}
	}
	if !found {
		t.Fatalf("restart lost the rewritten edge: LinkTo = %v", doc.LinkTo)
	}
	// The restarted server does not know about the old migration (that
	// state was in memory), so it serves /page.html locally; regenerating
	// index must restore the plain link.
	resp := w.get("home:80", "/page.html")
	if resp.Status != 200 {
		t.Fatalf("restarted home serves %d for /page.html", resp.Status)
	}
	// Force regeneration by marking dirty (a restart conservatively
	// treats recovered absolute links as current; an admin edit or
	// revocation would dirty it).
	restarted.Graph().MarkMigrated("/page.html", "coop:81")
	restarted.Graph().MarkRevoked("/page.html")
	resp = w.get("home:80", "/index.html")
	if strings.Contains(string(resp.Body), "~migrate") {
		t.Fatalf("restarted server could not restore the link: %s", resp.Body)
	}
}

// TestRecallEndpoint exercises the operator-facing recall: all documents
// migrated to the named co-op return home over HTTP.
func TestRecallEndpoint(t *testing.T) {
	w := newWorld(t)
	home, coop := migrateAndServe(t, w)
	w.get("coop:81", "/~migrate/home/80/page.html")
	req := httpx.NewRequest("POST", "/~dcws/recall")
	req.Header.Set("X-DCWS-Fetch", "coop:81")
	resp, err := w.client.Do("home:80", req)
	if err != nil || resp.Status != 200 {
		t.Fatalf("recall = %v %v", err, resp)
	}
	if !strings.Contains(string(resp.Body), "recalled 1") {
		t.Fatalf("recall body = %q", resp.Body)
	}
	if loc, _ := home.Graph().Location("/page.html"); loc != "" {
		t.Fatalf("doc still migrated after recall: %q", loc)
	}
	if coop.CoopDocCount() != 0 {
		t.Fatal("coop kept its copy after recall")
	}
	// GET is rejected, missing header is rejected.
	if resp := w.get("home:80", "/~dcws/recall"); resp.Status != 405 {
		t.Fatalf("GET recall = %d", resp.Status)
	}
	bad := httpx.NewRequest("POST", "/~dcws/recall")
	resp, _ = w.client.Do("home:80", bad)
	if resp.Status != 400 {
		t.Fatalf("recall without header = %d", resp.Status)
	}
}

// TestGraphEndpoint serves the LDG as JSON.
func TestGraphEndpoint(t *testing.T) {
	w := newWorld(t)
	home, _ := migrateAndServe(t, w)
	_ = home
	resp := w.get("home:80", "/~dcws/graph")
	if resp.Status != 200 {
		t.Fatalf("graph endpoint = %d", resp.Status)
	}
	var dump GraphDump
	if err := json.Unmarshal(resp.Body, &dump); err != nil {
		t.Fatalf("graph not JSON: %v", err)
	}
	if dump.Addr != "home:80" || len(dump.Docs) != 3 {
		t.Fatalf("dump = %+v", dump)
	}
	var sawMigrated bool
	for _, d := range dump.Docs {
		if d.Name == "/page.html" && d.Location == "coop:81" {
			sawMigrated = true
		}
	}
	if !sawMigrated {
		t.Fatal("graph dump missing migration state")
	}
}

// TestCoopCacheEviction: with a tight co-op disk budget, the
// least-recently-used hosted copy is evicted and transparently re-fetched
// on its next request (§4.5 "lack of disk space").
func TestCoopCacheEviction(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, map[string]string{
		"/index.html": `<a href="/a.html">a</a><a href="/b.html">b</a>`,
		"/a.html":     "<html>" + strings.Repeat("a", 400) + "</html>",
		"/b.html":     "<html>" + strings.Repeat("b", 400) + "</html>",
	}, []string{"/index.html"}, Params{})
	// Budget fits one migrated copy but not two.
	coop := w.addServer("coop", 81, nil, nil, Params{CoopCacheBytes: 600})
	home.migrate("/a.html", "coop:81")
	home.migrate("/b.html", "coop:81")

	// Fetch a, then b: a is LRU and must be evicted.
	if resp := w.get("coop:81", "/~migrate/home/80/a.html"); resp.Status != 200 {
		t.Fatalf("a = %d", resp.Status)
	}
	w.clock.Advance(time.Second)
	if resp := w.get("coop:81", "/~migrate/home/80/b.html"); resp.Status != 200 {
		t.Fatalf("b = %d", resp.Status)
	}
	if coop.cfg.Store.Has("/~migrate/home/80/a.html") {
		t.Fatal("LRU copy not evicted")
	}
	if !coop.cfg.Store.Has("/~migrate/home/80/b.html") {
		t.Fatal("most recent copy evicted instead of LRU")
	}
	// The evicted document is still served — lazily re-fetched.
	fetchesBefore := home.Stats().Fetches.Value()
	resp := w.get("coop:81", "/~migrate/home/80/a.html")
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "aaa") {
		t.Fatalf("evicted doc not re-served: %d", resp.Status)
	}
	if home.Stats().Fetches.Value() == fetchesBefore {
		t.Fatal("re-serve did not re-fetch from home")
	}
}

// flakySite builds an index linking to n leaf documents, giving chaos
// tests plenty of independent lazy-migration fetches.
func flakySite(n int) map[string]string {
	docs := make(map[string]string, n+1)
	var links strings.Builder
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("/doc%d.html", i)
		docs[name] = fmt.Sprintf("<html>leaf %d</html>", i)
		fmt.Fprintf(&links, `<a href="%s">%d</a>`, name, i)
	}
	docs["/index.html"] = "<html>" + links.String() + "</html>"
	return docs
}

// TestFlakyLinkFetchesSurviveRetries: with a 30%% injected dial-failure
// rate on the home<->coop link, every lazy-migration fetch must still
// succeed (zero false 503s) and repeated pinger rounds must not declare
// the live peer down. The fabric's fault schedule is seeded, so the run
// reproduces.
func TestFlakyLinkFetchesSurviveRetries(t *testing.T) {
	const nDocs = 16
	w := newWorld(t)
	params := Params{FetchAttempts: 8, ProbeAttempts: 3, BreakerThreshold: 20}
	home := w.addServer("home", 80, flakySite(nDocs), []string{"/index.html"}, params)
	coop := w.addServer("coop", 81, nil, nil, params)
	w.fabric.SetSeed(42)
	w.fabric.SetDialFailRate("home:80", "coop:81", 0.3)

	for i := 0; i < nDocs; i++ {
		home.migrate(fmt.Sprintf("/doc%d.html", i), "coop:81")
	}
	for i := 0; i < nDocs; i++ {
		path := fmt.Sprintf("/~migrate/home/80/doc%d.html", i)
		if resp := w.get("coop:81", path); resp.Status != 200 {
			t.Fatalf("fetch %s over flaky link = %d (false 503)", path, resp.Status)
		}
	}
	// Several pinger rounds across the same flaky link: transient probe
	// failures are retried inside the round and must never accumulate into
	// a down declaration against a live peer.
	for round := 0; round < 4; round++ {
		w.clock.Advance(time.Hour)
		home.runPingerTick()
	}
	if st := home.Status(); st.PeerHealth["coop:81"] == "down" {
		t.Fatal("live peer declared down over a flaky link")
	}
	if !home.LoadTable().Known("coop:81") {
		t.Fatal("live peer dropped from the load table")
	}
	retries := coop.Resilience().Stats().Retries.Value() +
		home.Resilience().Stats().Retries.Value()
	if retries == 0 {
		t.Fatal("no retries recorded — the fault injection did not bite")
	}
}

// TestPartitionSuspectDownThenRecovery walks the full §4.5 failure
// lifecycle across a network partition: suspect (no new migrations) →
// down (documents recalled, entry removed) → heal → recovery via
// piggybacked load (re-admitted, breaker reset) → migrations resume.
func TestPartitionSuspectDownThenRecovery(t *testing.T) {
	w := newWorld(t)
	w.noLoops = true
	home, coop := migrateAndServe(t, w)
	w.get("coop:81", "/~migrate/home/80/page.html")

	w.fabric.Partition("home:80", "coop:81")

	// Phase 1 — suspect: the first failed probe round marks the peer
	// suspect, which blocks new migrations before any down declaration.
	w.clock.Advance(30 * time.Second)
	home.runPingerTick()
	if !home.peerSuspect("coop:81") {
		t.Fatal("failing peer not marked suspect")
	}
	if st := home.Status(); st.PeerHealth["coop:81"] == "ok" {
		t.Fatalf("peer health = %q, want suspect", st.PeerHealth["coop:81"])
	}
	for i := 0; i < 30; i++ {
		w.get("home:80", "/pic.gif")
	}
	home.runStatsTick()
	if loc, _ := home.Graph().Location("/pic.gif"); loc != "" {
		t.Fatalf("migrated to a suspect peer: %q", loc)
	}

	// Phase 2 — down: repeated failed rounds cross MaxPingFailures.
	for i := 0; i < 5; i++ {
		w.clock.Advance(30 * time.Second)
		home.runPingerTick()
	}
	if loc, _ := home.Graph().Location("/page.html"); loc != "" {
		t.Fatalf("document still assigned to downed peer: %q", loc)
	}
	if home.LoadTable().Known("coop:81") {
		t.Fatal("downed peer still in load table")
	}
	if st := home.Status(); st.PeerHealth["coop:81"] != "down" {
		t.Fatalf("peer health = %q, want down", st.PeerHealth["coop:81"])
	}
	// The recalled document is served from home: graceful degradation.
	if resp := w.get("home:80", "/page.html"); resp.Status != 200 {
		t.Fatalf("recalled document = %d at home", resp.Status)
	}

	// Phase 3 — heal and recover: the coop's next validation pass reaches
	// home again; its piggybacked load entry is fresher than the down
	// declaration, so home re-admits it with failure trackers reset.
	w.fabric.Heal("home:80", "coop:81")
	w.clock.Advance(time.Minute)
	coop.runValidatorTick()
	if !home.LoadTable().Known("coop:81") {
		t.Fatal("recovered peer not re-admitted")
	}
	if st := home.Status(); st.PeerHealth["coop:81"] != "ok" {
		t.Fatalf("peer health after recovery = %q, want ok", st.PeerHealth["coop:81"])
	}
	if home.Resilience().StateOf("coop:81") != resilience.Closed {
		t.Fatal("breaker not reset on recovery")
	}

	// Phase 4 — migrations resume to the recovered peer.
	for i := 0; i < 30; i++ {
		w.get("home:80", "/pic.gif")
	}
	home.runStatsTick()
	if loc, _ := home.Graph().Location("/pic.gif"); loc != "coop:81" {
		t.Fatalf("migration did not resume after recovery: %q", loc)
	}
}

// TestStaleEchoDoesNotResurrectDownPeer guards the re-admission rule:
// only a load entry measured AFTER the down declaration re-admits a
// peer; old entries relayed by third parties are scrubbed.
func TestStaleEchoDoesNotResurrectDownPeer(t *testing.T) {
	w := newWorld(t)
	w.noLoops = true
	home, _ := migrateAndServe(t, w)
	w.fabric.Partition("home:80", "coop:81")
	before := w.clock.Now()
	for i := 0; i < 5; i++ {
		w.clock.Advance(30 * time.Second)
		home.runPingerTick()
	}
	if home.LoadTable().Known("coop:81") {
		t.Fatal("setup: peer not declared down")
	}

	// A pre-crash entry echoed by some other server must not resurrect
	// the dead peer.
	stale := make(httpx.Header)
	stale.Set(glt.HeaderName, fmt.Sprintf("coop:81=0.5@%d", before.UnixMilli()))
	if _, err := w.client.Get("home:80", "/index.html", stale); err != nil {
		t.Fatal(err)
	}
	if home.LoadTable().Known("coop:81") {
		t.Fatal("stale echo resurrected a down peer")
	}

	// A load entry measured after the declaration proves recovery — even
	// with the partition still up (re-admission rides on piggybacked
	// load, not on probing).
	w.clock.Advance(time.Minute)
	fresh := make(httpx.Header)
	fresh.Set(glt.HeaderName, fmt.Sprintf("coop:81=0.5@%d", w.clock.Now().UnixMilli()))
	if _, err := w.client.Get("home:80", "/index.html", fresh); err != nil {
		t.Fatal(err)
	}
	if !home.LoadTable().Known("coop:81") {
		t.Fatal("fresh entry did not re-admit the recovered peer")
	}
	if home.peerSuspect("coop:81") {
		t.Fatal("re-admitted peer still suspect (pingFail/breaker not reset)")
	}
}

// TestMaintenanceTimeoutBoundsStalledProbe: a peer that accepts
// connections but never answers must cost one MaintenanceTimeout, not
// the 30-second client default (which would exceed T_pi).
func TestMaintenanceTimeoutBoundsStalledProbe(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), nil,
		Params{MaintenanceTimeout: 100 * time.Millisecond, ProbeAttempts: 1})
	// A black hole: the listener queues connections but never serves them.
	if _, err := w.fabric.Listen("hole:80"); err != nil {
		t.Fatal(err)
	}
	home.LoadTable().Observe(glt.Entry{Server: "hole:80"})

	start := time.Now()
	home.runPingerTick()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("stalled probe took %v; maintenance timeout not applied", elapsed)
	}
	if !home.peerSuspect("hole:80") {
		t.Fatal("unresponsive peer not marked suspect")
	}
}

// TestPingerProbesRunConcurrently: three stalled peers must cost roughly
// one probe timeout per tick, not three (the probes fan out).
func TestPingerProbesRunConcurrently(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), nil,
		Params{MaintenanceTimeout: 400 * time.Millisecond, ProbeAttempts: 1})
	for _, peer := range []string{"h1:80", "h2:80", "h3:80"} {
		if _, err := w.fabric.Listen(peer); err != nil {
			t.Fatal(err)
		}
		home.LoadTable().Observe(glt.Entry{Server: peer})
	}
	start := time.Now()
	home.runPingerTick()
	elapsed := time.Since(start)
	// Serial probing would take at least 3 x 400ms.
	if elapsed > 1100*time.Millisecond {
		t.Fatalf("pinger tick took %v; probes are not concurrent", elapsed)
	}
}

// TestBreakerOpensAndFetchDegradesFast: once enough consecutive fetch
// failures accumulate against one home, the circuit opens and further
// fetches answer 503 immediately instead of dialing a dead peer.
func TestBreakerOpensAndFetchDegradesFast(t *testing.T) {
	w := newWorld(t)
	coop := w.addServer("coop", 81, nil, nil,
		Params{FetchAttempts: 1, BreakerThreshold: 2})
	// The home server never existed; every fetch attempt fails.
	for i := 0; i < 2; i++ {
		if resp := w.get("coop:81", "/~migrate/ghost/80/doc.html"); resp.Status != 503 {
			t.Fatalf("fetch %d = %d, want 503", i, resp.Status)
		}
	}
	if got := coop.Resilience().StateOf("ghost:80"); got != resilience.Open {
		t.Fatalf("breaker state = %v, want open", got)
	}
	resp := w.get("coop:81", "/~migrate/ghost/80/doc.html")
	if resp.Status != 503 || !strings.Contains(string(resp.Body), "circuit open") {
		t.Fatalf("open-circuit fetch = %d %q, want fast 503", resp.Status, resp.Body)
	}
	if state := coop.metric("dcws_resilience_peer_state",
		telemetry.Label{Key: "peer", Value: "ghost:80"}); state != float64(resilience.Open) {
		t.Fatalf("breaker state series = %v, want open", state)
	}
	if coop.metric("dcws_resilience_trips_total") == 0 {
		t.Fatal("breaker trip not counted")
	}
}

// TestCoopCacheUnlimitedByDefault: without a budget nothing is evicted.
func TestCoopCacheUnlimitedByDefault(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, map[string]string{
		"/index.html": `<a href="/a.html">a</a><a href="/b.html">b</a>`,
		"/a.html":     "<html>" + strings.Repeat("a", 400) + "</html>",
		"/b.html":     "<html>" + strings.Repeat("b", 400) + "</html>",
	}, []string{"/index.html"}, Params{})
	coop := w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/a.html", "coop:81")
	home.migrate("/b.html", "coop:81")
	w.get("coop:81", "/~migrate/home/80/a.html")
	w.get("coop:81", "/~migrate/home/80/b.html")
	if !coop.cfg.Store.Has("/~migrate/home/80/a.html") ||
		!coop.cfg.Store.Has("/~migrate/home/80/b.html") {
		t.Fatal("copies evicted without a budget")
	}
}

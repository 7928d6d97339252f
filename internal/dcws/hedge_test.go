package dcws

import (
	"errors"
	"strings"
	"testing"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/resilience"
)

const hedgeKey = "/~migrate/home/80/page.html"

// hedgeWorld boots home + two co-op servers, migrates /page.html to coop1,
// declares coop2 a second replica (as the hot-spot replicator would), and
// has both co-ops pull their physical copies. coop2's pull response carries
// X-DCWS-Replicas, so it learns coop1 as a hedge sibling; its copy is then
// dropped so the next request must refetch.
func hedgeWorld(t *testing.T, coop2Params Params) (*testWorld, *Server, *Server, *Server) {
	t.Helper()
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), nil, Params{})
	coop1 := w.addServer("coop1", 81, nil, nil, Params{})
	coop2 := w.addServer("coop2", 82, nil, nil, coop2Params)

	home.migrate("/page.html", "coop1:81")
	if resp := w.get("coop1:81", hedgeKey); resp.Status != 200 {
		t.Fatalf("coop1 pull = %d", resp.Status)
	}
	home.replicas.Set("/page.html", []string{"coop1:81", "coop2:82"})
	if resp := w.get("coop2:82", hedgeKey); resp.Status != 200 {
		t.Fatalf("coop2 pull = %d", resp.Status)
	}
	if sibs := coop2.coops.siblingsOf(hedgeKey); len(sibs) != 1 || sibs[0] != "coop1:81" {
		t.Fatalf("coop2 siblings = %v, want [coop1:81]", sibs)
	}
	coop2.coops.markAbsent(hedgeKey)
	if err := coop2.cfg.Store.Delete(hedgeKey); err != nil {
		t.Fatal(err)
	}
	return w, home, coop1, coop2
}

// TestHedgedFetchReplicaWinsWhenHomeStalls is the acceptance scenario: the
// home server's link stalls far beyond the hedge delay, so the refetch must
// be answered out of the sibling replica's copy, quickly, while the primary
// leg is still stuck.
func TestHedgedFetchReplicaWinsWhenHomeStalls(t *testing.T) {
	w, _, _, coop2 := hedgeWorld(t, Params{
		HedgeDelay:   10 * time.Millisecond,
		FetchTimeout: 50 * time.Millisecond,
	})
	// Every write on the coop2<->home link now sleeps well past both the
	// hedge delay and the per-attempt fetch timeout. Link faults arm at
	// dial time, so the pooled connection left over from the learning pull
	// must be flushed for the stall to bite.
	w.fabric.SetStall("coop2:82", "home:80", 300*time.Millisecond)
	coop2.client.Pool.FlushAddr("home:80")

	start := time.Now()
	resp := w.get("coop2:82", hedgeKey)
	elapsed := time.Since(start)
	if resp.Status != 200 {
		t.Fatalf("hedged refetch = %d: %s", resp.Status, resp.Body)
	}
	if !strings.Contains(string(resp.Body), "pic.gif") {
		t.Fatalf("body = %q", resp.Body)
	}
	if elapsed >= 250*time.Millisecond {
		t.Fatalf("hedged refetch took %v; a stalled primary attempt alone takes 300ms", elapsed)
	}
	if h := hedgeCounters(coop2); h != [4]float64{1, 1, 0, 0} {
		t.Fatalf("hedge counters launched/won/miss/wasted = %v, want launched=1 won=1", h)
	}
	found := false
	for _, sp := range coop2.Traces().Snapshot() {
		if sp.Op == "fetch-hedge" && sp.Status == 200 && sp.Peer == "coop1:81" {
			found = true
		}
	}
	if !found {
		t.Fatal("no successful fetch-hedge span recorded")
	}
}

// TestHedgeNotLaunchedWhenHomeFast: with a healthy home answering well
// within the hedge delay, the sibling must never be bothered.
func TestHedgeNotLaunchedWhenHomeFast(t *testing.T) {
	w, home, _, coop2 := hedgeWorld(t, Params{HedgeDelay: 2 * time.Second})
	fetchesBefore := home.Stats().Fetches.Value()
	if resp := w.get("coop2:82", hedgeKey); resp.Status != 200 {
		t.Fatalf("refetch = %d", resp.Status)
	}
	if home.Stats().Fetches.Value() == fetchesBefore {
		t.Fatal("refetch did not reach the home server")
	}
	if launched := coop2.metric("dcws_hedge_launched_total"); launched != 0 {
		t.Fatalf("hedge launched %v times against a fast home", launched)
	}
}

// TestHedgeMissCountedSeparately: a raced sibling that answers but has no
// usable copy (stale replica list) is a miss, not a won or lost race —
// the counters HedgeDelay tuning reads must keep the cases apart.
func TestHedgeMissCountedSeparately(t *testing.T) {
	w, _, coop1, coop2 := hedgeWorld(t, Params{
		HedgeDelay:    10 * time.Millisecond,
		FetchTimeout:  50 * time.Millisecond,
		FetchAttempts: 1,
	})
	// Home stalls past both the hedge delay and the fetch timeout, and the
	// sibling's copy is dropped behind coop2's back: the hedge probe
	// answers 404 and only the (doomed) primary leg remains.
	w.fabric.SetStall("coop2:82", "home:80", 300*time.Millisecond)
	coop2.client.Pool.FlushAddr("home:80")
	coop1.coops.markAbsent(hedgeKey)
	if err := coop1.cfg.Store.Delete(hedgeKey); err != nil {
		t.Fatal(err)
	}

	if resp := w.get("coop2:82", hedgeKey); resp.Status == 200 {
		t.Fatal("refetch succeeded with no reachable source")
	}
	if h := hedgeCounters(coop2); h != [4]float64{1, 0, 1, 0} {
		t.Fatalf("hedge counters launched/won/miss/wasted = %v, want launched=1 miss=1", h)
	}
}

// hedgeCounters reads a server's hedge outcome counters: launched, won,
// miss, wasted.
func hedgeCounters(s *Server) [4]float64 {
	return [4]float64{
		s.metric("dcws_hedge_launched_total"),
		s.metric("dcws_hedge_won_total"),
		s.metric("dcws_hedge_miss_total"),
		s.metric("dcws_hedge_wasted_total"),
	}
}

// TestPickHedgeSiblingGating: suspect siblings are skipped and a negative
// HedgeDelay disables hedging outright.
func TestPickHedgeSiblingGating(t *testing.T) {
	_, _, _, coop2 := hedgeWorld(t, Params{})
	if sib := coop2.pickHedgeSibling(hedgeKey, "home:80"); sib != "coop1:81" {
		t.Fatalf("sibling = %q, want coop1:81", sib)
	}
	coop2.coops.ProbeFailed("coop1:81")
	if sib := coop2.pickHedgeSibling(hedgeKey, "home:80"); sib != "" {
		t.Fatalf("picked suspect sibling %q", sib)
	}
	coop2.coops.ProbeOK("coop1:81")
	coop2.params.HedgeDelay = -1
	if sib := coop2.pickHedgeSibling(hedgeKey, "home:80"); sib != "" {
		t.Fatalf("picked %q with hedging disabled", sib)
	}
}

// TestBreakerTripFlushesPeerPool: when a peer's circuit breaker trips, its
// pooled connections are presumed as broken as the RPCs that tripped it and
// are flushed, so the half-open trial call later dials fresh.
func TestBreakerTripFlushesPeerPool(t *testing.T) {
	_, _, _, coop2 := hedgeWorld(t, Params{BreakerThreshold: 1})
	if ps := coop2.client.Pool.Stats(); ps.Peers["home:80"].Idle == 0 {
		t.Fatal("learning pull left no idle pooled connection to home")
	}
	err := coop2.res.Execute(resilience.Policy{MaxAttempts: 1}, "home:80", func() error {
		return errors.New("boom")
	})
	if err == nil {
		t.Fatal("failing RPC reported success")
	}
	ps := coop2.client.Pool.Stats()
	if idle := ps.Peers["home:80"].Idle; idle != 0 {
		t.Fatalf("home still has %d idle pooled conns after its breaker tripped", idle)
	}
	if ps.Retires[httpx.RetireFlush] == 0 {
		t.Fatal("no connection retired with cause flush")
	}
}

// TestHedgeProbeNeverRecurses: a hedge probe against a co-op that has no
// physical copy must answer 404 without fetching from home (the probe
// exists precisely because home is presumed slow); with the copy present it
// serves the bytes with the validator hash.
func TestHedgeProbeNeverRecurses(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), nil, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")
	key := "/~migrate/home/80/page.html"

	probe := httpx.NewRequest("GET", key)
	probe.Header.Set(headerHedge, "1")
	resp, err := w.client.Do("coop:81", probe)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 404 {
		t.Fatalf("hedge probe without copy = %d, want 404", resp.Status)
	}
	if home.Stats().Fetches.Value() != 0 {
		t.Fatal("hedge probe recursed into a fetch from home")
	}

	if resp := w.get("coop:81", key); resp.Status != 200 {
		t.Fatalf("lazy migration pull = %d", resp.Status)
	}
	probe = httpx.NewRequest("GET", key)
	probe.Header.Set(headerHedge, "1")
	resp, err = w.client.Do("coop:81", probe)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 || resp.Header.Get(headerValidate) == "" {
		t.Fatalf("hedge probe with copy = %d (validate=%q), want 200 with hash",
			resp.Status, resp.Header.Get(headerValidate))
	}
}

// TestEvictSiblingOnPeerDown: declaring a peer down must purge it from
// every hosted document's hedge-sibling list, so no future fetch races
// toward a dead server.
func TestEvictSiblingOnPeerDown(t *testing.T) {
	_, _, _, coop2 := hedgeWorld(t, Params{})
	// A second hosted document also listing coop1 as a sibling.
	otherKey := "/~migrate/home/80/pic.gif"
	coop2.coops.Host(otherKey)
	coop2.coops.setSiblings(otherKey, []string{"coop1:81", "coop3:99"})

	for _, down := coop2.coops.ProbeFailed("coop1:81"); !down; _, down = coop2.coops.ProbeFailed("coop1:81") {
	}

	if sibs := coop2.coops.siblingsOf(hedgeKey); len(sibs) != 0 {
		t.Fatalf("siblings after down declaration = %v, want none", sibs)
	}
	if sibs := coop2.coops.siblingsOf(otherKey); len(sibs) != 1 || sibs[0] != "coop3:99" {
		t.Fatalf("other doc siblings = %v, want [coop3:99]", sibs)
	}
}

// TestRevocationRacesHedgedFetch: the home revokes the document while one
// co-op (coop2) is unreachable, so coop2 still believes it hosts the
// document with coop1 as a hedge sibling. Its next refetch races a slow
// home against that revoked sibling: the probe answers 404 (a miss, not a
// win), the primary leg gets the home's 301, and the client lands on the
// home's own copy — a revoked copy is never served.
func TestRevocationRacesHedgedFetch(t *testing.T) {
	w, home, _, coop2 := hedgeWorld(t, Params{
		HedgeDelay:   10 * time.Millisecond,
		FetchTimeout: 2 * time.Second,
	})
	// Revoke with coop2 unreachable: coop1's copy is discarded, coop2
	// keeps its stale record and sibling list.
	w.fabric.SetDialFailRate(memnet.Wildcard, "coop2:82", 1.0)
	home.client.Pool.FlushAddr("coop2:82")
	home.revoke("/page.html")
	w.fabric.SetDialFailRate(memnet.Wildcard, "coop2:82", 0)
	if sibs := coop2.coops.siblingsOf(hedgeKey); len(sibs) != 1 {
		t.Fatalf("stale sibling list = %v, want the revoked coop1 entry", sibs)
	}

	// Home is slow enough that the hedge launches, but well within the
	// fetch timeout, so the primary leg still completes.
	w.fabric.SetStall("coop2:82", "home:80", 100*time.Millisecond)
	coop2.client.Pool.FlushAddr("home:80")

	fetchesBefore := home.Stats().Fetches.Value()
	resp := w.follow("coop2:82", hedgeKey)
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "pic.gif") {
		t.Fatalf("refetch = %d %q", resp.Status, resp.Body)
	}
	if h := hedgeCounters(coop2); h != [4]float64{1, 0, 1, 0} {
		t.Fatalf("hedge counters launched/won/miss/wasted = %v, want launched=1 miss=1", h)
	}
	// The 301 told coop2 it no longer hosts the document.
	if _, ok := coop2.coops.View(hedgeKey); ok {
		t.Fatal("coop2 still hosts the revoked document")
	}
	// And the home served its own copy directly — the revoked document was
	// never re-fetched by anyone.
	if got := home.Stats().Fetches.Value(); got != fetchesBefore {
		t.Fatalf("home fetches = %d, want %d", got, fetchesBefore)
	}
}

// TestHedgeMissDropsStaleSibling: a sibling that answers a hedge probe
// without a copy is evicted from the sibling list, so later refetches do
// not race toward a replica known to be gone.
func TestHedgeMissDropsStaleSibling(t *testing.T) {
	w, _, coop1, coop2 := hedgeWorld(t, Params{
		HedgeDelay:    10 * time.Millisecond,
		FetchTimeout:  50 * time.Millisecond,
		FetchAttempts: 1,
	})
	// Home stalls past the fetch timeout and the sibling's copy is gone:
	// the refetch fails outright, but the probe's 404 must still evict the
	// stale sibling entry.
	w.fabric.SetStall("coop2:82", "home:80", 300*time.Millisecond)
	coop2.client.Pool.FlushAddr("home:80")
	coop1.coops.markAbsent(hedgeKey)
	if err := coop1.cfg.Store.Delete(hedgeKey); err != nil {
		t.Fatal(err)
	}

	if resp := w.get("coop2:82", hedgeKey); resp.Status == 200 {
		t.Fatal("refetch succeeded with no reachable source")
	}
	if miss := coop2.metric("dcws_hedge_miss_total"); miss != 1 {
		t.Fatalf("hedge miss = %v, want 1", miss)
	}
	if sibs := coop2.coops.siblingsOf(hedgeKey); len(sibs) != 0 {
		t.Fatalf("siblings after miss = %v, want none", sibs)
	}
}

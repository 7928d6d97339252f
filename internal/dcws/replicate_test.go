package dcws

import (
	"strings"
	"testing"
	"time"

	"dcws/internal/memnet"
	"dcws/internal/store"
)

const chainKey = "/~migrate/home/80/page.html"

// chainParams make one statistics tick enough to trigger chain
// replication: a 1-second window and a 1 hit/s threshold, so a handful of
// serves pushes the EWMA over the line.
func chainParams() Params {
	return Params{StatsInterval: time.Second, HotReplicateRate: 1}
}

// heatUp serves /page.html at the home server enough times that the next
// statistics tick's EWMA crosses the chainParams threshold.
func heatUp(t *testing.T, w *testWorld) {
	t.Helper()
	for i := 0; i < 8; i++ {
		if resp := w.get("home:80", "/page.html"); resp.Status != 200 {
			t.Fatalf("warm-up serve = %d", resp.Status)
		}
	}
}

// TestChainReplicationPushesOnce is the tentpole scenario: a hot document
// reaches k=2 co-op servers off ONE home upload — the home pushes to the
// chain head, the head relays to its successor, and no co-op ever fetches
// back from home.
func TestChainReplicationPushesOnce(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, chainParams())
	coop1 := w.addServer("coop1", 81, nil, nil, Params{})
	coop2 := w.addServer("coop2", 82, nil, nil, Params{})

	heatUp(t, w)
	home.TickStats()

	if reps := home.Replicas("/page.html"); len(reps) != 2 ||
		reps[0] != "coop1:81" || reps[1] != "coop2:82" {
		t.Fatalf("replicas = %v, want [coop1:81 coop2:82]", reps)
	}
	if triggers, pushes := home.metric("dcws_replicate_hot_triggers_total"), home.metric("dcws_replicate_pushes_total"); triggers != 1 || pushes != 1 {
		t.Fatalf("home replication triggers=%v pushes=%v, want 1 and 1", triggers, pushes)
	}
	if home.metric("dcws_replicate_push_bytes_total") == 0 {
		t.Fatal("home recorded no pushed bytes")
	}
	if stored, relays := chainWork(coop1); stored != 1 || relays != 1 {
		t.Fatalf("coop1 stored=%v relays=%v, want 1 and 1", stored, relays)
	}
	if stored, relays := chainWork(coop2); stored != 1 || relays != 0 {
		t.Fatalf("coop2 stored=%v relays=%v, want 1 and 0", stored, relays)
	}
	// The whole point: nobody lazily pulled from home.
	if f := home.Stats().Fetches.Value(); f != 0 {
		t.Fatalf("home answered %d fetches; the chain push should have been the only transfer", f)
	}
	// Both co-ops serve the pushed copy directly.
	for _, addr := range []string{"coop1:81", "coop2:82"} {
		resp := w.get(addr, chainKey)
		if resp.Status != 200 || !strings.Contains(string(resp.Body), "pic.gif") {
			t.Fatalf("%s serve = %d %q", addr, resp.Status, resp.Body)
		}
	}
	if f := home.Stats().Fetches.Value(); f != 0 {
		t.Fatalf("serving the pushed copies caused %d home fetches", f)
	}
	// The home now redirects, and each co-op learned the other as a hedge
	// sibling from the X-DCWS-Replicas header riding the push.
	if resp := w.get("home:80", "/page.html"); resp.Status != 301 {
		t.Fatalf("home serve after replication = %d, want 301", resp.Status)
	}
	if sibs := coop1.coops.siblingsOf(chainKey); len(sibs) != 1 || sibs[0] != "coop2:82" {
		t.Fatalf("coop1 siblings = %v, want [coop2:82]", sibs)
	}
	if sibs := coop2.coops.siblingsOf(chainKey); len(sibs) != 1 || sibs[0] != "coop1:81" {
		t.Fatalf("coop2 siblings = %v, want [coop1:81]", sibs)
	}
}

// TestChainSkipsDeadLink: an unreachable mid-chain server is promoted
// past — the relay skips to the next link, the dead peer never enters the
// replica set, and the dissemination still completes.
func TestChainSkipsDeadLink(t *testing.T) {
	w := newWorld(t)
	params := chainParams()
	params.HotReplicaCount = 3
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, params)
	coop1 := w.addServer("coop1", 81, nil, nil, Params{})
	w.addServer("coop2", 82, nil, nil, Params{})
	coop3 := w.addServer("coop3", 83, nil, nil, Params{})

	// coop2 (second chain link) drops every dial.
	w.fabric.SetDialFailRate(memnet.Wildcard, "coop2:82", 1.0)

	heatUp(t, w)
	home.TickStats()

	if reps := home.Replicas("/page.html"); len(reps) != 2 ||
		reps[0] != "coop1:81" || reps[1] != "coop3:83" {
		t.Fatalf("replicas = %v, want [coop1:81 coop3:83]", reps)
	}
	if stored, relays := chainWork(coop1); stored != 1 || relays != 1 {
		t.Fatalf("coop1 stored=%v relays=%v, want 1 and 1", stored, relays)
	}
	if skips := coop1.metric("dcws_replicate_chain_skips_total"); skips != 1 {
		t.Fatalf("coop1 chain skips = %v, want 1", skips)
	}
	if stored, _ := chainWork(coop3); stored != 1 {
		t.Fatalf("coop3 stored = %v, want 1", stored)
	}
	if resp := w.get("coop3:83", chainKey); resp.Status != 200 {
		t.Fatalf("coop3 serve = %d", resp.Status)
	}
	if f := home.Stats().Fetches.Value(); f != 0 {
		t.Fatalf("dead link forced %d lazy fetches from home", f)
	}
}

// TestChainRevocationFanout: revoking a chain-replicated document reuses
// the chain — one home RPC, relayed host to host, acks aggregated back —
// and every replica is discarded with no per-peer fallback needed.
func TestChainRevocationFanout(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, chainParams())
	coop1 := w.addServer("coop1", 81, nil, nil, Params{})
	coop2 := w.addServer("coop2", 82, nil, nil, Params{})

	heatUp(t, w)
	home.TickStats()
	if len(home.Replicas("/page.html")) != 2 {
		t.Fatalf("replicas = %v", home.Replicas("/page.html"))
	}

	home.revoke("/page.html")

	if chains, fallbacks := revocations(home); chains != 1 || fallbacks != 0 {
		t.Fatalf("revoke_chains=%v revoke_fallbacks=%v, want 1 and 0", chains, fallbacks)
	}
	for name, coop := range map[string]*Server{"coop1": coop1, "coop2": coop2} {
		if _, ok := coop.coops.View(chainKey); ok {
			t.Fatalf("%s still hosts %s after chain revocation", name, chainKey)
		}
	}
	if resp := w.get("home:80", "/page.html"); resp.Status != 200 {
		t.Fatalf("home serve after revocation = %d, want 200", resp.Status)
	}
}

// TestChainRevocationFallsBackPerPeer: when the chain head is dead the
// home falls back to the existing per-peer revokes, so the reachable
// survivors still discard their copies.
func TestChainRevocationFallsBackPerPeer(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, chainParams())
	w.addServer("coop1", 81, nil, nil, Params{})
	coop2 := w.addServer("coop2", 82, nil, nil, Params{})

	heatUp(t, w)
	home.TickStats()
	if len(home.Replicas("/page.html")) != 2 {
		t.Fatalf("replicas = %v", home.Replicas("/page.html"))
	}

	// The chain head goes dark before the revocation.
	w.fabric.SetDialFailRate(memnet.Wildcard, "coop1:81", 1.0)
	home.client.Pool.FlushAddr("coop1:81")
	home.revoke("/page.html")

	if chains, fallbacks := revocations(home); chains != 1 || fallbacks != 2 {
		t.Fatalf("revoke_chains=%v revoke_fallbacks=%v, want 1 and 2", chains, fallbacks)
	}
	if _, ok := coop2.coops.View(chainKey); ok {
		t.Fatal("reachable survivor still hosts the revoked copy")
	}
	if resp := w.get("home:80", "/page.html"); resp.Status != 200 {
		t.Fatalf("home serve after revocation = %d, want 200", resp.Status)
	}
}

// TestChainReplicationWALRecovery: the chain-installed replica set is
// WAL-logged, so a crashed home comes back remembering every replica —
// redirects resume and a revocation after recovery still reaches all
// hosts.
func TestChainReplicationWALRecovery(t *testing.T) {
	w := newWorld(t)
	homeStore := store.NewMem()
	for name, body := range siteAB() {
		if err := homeStore.Put(name, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	home := w.bootServer("home", 80, homeStore, []string{"/index.html"}, chainParams(), t.TempDir()+"/wal")
	coop1 := w.addServer("coop1", 81, nil, nil, Params{})
	coop2 := w.addServer("coop2", 82, nil, nil, Params{})

	heatUp(t, w)
	home.TickStats()
	want := home.Replicas("/page.html")
	if len(want) != 2 {
		t.Fatalf("replicas before crash = %v", want)
	}

	// kill -9 the home: no final snapshot, no final sync.
	if err := home.Abort(); err != nil {
		t.Fatal(err)
	}
	reborn := w.bootServer("home", 80, homeStore, []string{"/index.html"}, chainParams(), home.cfg.WALDir)
	if !reborn.Recovery().Recovered {
		t.Fatal("restart did not recover from the WAL")
	}
	got := reborn.Replicas("/page.html")
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("replicas after recovery = %v, want %v", got, want)
	}
	if resp := w.get("home:80", "/page.html"); resp.Status != 301 {
		t.Fatalf("reborn home serve = %d, want 301", resp.Status)
	}
	// Revocation after recovery fans out along the recovered chain.
	reborn.revoke("/page.html")
	for name, coop := range map[string]*Server{"coop1": coop1, "coop2": coop2} {
		if _, ok := coop.coops.View(chainKey); ok {
			t.Fatalf("%s still hosts %s after post-recovery revocation", name, chainKey)
		}
	}
	if resp := w.get("home:80", "/page.html"); resp.Status != 200 {
		t.Fatalf("reborn home serve after revocation = %d, want 200", resp.Status)
	}
}

// TestChainReplicationDisabled: a negative HotReplicateRate switches the
// proactive path off entirely — no triggers, no pushes, however hot the
// document runs.
func TestChainReplicationDisabled(t *testing.T) {
	w := newWorld(t)
	params := chainParams()
	params.HotReplicateRate = -1
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, params)
	w.addServer("coop1", 81, nil, nil, Params{})

	heatUp(t, w)
	home.TickStats()

	// The ordinary migration policy may still move the hot document (one
	// replica via lazy fetch); what must not happen is any chain activity.
	for _, name := range []string{"dcws_replicate_hot_triggers_total", "dcws_replicate_pushes_total", "dcws_replicate_push_bytes_total"} {
		if v := home.metric(name); v != 0 {
			t.Fatalf("%s = %v, want 0", name, v)
		}
	}
}

// chainWork reads the co-op side of chain replication: copies stored and
// pushes relayed onward.
func chainWork(s *Server) (stored, relays float64) {
	return s.metric("dcws_replicate_stored_total"), s.metric("dcws_replicate_relays_total")
}

// revocations reads the home side of chain revocation: chain-ordered
// fan-outs and per-peer fallbacks.
func revocations(s *Server) (chains, fallbacks float64) {
	return s.metric("dcws_replicate_revoke_chains_total"), s.metric("dcws_replicate_revoke_fallbacks_total")
}

// TestHotRateEWMADecays: the serve-rate EWMA halves each idle tick and
// the tracking entry is dropped once it decays to noise, so a burst long
// past cannot trigger replication.
func TestHotRateEWMADecays(t *testing.T) {
	w := newWorld(t)
	params := chainParams()
	params.HotReplicateRate = 100 // never triggers in this test
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, params)

	heatUp(t, w)
	home.TickStats()
	first := home.HotRate("/page.html")
	if first <= 0 {
		t.Fatalf("EWMA after hot tick = %v, want > 0", first)
	}
	home.TickStats()
	if second := home.HotRate("/page.html"); second >= first || second != first/2 {
		t.Fatalf("EWMA after idle tick = %v, want %v", second, first/2)
	}
	for i := 0; i < 12; i++ {
		home.TickStats()
	}
	if rate := home.HotRate("/page.html"); rate != 0 {
		t.Fatalf("EWMA after long idle = %v, want dropped to 0", rate)
	}
}

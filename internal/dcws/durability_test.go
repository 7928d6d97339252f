package dcws

import (
	"strings"
	"testing"
	"time"

	"dcws/internal/glt"
	"dcws/internal/naming"
	"dcws/internal/store"
)

// bootServer starts a server on an existing store with the durable tier
// enabled, registering it with every live peer — the restart half of the
// crash/recover cycle (addServer always builds a fresh store).
func (w *testWorld) bootServer(host string, port int, st store.Store, entryPoints []string, params Params, walDir string) *Server {
	w.t.Helper()
	addr := naming.Origin{Host: host, Port: port}.Addr()
	peers := make([]string, 0, len(w.servers))
	for a := range w.servers {
		if a != addr {
			peers = append(peers, a)
		}
	}
	if params.RetryBaseDelay == 0 {
		params.RetryBaseDelay = -1
	}
	srv, err := New(Config{
		Origin:      naming.Origin{Host: host, Port: port},
		Store:       st,
		Network:     w.fabric.Named(addr),
		Clock:       w.clock,
		EntryPoints: entryPoints,
		Peers:       peers,
		Params:      params,
		WALDir:      walDir,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	for a, s := range w.servers {
		if a != addr {
			s.LoadTable().Observe(glt.Entry{Server: addr, Load: 0, Updated: time.Time{}})
		}
	}
	if err := srv.Start(); err != nil {
		w.t.Fatal(err)
	}
	w.t.Cleanup(func() { srv.Close() })
	w.servers[addr] = srv
	return srv
}

// TestCrashRecoveryCoopDocsSurvive is the §4.5 fast-rejoin scenario: a
// co-op server is killed without warning and restarted from its WAL; the
// documents it hosted must come back physically present and valid — no
// refetch, no cluster-wide revocation.
func TestCrashRecoveryCoopDocsSurvive(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	coopStore := store.NewMem()
	coop := w.bootServer("coop", 81, coopStore, nil, Params{}, t.TempDir()+"/wal")

	home.migrate("/page.html", "coop:81")
	// Drive the lazy physical migration: the coop fetches the copy and
	// appends a recCoopAdmit.
	if resp := w.follow("home:80", "/page.html"); resp.Status != 200 {
		t.Fatalf("migrated doc = %d", resp.Status)
	}
	if coop.CoopDocCount() != 1 {
		t.Fatalf("coop hosts %d documents, want 1", coop.CoopDocCount())
	}
	key := coop.coops.keys()[0]

	// kill -9: no final snapshot, no final sync.
	if err := coop.Abort(); err != nil {
		t.Fatal(err)
	}

	reborn := w.bootServer("coop", 81, coopStore, nil, Params{}, coop.cfg.WALDir)
	info := reborn.Recovery()
	if !info.Recovered {
		t.Fatal("restart did not recover from the WAL")
	}
	if info.CoopRestored != 1 {
		t.Fatalf("recovery restored %d coop docs, want 1 (%+v)", info.CoopRestored, info)
	}
	if reborn.CoopDocCount() != 1 {
		t.Fatalf("reborn coop hosts %d documents, want 1", reborn.CoopDocCount())
	}
	v, ok := reborn.coops.view(key)
	if !ok || !v.present {
		t.Fatalf("hosted copy not present after recovery: %+v ok=%v", v, ok)
	}
	if v.home.Addr() != "home:80" || v.name != "/page.html" {
		t.Fatalf("recovered record wrong: home=%s name=%s", v.home.Addr(), v.name)
	}
	// The copy serves directly — no fetch back to home is needed.
	fetchesBefore := reborn.Stats().Fetches.Value()
	if resp := w.get("coop:81", key); resp.Status != 200 {
		t.Fatalf("recovered copy = %d", resp.Status)
	}
	if got := reborn.Stats().Fetches.Value(); got != fetchesBefore {
		t.Fatalf("recovered copy re-fetched from home (%d fetches)", got-fetchesBefore)
	}
}

// TestCrashRecoveryHomeMigrationsSurvive: a crashed home server must come
// back remembering where its documents went — redirects keep working and
// the re-migration ledger stays populated.
func TestCrashRecoveryHomeMigrationsSurvive(t *testing.T) {
	w := newWorld(t)
	homeStore := store.NewMem()
	for name, body := range siteAB() {
		if err := homeStore.Put(name, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	home := w.bootServer("home", 80, homeStore, []string{"/index.html"}, Params{}, t.TempDir()+"/wal")
	w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")
	if err := home.UpdateDocument("/fresh.html", []byte(`<html><a href="/index.html">up</a></html>`)); err != nil {
		t.Fatal(err)
	}
	if err := home.Abort(); err != nil {
		t.Fatal(err)
	}

	reborn := w.bootServer("home", 80, homeStore, []string{"/index.html"}, Params{}, home.cfg.WALDir)
	if !reborn.Recovery().Recovered {
		t.Fatal("restart did not recover from the WAL")
	}
	if loc, ok := reborn.Graph().Location("/page.html"); !ok || loc != "coop:81" {
		t.Fatalf("migration lost: location=%q ok=%v", loc, ok)
	}
	if _, ok := reborn.Migrations().Get("/page.html"); !ok {
		t.Fatal("migration ledger lost across crash")
	}
	if resp := w.get("home:80", "/page.html"); resp.Status != 301 {
		t.Fatalf("migrated doc at reborn home = %d, want 301", resp.Status)
	}
	if resp := w.get("home:80", "/fresh.html"); resp.Status != 200 || !strings.Contains(string(resp.Body), "up") {
		t.Fatalf("document added before crash = %d %q", resp.Status, resp.Body)
	}
	if !reborn.Graph().Has("/fresh.html") {
		t.Fatal("crash-era document missing from recovered graph")
	}
}

// TestSnapshotReplayEquivalence: state recovered purely by replaying the
// log must equal state recovered from a snapshot — and a snapshot load
// replays zero records.
func TestSnapshotReplayEquivalence(t *testing.T) {
	w := newWorld(t)
	homeStore := store.NewMem()
	for name, body := range siteAB() {
		if err := homeStore.Put(name, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	walDir := t.TempDir() + "/wal"
	home := w.bootServer("home", 80, homeStore, []string{"/index.html"}, Params{}, walDir)
	w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")
	if err := home.UpdateDocument("/late.html", []byte(`<html>late</html>`)); err != nil {
		t.Fatal(err)
	}
	if err := home.Abort(); err != nil {
		t.Fatal(err)
	}

	// First restart recovers by replay alone (the crash wrote no snapshot).
	replayed := w.bootServer("home", 80, homeStore, []string{"/index.html"}, Params{}, walDir)
	infoA := replayed.Recovery()
	if !infoA.Recovered || infoA.ReplayedRecs == 0 {
		t.Fatalf("replay recovery stats: %+v", infoA)
	}
	migratedA := replayed.Graph().Migrated()
	docsA := replayed.Graph().Len()
	// A clean shutdown writes a snapshot covering everything.
	if err := replayed.Close(); err != nil {
		t.Fatal(err)
	}

	// Second restart loads the snapshot and replays nothing.
	snapped := w.bootServer("home", 80, homeStore, []string{"/index.html"}, Params{}, walDir)
	infoB := snapped.Recovery()
	if !infoB.Recovered {
		t.Fatal("snapshot restart did not report recovery")
	}
	if infoB.ReplayedRecs != 0 {
		t.Fatalf("snapshot restart replayed %d records, want 0", infoB.ReplayedRecs)
	}
	if infoB.SnapshotLSN == 0 {
		t.Fatal("snapshot restart loaded no snapshot")
	}
	migratedB := snapped.Graph().Migrated()
	docsB := snapped.Graph().Len()
	if docsA != docsB {
		t.Fatalf("doc count diverged: replay %d vs snapshot %d", docsA, docsB)
	}
	if len(migratedA) != len(migratedB) {
		t.Fatalf("migrated sets diverged: %v vs %v", migratedA, migratedB)
	}
	for doc, loc := range migratedA {
		if migratedB[doc] != loc {
			t.Fatalf("migration %s: replay says %q, snapshot says %q", doc, loc, migratedB[doc])
		}
	}
}

// TestStatusReportsDurability: the status snapshot names the WAL sync
// policy only when the tier is enabled, and the registry's dcws_wal_*
// series carry its progress.
func TestStatusReportsDurability(t *testing.T) {
	w := newWorld(t)
	plain := w.addServer("plain", 80, siteAB(), nil, Params{})
	if st := plain.Status(); st.WALSync != "" || plain.metric("dcws_wal_enabled") != 0 {
		t.Fatalf("durability reported enabled without a WAL: sync=%q", st.WALSync)
	}
	durable := w.bootServer("durable", 81, store.NewMem(), nil, Params{}, t.TempDir()+"/wal")
	if err := durable.UpdateDocument("/d.html", []byte("<html>d</html>")); err != nil {
		t.Fatal(err)
	}
	if st := durable.Status(); st.WALSync != "interval" || durable.metric("dcws_wal_enabled") != 1 {
		t.Fatalf("durable server: sync=%q", st.WALSync)
	}
	if appends, lsn := durable.metric("dcws_wal_appends_total"), durable.metric("dcws_wal_lsn"); appends == 0 || lsn == 0 {
		t.Fatalf("WAL append not reflected in metrics: appends=%v lsn=%v", appends, lsn)
	}
}

// TestPlacementSkipsStaleEntries is the regression test for the staleness
// gate: a peer whose load entry has gone stale must not attract
// migrations, however low its advertised load, while entries with no
// timestamp (statically configured, never heard from) stay eligible.
func TestPlacementSkipsStaleEntries(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	now := home.now()
	stale := now.Add(-2 * DefaultParams().PlacementMaxStaleness)
	home.LoadTable().Observe(glt.Entry{Server: "stale:81", Load: 0, Updated: stale})
	home.LoadTable().Observe(glt.Entry{Server: "fresh:82", Load: 1, Updated: now})

	if coop := home.ctl.PickPlacement(); coop != "fresh:82" {
		t.Fatalf("placement = %q; want fresh:82 (stale entry must be skipped)", coop)
	}

	// Entries with no timestamp are exempt: first contact must be possible.
	home.LoadTable().Remove("stale:81")
	home.LoadTable().Observe(glt.Entry{Server: "cold:83", Load: 0, Updated: time.Time{}})
	if coop := home.ctl.PickPlacement(); coop != "cold:83" {
		t.Fatalf("placement = %q; want cold:83 (zero-time entry stays eligible)", coop)
	}
}

// TestPlacementStalenessDisabled: a negative PlacementMaxStaleness turns
// the gate off entirely.
func TestPlacementStalenessDisabled(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"},
		Params{PlacementMaxStaleness: -1})
	stale := home.now().Add(-time.Hour)
	home.LoadTable().Observe(glt.Entry{Server: "stale:81", Load: 0, Updated: stale})
	if coop := home.ctl.PickPlacement(); coop != "stale:81" {
		t.Fatalf("placement = %q; want stale:81 with the gate disabled", coop)
	}
}

// TestWALMetricsExposed: the dcws_wal_* and dcws_recovery_* families are
// present in the exposition even when the tier is off, and non-zero when
// it is on and active.
func TestWALMetricsExposed(t *testing.T) {
	w := newWorld(t)
	plain := w.addServer("plain", 80, siteAB(), nil, Params{})
	resp := w.get(plain.Addr(), "/~dcws/metrics")
	body := string(resp.Body)
	for _, fam := range []string{"dcws_wal_enabled", "dcws_wal_appends_total", "dcws_recovery_last_seconds"} {
		if !strings.Contains(body, fam) {
			t.Fatalf("family %s missing from exposition without WAL", fam)
		}
	}
	if !strings.Contains(body, "dcws_wal_enabled 0") {
		t.Fatal("dcws_wal_enabled should read 0 without a WAL")
	}
	durable := w.bootServer("durable", 81, store.NewMem(), nil, Params{}, t.TempDir()+"/wal")
	if err := durable.UpdateDocument("/d.html", []byte("<html>d</html>")); err != nil {
		t.Fatal(err)
	}
	body = string(w.get(durable.Addr(), "/~dcws/metrics").Body)
	if !strings.Contains(body, "dcws_wal_enabled 1") {
		t.Fatal("dcws_wal_enabled should read 1 with a WAL")
	}
}

package dcws

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dcws/internal/glt"
	"dcws/internal/httpx"
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
	w.client = httpx.NewClient(httpx.DialerFunc(w.fabric.Dial))
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

// siteStore returns an in-memory store holding siteAB.
func siteStore(t *testing.T) *store.Mem {
	t.Helper()
	st := store.NewMem()
	for name, body := range siteAB() {
		if err := st.Put(name, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	return st
}

// fetchAsCoop is the body the home hands coop for a copy of name: the
// bytes a co-op's refetch admits.
func fetchAsCoop(t *testing.T, w *testWorld, home, coop, name string) string {
	t.Helper()
	req := httpx.NewRequest("GET", name)
	req.Header.Set(headerFetch, coop)
	resp, err := w.client.Do(home, req)
	if err != nil {
		t.Fatalf("fetch %s from %s: %v", name, home, err)
	}
	if resp.Status != 200 {
		t.Fatalf("fetch %s from %s = %d %s", name, home, resp.Status, resp.Body)
	}
	return string(resp.Body)
}

// TestSnapshotKeepsRecordsAppendedWhileEncoding: a record appended after
// the state was captured but before the snapshot was handed to the log is
// not in the snapshot, so the log must keep it. The snapshot covers the
// LSN read before the capture, and recovery replays the record on top.
func TestSnapshotKeepsRecordsAppendedWhileEncoding(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change func(t *testing.T, home *Server)
		check  func(t *testing.T, w *testWorld, reborn *Server)
	}{
		{"migration",
			func(t *testing.T, home *Server) { home.migrate("/page.html", "coop:81") },
			func(t *testing.T, w *testWorld, reborn *Server) {
				if loc, _ := reborn.Graph().Location("/page.html"); loc != "coop:81" {
					t.Fatalf("location after recovery = %q, want coop:81", loc)
				}
			}},
		{"update",
			func(t *testing.T, home *Server) {
				if err := home.UpdateDocument("/page.html", []byte("<html>v2</html>")); err != nil {
					t.Fatal(err)
				}
			},
			func(t *testing.T, w *testWorld, reborn *Server) {
				if resp := w.get("home:80", "/page.html"); resp.Status != 200 || string(resp.Body) != "<html>v2</html>" {
					t.Fatalf("page after recovery = %d %q, want v2", resp.Status, resp.Body)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			st := siteStore(t)
			walDir := t.TempDir() + "/wal"
			params := Params{SnapshotInterval: -1}
			home := w.bootServer("home", 80, st, []string{"/index.html"}, params, walDir)
			w.addServer("coop", 81, nil, nil, Params{})
			covered := home.wal.LSN()
			state := home.encodeServerSnapshot()
			tc.change(t, home)
			if err := home.wal.WriteSnapshot(covered, state); err != nil {
				t.Fatal(err)
			}
			if err := home.Abort(); err != nil {
				t.Fatal(err)
			}
			reborn := w.bootServer("home", 80, st, []string{"/index.html"}, params, walDir)
			if info := reborn.Recovery(); info.SnapshotLSN != covered || info.ReplayedRecs == 0 {
				t.Fatalf("recovery = %+v, want the snapshot at LSN %d and the record after it", info, covered)
			}
			tc.check(t, w, reborn)
		})
	}
}

// selfLinkSite is a page linking to a sibling by an absolute URL naming
// its own server, and to another by a rooted path.
func selfLinkSite(t *testing.T) (*store.Mem, string) {
	t.Helper()
	page := `<html><a href="http://home:80/b.html">b</a> <a href="/c.html">c</a></html>`
	st := store.NewMem()
	for name, body := range map[string]string{"/a.html": page, "/b.html": "<html>b</html>", "/c.html": "<html>c</html>"} {
		if err := st.Put(name, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	return st, page
}

// checkLinkTo fails unless s's graph links /a.html to exactly /b.html and
// /c.html.
func checkLinkTo(t *testing.T, s *Server, when string) {
	t.Helper()
	d, err := s.Graph().Get("/a.html")
	if err != nil || !slices.Equal(d.LinkTo, []string{"/b.html", "/c.html"}) {
		t.Fatalf("%s: /a.html LinkTo = %v (%v), want [/b.html /c.html]", when, d.LinkTo, err)
	}
}

// TestUpdateKeepsAbsoluteSelfLink: the start-up build and an update
// resolve links with the same resolver, so re-storing a page's own bytes
// leaves its graph edges as they were, the one to an absolute URL naming
// this server included.
func TestUpdateKeepsAbsoluteSelfLink(t *testing.T) {
	w := newWorld(t)
	st, page := selfLinkSite(t)
	home := w.addServerOn(st, "home", 80, nil, nil, Params{})
	checkLinkTo(t, home, "start-up build")
	if err := home.UpdateDocument("/a.html", []byte(page)); err != nil {
		t.Fatal(err)
	}
	checkLinkTo(t, home, "same-bytes update")
}

// TestReplayKeepsAbsoluteSelfLink: WAL replay resolves an updated page's
// links as the live update did.
func TestReplayKeepsAbsoluteSelfLink(t *testing.T) {
	w := newWorld(t)
	st, page := selfLinkSite(t)
	walDir := t.TempDir() + "/wal"
	home := w.bootServer("home", 80, st, nil, Params{}, walDir)
	if err := home.UpdateDocument("/a.html", []byte(page)); err != nil {
		t.Fatal(err)
	}
	if err := home.Abort(); err != nil {
		t.Fatal(err)
	}
	reborn := w.bootServer("home", 80, st, nil, Params{}, walDir)
	if reborn.Recovery().ReplayedRecs == 0 {
		t.Fatal("restart replayed nothing")
	}
	checkLinkTo(t, reborn, "replay")
}

// TestUpdateSurvivesKill is the update contract in every WALSync mode: an
// acknowledged update survives kill -9. Two updates of a migrated page,
// then Abort: the reborn home hands the co-op the last body, and the co-op
// converges to it. After Close the store's file holds the last body and
// nothing is left staged.
func TestUpdateSurvivesKill(t *testing.T) {
	for _, mode := range []string{"always", "interval", "none"} {
		t.Run(mode, func(t *testing.T) {
			w := newWorld(t)
			dir := t.TempDir()
			st, err := store.NewDir(dir + "/site")
			if err != nil {
				t.Fatal(err)
			}
			for name, body := range siteAB() {
				if err := st.Put(name, []byte(body)); err != nil {
					t.Fatal(err)
				}
			}
			params := leaseParams()
			params.WALSync = mode
			params.SnapshotInterval = -1
			boot := func() *Server {
				return w.bootServer("home", 80, st, []string{"/index.html"}, params, dir+"/wal")
			}
			home := boot()
			coop := w.addServer("coop", 81, nil, nil, leaseParams())
			home.migrate("/page.html", "coop:81")
			const key = "/~migrate/home/80/page.html"
			if resp := w.get("coop:81", key); resp.Status != 200 {
				t.Fatalf("first touch = %d", resp.Status)
			}
			for _, v := range []string{"v2", "v3"} {
				if err := home.UpdateDocument("/page.html", []byte("<html>"+v+"</html>")); err != nil {
					t.Fatal(err)
				}
			}
			if err := home.Abort(); err != nil {
				t.Fatal(err)
			}

			reborn := boot()
			if got, err := st.Get("/page.html"); err != nil || string(got) != siteAB()["/page.html"] {
				t.Fatalf("file after recovery = %q (%v), want the body before the updates: replay stages, it writes no file", got, err)
			}
			if n := reborn.metric("dcws_wal_staged_bodies"); n != 1 {
				t.Fatalf("%v bodies staged after recovery, want 1", n)
			}
			if got := fetchAsCoop(t, w, "home:80", "coop:81", "/page.html"); got != "<html>v3</html>" {
				t.Fatalf("reborn home hands the co-op %q, want v3", got)
			}
			waitFor(t, 5*time.Second, "co-op never converged to the last body", func() bool {
				coop.TickValidator()
				resp := w.get("coop:81", key)
				return resp.Status == 200 && string(resp.Body) == "<html>v3</html>"
			})

			if err := reborn.UpdateDocument("/page.html", []byte("<html>v4</html>")); err != nil {
				t.Fatal(err)
			}
			if err := reborn.Close(); err != nil {
				t.Fatal(err)
			}
			if got, err := st.Get("/page.html"); err != nil || string(got) != "<html>v4</html>" {
				t.Fatalf("file after Close = %q (%v), want v4", got, err)
			}
			if n, b := reborn.metric("dcws_wal_staged_bodies"), reborn.metric("dcws_wal_staged_bytes"); n != 0 || b != 0 {
				t.Fatalf("%v bodies (%v bytes) still staged after Close", n, b)
			}
		})
	}
}

// TestStagedThenDeletedStaysDeleted: a document created by an update and
// deleted before any snapshot wrote its file stays deleted, whether the
// server is killed or closed.
func TestStagedThenDeletedStaysDeleted(t *testing.T) {
	for _, stop := range []string{"abort", "close"} {
		t.Run(stop, func(t *testing.T) {
			w := newWorld(t)
			st := siteStore(t)
			walDir := t.TempDir() + "/wal"
			home := w.bootServer("home", 80, st, []string{"/index.html"}, Params{}, walDir)
			if err := home.UpdateDocument("/new.html", []byte("<html>new</html>")); err != nil {
				t.Fatal(err)
			}
			if resp := w.get("home:80", "/new.html"); resp.Status != 200 {
				t.Fatalf("staged document = %d, want 200", resp.Status)
			}
			if err := home.DeleteDocument("/new.html"); err != nil {
				t.Fatal(err)
			}
			if resp := w.get("home:80", "/new.html"); resp.Status != 404 {
				t.Fatalf("deleted document = %d, want 404", resp.Status)
			}
			halt := home.Abort
			if stop == "close" {
				halt = home.Close
			}
			if err := halt(); err != nil {
				t.Fatal(err)
			}
			reborn := w.bootServer("home", 80, st, []string{"/index.html"}, Params{}, walDir)
			if resp := w.get("home:80", "/new.html"); resp.Status != 404 || st.Has("/new.html") || reborn.Graph().Has("/new.html") {
				t.Fatalf("deleted document came back: GET %d, in store %v, in graph %v",
					resp.Status, st.Has("/new.html"), reborn.Graph().Has("/new.html"))
			}
			// A body staged again would reach the store at the next snapshot.
			if err := reborn.Close(); err != nil {
				t.Fatal(err)
			}
			if st.Has("/new.html") {
				t.Fatal("the reborn server's snapshot wrote the deleted document")
			}
		})
	}
}

// TestLargeStagedBodyServedFromBytes: a staged body large enough to be
// sent from its file is sent from bytes, because its file still holds the
// older body; the snapshot at Close writes the file.
func TestLargeStagedBodyServedFromBytes(t *testing.T) {
	w := newWorld(t)
	st := newCountingDir(t)
	v1, v2 := patterned(store.LargeBody+512, 1), patterned(store.LargeBody+1024, 2)
	if err := st.Put("/big.bin", v1); err != nil {
		t.Fatal(err)
	}
	home := w.bootServer("home", 80, st, nil, Params{}, t.TempDir()+"/wal")
	if err := home.UpdateDocument("/big.bin", v2); err != nil {
		t.Fatal(err)
	}
	opens := st.opens.Load()
	for _, method := range []string{"GET", "HEAD"} {
		resp, err := w.client.Do("home:80", httpx.NewRequest(method, "/big.bin"))
		if err != nil {
			t.Fatal(err)
		}
		if resp.Status != 200 || resp.Header.Get("Content-Length") != strconv.Itoa(len(v2)) ||
			(method == "GET" && !bytes.Equal(resp.Body, v2)) {
			t.Fatalf("%s of a staged large body = %d, %d bytes, Content-Length %q; want the new %d",
				method, resp.Status, len(resp.Body), resp.Header.Get("Content-Length"), len(v2))
		}
	}
	if n := st.opens.Load() - opens; n != 0 {
		t.Fatalf("a staged body opened its older file %d times", n)
	}
	if got, _ := st.Get("/big.bin"); !bytes.Equal(got, v1) {
		t.Fatal("the update wrote the file before the snapshot")
	}
	if n, b := home.metric("dcws_wal_staged_bodies"), home.metric("dcws_wal_staged_bytes"); n != 1 || b != float64(len(v2)) {
		t.Fatalf("staged gauges = %v bodies, %v bytes; want 1, %d", n, b, len(v2))
	}
	if err := home.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := st.Get("/big.bin"); !bytes.Equal(got, v2) {
		t.Fatal("Close did not write the staged body to its file")
	}
}

// TestUpdateWithFailedRecordWritesStore: an update whose record cannot be
// written is made durable in the store instead, and nothing stays staged.
func TestUpdateWithFailedRecordWritesStore(t *testing.T) {
	w := newWorld(t)
	st := siteStore(t)
	home := w.bootServer("home", 80, st, []string{"/index.html"}, Params{}, t.TempDir()+"/wal")
	if err := home.wal.Close(); err != nil {
		t.Fatal(err)
	}
	if err := home.UpdateDocument("/page.html", []byte("<html>v2</html>")); err != nil {
		t.Fatal(err)
	}
	if got, err := st.Get("/page.html"); err != nil || string(got) != "<html>v2</html>" {
		t.Fatalf("file after a failed record = %q (%v), want v2", got, err)
	}
	if n := home.metric("dcws_wal_staged_bodies"); n != 0 {
		t.Fatalf("%v bodies staged after the store write", n)
	}
}

// TestOversizedUpdateSurvivesKill: a body as large as the update endpoint
// accepts is too large for one WAL record, so it is written to the store
// at once. After a kill -9 the reborn home holds it, not the smaller body
// staged before it, and the records appended after it survive too.
func TestOversizedUpdateSurvivesKill(t *testing.T) {
	w := newWorld(t)
	dir := t.TempDir()
	st, err := store.NewDir(dir + "/site")
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range siteAB() {
		if err := st.Put(name, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	params := Params{SnapshotInterval: -1}
	boot := func() *Server {
		return w.bootServer("home", 80, st, []string{"/index.html"}, params, dir+"/wal")
	}
	home := boot()
	w.addServer("coop", 81, nil, nil, Params{})
	big := patterned(httpx.MaxBodyBytes, 3)
	for _, body := range [][]byte{[]byte("small"), big} {
		if err := home.UpdateDocument("/big.bin", body); err != nil {
			t.Fatal(err)
		}
	}
	if n := home.metric("dcws_wal_staged_bodies"); n != 0 {
		t.Fatalf("%v bodies staged after the oversized update, want 0", n)
	}
	if err := home.UpdateDocument("/page.html", []byte("<html>v2</html>")); err != nil {
		t.Fatal(err)
	}
	home.migrate("/page.html", "coop:81")
	if err := home.Abort(); err != nil {
		t.Fatal(err)
	}

	reborn := boot()
	if _, ok := reborn.stagedBody("/big.bin"); ok {
		t.Fatal("the older staged body came back over the oversized one")
	}
	if d, err := reborn.Graph().Get("/big.bin"); err != nil || d.Size != int64(len(big)) {
		t.Fatalf("/big.bin in the graph = %+v (%v), want %d bytes", d, err, len(big))
	}
	if f, _, err := st.OpenFile("/big.bin"); err != nil {
		t.Fatal(err)
	} else {
		h := sha256.New()
		_, err := io.Copy(h, f)
		f.Close()
		if want := sha256.Sum256(big); err != nil || !bytes.Equal(h.Sum(nil), want[:]) {
			t.Fatalf("/big.bin after recovery is not the oversized body (%v)", err)
		}
	}
	if loc, _ := reborn.Graph().Location("/page.html"); loc != "coop:81" {
		t.Fatalf("location after recovery = %q, want coop:81", loc)
	}
	if got := fetchAsCoop(t, w, "home:80", "coop:81", "/page.html"); got != "<html>v2</html>" {
		t.Fatalf("reborn home hands the co-op %q, want v2", got)
	}
}

// TestLogGrowthTakesSnapshot: update records carry bodies, so a log that
// has grown by walSnapshotBytes since its last snapshot takes the next one
// early, long before SnapshotInterval: the body reaches its file and the
// segments the records filled are pruned.
func TestLogGrowthTakesSnapshot(t *testing.T) {
	w := newWorld(t)
	st := siteStore(t)
	home := w.bootServer("home", 80, st, []string{"/index.html"}, Params{SnapshotInterval: time.Hour}, t.TempDir()+"/wal")
	body := patterned(1<<20, 5)
	for i := 0; i*len(body) < walSnapshotBytes; i++ {
		body[0] = byte(i)
		if err := home.UpdateDocument("/big.bin", body); err != nil {
			t.Fatal(err)
		}
	}
	if home.wal.Snapshots() != 0 {
		t.Fatal("a snapshot before the growth check ran")
	}
	waitFor(t, 5*time.Second, "no snapshot after the log grew", func() bool {
		w.clock.Advance(walGrowthCheck)
		return home.wal.Snapshots() > 0
	})
	if got, err := st.Get("/big.bin"); err != nil || !bytes.Equal(got, body) {
		t.Fatalf("file after the snapshot: %d bytes (%v), want the last body", len(got), err)
	}
	if n := home.metric("dcws_wal_staged_bodies"); n != 0 {
		t.Fatalf("%v bodies still staged after the snapshot", n)
	}
	if n := home.wal.Segments(); n != 1 {
		t.Fatalf("%d segments after the snapshot, want the one tail", n)
	}
}

// failPutStore refuses every write.
type failPutStore struct{ store.Store }

func (failPutStore) Put(string, []byte) error { return errors.New("disk full") }

// TestUpdateWithFailedRecordAndStoreChangesNothing: an update whose body
// neither the log nor the store takes is refused, with a 500 at the
// endpoint, and leaves the document as it was: served, staged and linked.
func TestUpdateWithFailedRecordAndStoreChangesNothing(t *testing.T) {
	w := newWorld(t)
	st := siteStore(t)
	home := w.bootServer("home", 80, failPutStore{st}, []string{"/index.html"}, Params{}, t.TempDir()+"/wal")
	if err := home.wal.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := home.Graph().Get("/page.html")
	if err != nil {
		t.Fatal(err)
	}
	if err := home.UpdateDocument("/page.html", []byte("<html>v2</html>")); err == nil {
		t.Fatal("an update nothing made durable succeeded")
	}
	req := httpx.NewRequest("POST", updatePath)
	req.Header.Set(headerRevokeDoc, "/page.html")
	req.Body = []byte("<html>v3</html>")
	if resp, err := w.client.Do("home:80", req); err != nil || resp.Status != 500 {
		t.Fatalf("POST %s = %v (%v), want 500", updatePath, resp, err)
	}
	if resp := w.get("home:80", "/page.html"); resp.Status != 200 || string(resp.Body) != siteAB()["/page.html"] {
		t.Fatalf("page after failed updates = %d %q, want the old body", resp.Status, resp.Body)
	}
	after, err := home.Graph().Get("/page.html")
	if err != nil || after.Size != before.Size || !slices.Equal(after.LinkTo, before.LinkTo) {
		t.Fatalf("graph after failed updates = %+v (%v), want %+v", after, err, before)
	}
	if n := home.metric("dcws_wal_staged_bodies"); n != 0 {
		t.Fatalf("%v bodies staged by failed updates", n)
	}
}

// TestUpdateRacingSnapshotSurvivesKill: updates running beside snapshots
// lose none of their bodies to a kill -9, whichever side of a snapshot
// each record and each flush lands on.
func TestUpdateRacingSnapshotSurvivesKill(t *testing.T) {
	w := newWorld(t)
	st := siteStore(t)
	walDir := t.TempDir() + "/wal"
	params := Params{SnapshotInterval: -1}
	home := w.bootServer("home", 80, st, []string{"/index.html"}, params, walDir)
	const updates = 60
	body := func(doc string, i int) string { return fmt.Sprintf("<html>%s v%d</html>", doc, i) }
	docs := []string{"/page.html", "/extra.html"}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if err := home.writeSnapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var writers sync.WaitGroup
	for _, doc := range docs {
		writers.Add(1)
		go func(doc string) {
			defer writers.Done()
			for i := 1; i <= updates; i++ {
				if err := home.UpdateDocument(doc, []byte(body(doc, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(doc)
	}
	writers.Wait()
	close(done)
	wg.Wait()
	if err := home.Abort(); err != nil {
		t.Fatal(err)
	}
	w.bootServer("home", 80, st, []string{"/index.html"}, params, walDir)
	for _, doc := range docs {
		if resp := w.get("home:80", doc); resp.Status != 200 || string(resp.Body) != body(doc, updates) {
			t.Fatalf("%s after kill = %d %q, want %q", doc, resp.Status, resp.Body, body(doc, updates))
		}
	}
}

// TestUpdateWritesByMode pins what one update writes. With a WAL: no store
// write, and one group-committed fsync under "always", none under
// "interval" or "none". Without one: the store write alone.
func TestUpdateWritesByMode(t *testing.T) {
	for _, tc := range []struct {
		mode  string // "" runs without a WAL
		puts  int64
		syncs int64
	}{{"always", 0, 1}, {"interval", 0, 0}, {"none", 0, 0}, {"", 1, 0}} {
		t.Run("wal="+tc.mode, func(t *testing.T) {
			w := newWorld(t)
			st := &countingStore{Store: siteStore(t)}
			walDir := ""
			if tc.mode != "" {
				walDir = t.TempDir() + "/wal"
			}
			home := w.bootServer("home", 80, st, []string{"/index.html"}, Params{WALSync: tc.mode}, walDir)
			syncs := func() int64 {
				if home.wal == nil {
					return 0
				}
				return home.wal.Syncs()
			}
			// The "interval" policy fsyncs on a background ticker, which
			// may fire during an update without being part of it: a run
			// it lands in is retried.
			for attempt := 0; ; attempt++ {
				puts, synced := st.puts.Load(), syncs()
				if err := home.UpdateDocument("/page.html", []byte(fmt.Sprintf("<html>v%d</html>", attempt))); err != nil {
					t.Fatal(err)
				}
				gotPuts, gotSyncs := st.puts.Load()-puts, syncs()-synced
				if gotPuts == tc.puts && gotSyncs == tc.syncs {
					return
				}
				if tc.mode != "interval" || attempt == 2 {
					t.Fatalf("one update: %d store writes and %d fsyncs, want %d and %d", gotPuts, gotSyncs, tc.puts, tc.syncs)
				}
			}
		})
	}
}

// TestAdmissionSubscribesOneDocument: once a co-op's subscription channel
// is up, admitting another copy subscribes that one document, not the
// whole inventory again.
func TestAdmissionSubscribesOneDocument(t *testing.T) {
	w := newWorld(t)
	docs := map[string]string{"/a.html": "<html>a</html>", "/b.html": "<html>b</html>"}
	home := w.addServer("home", 80, docs, nil, leaseParams())
	coop := w.addServer("coop", 81, nil, nil, leaseParams())
	registered := func(doc string) func() bool {
		return func() bool {
			home.hub.mu.Lock()
			defer home.hub.mu.Unlock()
			sub := home.hub.subs["coop:81"]
			return sub != nil && sub.docs[doc]
		}
	}
	for _, doc := range []string{"/a.html", "/b.html"} {
		home.migrate(doc, "coop:81")
		if resp := w.get("coop:81", "/~migrate/home/80"+doc); resp.Status != 200 {
			t.Fatalf("first touch of %s = %d", doc, resp.Status)
		}
		waitFor(t, 5*time.Second, doc+" never subscribed", registered(doc))
		if doc == "/a.html" {
			waitFor(t, 5*time.Second, "subscription channel never came up", func() bool {
				return coop.subs.subscriptionLive("home:80")
			})
		}
	}
	// register records its span after it has registered the documents.
	var frames []string
	waitFor(t, 5*time.Second, "home recorded fewer than two subscribe frames", func() bool {
		frames = frames[:0]
		for _, sp := range home.Traces().Snapshot() {
			if sp.Op == "subscribe" {
				frames = append(frames, sp.Target)
			}
		}
		return len(frames) >= 2
	})
	for _, f := range frames {
		if f != "docs=1" {
			t.Fatalf("subscribe frames %v: an admission re-sent the inventory", frames)
		}
	}
}

// TestDocPutRecordDecode: a recDocPut round-trips its body, an empty body
// is a body, a record of the name alone (as an older server wrote it) has
// none, and a forged body length is an error, not an allocation.
func TestDocPutRecordDecode(t *testing.T) {
	for _, body := range [][]byte{[]byte("<html>x</html>"), {}} {
		name, got, hasBody, err := decodeDocPut(encodeDocPut("/a.html", body))
		if err != nil || name != "/a.html" || !hasBody || !bytes.Equal(got, body) {
			t.Fatalf("round trip of %q = %q %q %v %v", body, name, got, hasBody, err)
		}
	}
	if name, _, hasBody, err := decodeDocPut(encodeNameRecord("/a.html")); err != nil || name != "/a.html" || hasBody {
		t.Fatalf("name-only record = %q %v %v", name, hasBody, err)
	}
	for _, n := range []uint64{hugeCount, 5} {
		forged := binary.AppendUvarint(putStr(nil, "/a.html"), n)
		forged = append(forged, "abc"...)
		if _, _, _, err := decodeDocPut(forged); err == nil {
			t.Fatalf("body length %d over 3 bytes accepted", n)
		}
	}
}

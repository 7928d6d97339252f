package dcws

import (
	"testing"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/naming"
	"dcws/internal/store"
	"dcws/internal/wal"
)

// copyWorld boots a home holding siteAB and two co-ops whose WALs can be
// read back, so each test can count the admit and forget records one copy
// transition leaves. leased turns leases on for all three; coop2Params
// adds coop2's own settings.
func copyWorld(t *testing.T, leased bool, coop2Params Params) (w *testWorld, home, coop1, coop2 *Server) {
	t.Helper()
	params := Params{}
	if leased {
		params = leaseParams()
	}
	coop2Params.LeaseDuration, coop2Params.InvalidateHeartbeat = params.LeaseDuration, params.InvalidateHeartbeat
	w = newWorld(t)
	home = w.addServer("home", 80, siteAB(), []string{"/index.html"}, params)
	coop1 = w.bootServer("coop1", 81, store.NewMem(), nil, params, t.TempDir())
	coop2 = w.bootServer("coop2", 82, store.NewMem(), nil, coop2Params, t.TempDir())
	return w, home, coop1, coop2
}

// walCount counts s's WAL records of type typ that name key.
func walCount(t *testing.T, s *Server, typ uint8, key string) int {
	t.Helper()
	n := 0
	err := s.wal.Replay(func(r wal.Record) error {
		if k, _, err := getStr(r.Data); err == nil && r.Type == typ && k == key {
			n++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// lazyFetch admits /page.html on coop the way a client's first touch does,
// minus the touch's hit: the fetch alone must count none.
func lazyFetch(t *testing.T, coop *Server) {
	t.Helper()
	origin := naming.Origin{Host: "home", Port: 80}
	coop.coops.Host(chainKey)
	if resp := coop.fetchFromHome(chainKey, origin, "/page.html", "", ""); resp != nil {
		t.Fatalf("%s lazy fetch = %d %s", coop.Addr(), resp.Status, resp.Body)
	}
}

// quietUpdate changes /page.html at the home without pushing the change, so
// the test itself decides which co-op path sees it.
func quietUpdate(t *testing.T, home *Server) {
	t.Helper()
	body := []byte(`<html><img src="/pic.gif">v2</html>`)
	if err := home.cfg.Store.Put("/page.html", body); err != nil {
		t.Fatal(err)
	}
	home.ldg.AddDoc("/page.html", int64(len(body)), pageLinks("/page.html", body, home.resolve))
}

// waitRegistered waits until the home holds coop's subscription to
// /page.html, so no catch-up frame can race the path under test.
func waitRegistered(t *testing.T, home, coop *Server) {
	t.Helper()
	waitFor(t, 2*time.Second, "subscription never registered", func() bool {
		home.hub.mu.Lock()
		defer home.hub.mu.Unlock()
		sub := home.hub.subs[coop.Addr()]
		return sub != nil && sub.docs["/page.html"]
	})
}

// unplace returns /page.html home without telling any co-op, so the next
// fetch or validation of a copy is answered 301.
func unplace(home *Server) {
	home.relocate("/page.html", nil)
	home.ctl.Forget("/page.html")
}

// TestCopyTransitions drives every path by which a co-op copy enters or
// leaves, and checks that each ends in the same state through the same
// records. Admission: the copy is present under the home's hash, with one
// recCoopAdmit, a lease and a subscription when leases are on, and no hit
// until a client asks for it. Removal: no record, no stored bytes, one
// recCoopForget.
func TestCopyTransitions(t *testing.T) {
	admits := []struct {
		name  string
		coop2 Params
		// setup prepares the world; admit then runs the path under test
		// and returns the co-op it admitted a copy on.
		setup func(t *testing.T, w *testWorld, home, coop1, coop2 *Server)
		admit func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) *Server
	}{
		{name: "lazy fetch",
			setup: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) { home.migrate("/page.html", "coop1:81") },
			admit: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) *Server {
				lazyFetch(t, coop1)
				return coop1
			}},
		{name: "hedge win", coop2: Params{HedgeDelay: 10 * time.Millisecond, FetchTimeout: 50 * time.Millisecond},
			setup: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) {
				home.migrate("/page.html", "coop1:81")
				home.relocate("/page.html", []string{"coop1:81", "coop2:82"})
				lazyFetch(t, coop1)
				lazyFetch(t, coop2) // learns coop1 as its sibling
				coop2.coops.markAbsent(chainKey)
				coop2.cfg.Store.Delete(chainKey)
				w.fabric.SetStall("coop2:82", "home:80", 300*time.Millisecond)
				coop2.client.Pool.FlushAddr("home:80")
			},
			admit: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) *Server {
				lazyFetch(t, coop2)
				if won := coop2.metric("dcws_hedge_won_total"); won != 1 {
					t.Fatalf("hedges won = %v, want 1", won)
				}
				return coop2
			}},
		{name: "chain head",
			admit: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) *Server {
				home.chainReplicate("/page.html", []string{"coop1:81", "coop2:82"})
				return coop1
			}},
		{name: "chain tail",
			admit: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) *Server {
				home.chainReplicate("/page.html", []string{"coop1:81", "coop2:82"})
				return coop2
			}},
		{name: "validator 200",
			setup: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) {
				home.migrate("/page.html", "coop1:81")
				lazyFetch(t, coop1)
			},
			admit: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) *Server {
				quietUpdate(t, home)
				if got := coop1.validateOne(chainKey); got != "refreshed" {
					t.Fatalf("validation = %q, want refreshed", got)
				}
				return coop1
			}},
		{name: "pushed update",
			setup: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) {
				home.migrate("/page.html", "coop1:81")
				lazyFetch(t, coop1)
			},
			admit: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) *Server {
				quietUpdate(t, home)
				coop1.applyInvalidation(&subConn{home: "home:80"}, invalUpdate, invDoc{name: "/page.html"})
				return coop1
			}},
		{name: "shipped copy",
			setup: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) {
				home.migrate("/page.html", "coop1:81")
				lazyFetch(t, coop1)
			},
			admit: func(t *testing.T, w *testWorld, home, coop1, coop2 *Server) *Server {
				quietUpdate(t, home)
				body, hash, err := home.renderCopy("/page.html", home.ldg.Generation("/page.html"))
				if err != nil {
					t.Fatal(err)
				}
				coop1.applyInvalidation(&subConn{home: "home:80"}, invalUpdate, invDoc{name: "/page.html", hash: hash, body: body})
				return coop1
			}},
	}
	for _, leased := range []bool{false, true} {
		for _, tc := range admits {
			name := tc.name
			if leased {
				name += " leased"
			}
			t.Run(name, func(t *testing.T) {
				w, home, coop1, coop2 := copyWorld(t, leased, tc.coop2)
				if tc.setup != nil {
					tc.setup(t, w, home, coop1, coop2)
				}
				if leased {
					for _, c := range []*Server{coop1, coop2} {
						if _, ok := c.coops.View(chainKey); ok {
							waitRegistered(t, home, c)
						}
					}
				}
				before := map[*Server]int{coop1: walCount(t, coop1, recCoopAdmit, chainKey), coop2: walCount(t, coop2, recCoopAdmit, chainKey)}
				coop := tc.admit(t, w, home, coop1, coop2)

				v, ok := coop.coops.View(chainKey)
				if !ok || !v.Present {
					t.Fatalf("copy hosted=%v present=%v, want a present copy", ok, v.Present)
				}
				if want, _ := home.migrationHash("/page.html"); v.Hash != want {
					t.Fatalf("copy hash %x, want the home's %x", v.Hash, want)
				}
				if n := walCount(t, coop, recCoopAdmit, chainKey) - before[coop]; n != 1 {
					t.Fatalf("%d recCoopAdmit records, want 1", n)
				}
				if leased {
					if !v.Leased || !v.LeaseUntil.After(coop.now()) {
						t.Fatalf("copy not leased: %+v", v)
					}
					coop.subs.mu.Lock()
					sc := coop.subs.homes["home:80"]
					coop.subs.mu.Unlock()
					if sc == nil {
						t.Fatal("no subscription to the home")
					}
				}
				// An admission is not a request: the co-op reports no heat
				// until a client asks for the copy.
				if hot := coop.coops.HotReport("home:80"); hot != nil {
					t.Fatalf("hot report before any client GET = %v, want none", hot)
				}
				if resp := w.get(coop.Addr(), chainKey); resp.Status != 200 {
					t.Fatalf("client GET = %d", resp.Status)
				}
				if hot := coop.coops.HotReport("home:80"); hot["/page.html"] != 1 || len(hot) != 1 {
					t.Fatalf("hot report after one client GET = %v, want /page.html=1", hot)
				}
			})
		}
	}

	drops := []struct {
		name string
		// drop runs the path under test on a world where coop1 (and, for
		// a chain, coop2) hosts a present copy, and returns the co-op that
		// must have dropped it.
		chain bool
		drop  func(t *testing.T, home, coop1, coop2 *Server) *Server
	}{
		{name: "revoke RPC", drop: func(t *testing.T, home, coop1, coop2 *Server) *Server {
			home.revoke("/page.html")
			return coop1
		}},
		{name: "chain-revoke relay", chain: true, drop: func(t *testing.T, home, coop1, coop2 *Server) *Server {
			home.revoke("/page.html")
			return coop2
		}},
		{name: "validator 301", drop: func(t *testing.T, home, coop1, coop2 *Server) *Server {
			unplace(home)
			if got := coop1.validateOne(chainKey); got != "dropped" {
				t.Fatalf("validation = %q, want dropped", got)
			}
			return coop1
		}},
		{name: "validator 404", drop: func(t *testing.T, home, coop1, coop2 *Server) *Server {
			home.cfg.Store.Delete("/page.html")
			home.ldg.Remove("/page.html")
			if got := coop1.validateOne(chainKey); got != "dropped" {
				t.Fatalf("validation = %q, want dropped", got)
			}
			return coop1
		}},
		{name: "pushed delete", drop: func(t *testing.T, home, coop1, coop2 *Server) *Server {
			coop1.applyInvalidation(&subConn{home: "home:80"}, invalDelete, invDoc{name: "/page.html"})
			return coop1
		}},
		{name: "pushed revoke", drop: func(t *testing.T, home, coop1, coop2 *Server) *Server {
			coop1.applyInvalidation(&subConn{home: "home:80"}, invalRevoke, invDoc{name: "/page.html"})
			return coop1
		}},
		{name: "fetch 301", drop: func(t *testing.T, home, coop1, coop2 *Server) *Server {
			coop1.coops.markAbsent(chainKey) // evicted: the next touch fetches
			unplace(home)
			resp := coop1.fetchFromHome(chainKey, naming.Origin{Host: "home", Port: 80}, "/page.html", "", "")
			if resp == nil || resp.Status != 301 {
				t.Fatalf("fetch = %v, want a relayed 301", resp)
			}
			return coop1
		}},
	}
	// A revocation that lands while a fetch's 200 is on the way wins: the
	// late 200 must not bring the copy back as a present, leased copy of a
	// document the home has already taken off this host's subscription,
	// whose updates would then never reach it.
	t.Run("revoke beats a fetch's 200 leased", func(t *testing.T) {
		w, home, coop1, _ := copyWorld(t, true, Params{})
		home.migrate("/page.html", "coop1:81")
		lazyFetch(t, coop1)
		waitRegistered(t, home, coop1)
		coop1.coops.markAbsent(chainKey) // evicted: the next touch fetches
		resp, err := coop1.fetchLeg("home:80", "/page.html", "fetch-home", false, "", "", nil, coop1.fetchPolicy)
		if err != nil || resp.Status != 200 {
			t.Fatalf("fetch = %v, %v; want a 200", resp, err)
		}
		// Every frame pushed so far names one document and is acked once
		// applied; the revoke's own frame must be applied too, so it
		// cannot tidy up after the late 200.
		settled := func() bool {
			return home.metric("dcws_invalidate_acks_total") == home.metric("dcws_invalidate_pushes_total")
		}
		waitFor(t, 2*time.Second, "frames never acked", settled)
		pushes := home.metric("dcws_invalidate_pushes_total")
		home.revoke("/page.html")
		if home.metric("dcws_invalidate_pushes_total") == pushes {
			t.Fatal("revoke pushed no frame")
		}
		waitFor(t, 2*time.Second, "revoke frame never acked", settled)
		if out := coop1.finishFetch(chainKey, resp); out != nil {
			t.Fatalf("late 200 = %d %s", out.Status, out.Body)
		}
		if v, ok := coop1.coops.View(chainKey); ok {
			t.Fatalf("late 200 re-admitted the revoked copy: %+v", v)
		}
		if coop1.cfg.Store.Has(chainKey) {
			t.Fatal("late 200 left its bytes stored")
		}
		if n := walCount(t, coop1, recCoopAdmit, chainKey); n != 1 {
			t.Fatalf("%d recCoopAdmit records, want only the first fetch's", n)
		}
		// The next client is sent home, where the new version is.
		quietUpdate(t, home)
		if got := w.get(coop1.Addr(), chainKey); got.Status != 301 {
			t.Fatalf("GET after revoke and update = %d %q, want a 301 home", got.Status, got.Body)
		}
	})

	for _, tc := range drops {
		t.Run(tc.name, func(t *testing.T) {
			_, home, coop1, coop2 := copyWorld(t, false, Params{})
			if tc.chain {
				home.chainReplicate("/page.html", []string{"coop1:81", "coop2:82"})
			} else {
				home.migrate("/page.html", "coop1:81")
				lazyFetch(t, coop1)
			}
			coop := tc.drop(t, home, coop1, coop2)
			if _, ok := coop.coops.View(chainKey); ok {
				t.Fatal("record survived the drop")
			}
			if coop.cfg.Store.Has(chainKey) {
				t.Fatal("stored bytes survived the drop")
			}
			if n := walCount(t, coop, recCoopForget, chainKey); n != 1 {
				t.Fatalf("%d recCoopForget records, want 1", n)
			}
		})
	}
}

// TestHotReportCommaName: a hosted document whose name holds a ',' reaches
// its home under that name, not as a fragment of it.
func TestHotReportCommaName(t *testing.T) {
	_, home, coop1, _ := copyWorld(t, false, Params{})
	origin := naming.Origin{Host: "home", Port: 80}
	for _, name := range []string{"/a,b.html", "/100%.html"} {
		key, err := naming.Encode(origin, name)
		if err != nil {
			t.Fatal(err)
		}
		coop1.coops.Touch(key, time.Time{})
		coop1.coops.Touch(key, time.Time{})
	}
	req := httpx.Header{}
	coop1.attachHotReport(req, "home:80")
	home.absorbHot(req)
	home.ctl.hotMu.Lock()
	got := home.ctl.hotHints
	home.ctl.hotMu.Unlock()
	if len(got) != 2 || got["/a,b.html"] != 2 || got["/100%.html"] != 2 {
		t.Fatalf("home heard %v, want /a,b.html=2 and /100%%.html=2", got)
	}
}

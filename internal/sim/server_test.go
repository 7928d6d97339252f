package sim

import (
	"math/rand"
	"testing"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/dcws"
)

func testServer(t *testing.T) (*World, *simServer) {
	t.Helper()
	w := &World{
		cfg:     Config{},
		params:  dcws.Params{}.WithDefaults(),
		cost:    DefaultCostModel(),
		now:     time.Unix(0, 0),
		servers: make(map[string]*simServer),
	}
	w.stopAt = w.now.Add(time.Hour)
	s := newSimServer(w, "s1:80", w.params, w.cost)
	w.servers["s1:80"] = s
	w.order = []string{"s1:80"}
	return w, s
}

func TestReserveWorkerFIFO(t *testing.T) {
	_, s := testServer(t)
	base := time.Unix(0, 0)
	// Twelve reservations start immediately on distinct workers...
	for i := 0; i < len(s.workers); i++ {
		if start := s.reserveWorker(base, 10*time.Millisecond); !start.Equal(base) {
			t.Fatalf("reservation %d start = %v, want immediate", i, start)
		}
	}
	// ...the thirteenth queues behind the earliest completion.
	start := s.reserveWorker(base, 10*time.Millisecond)
	if got := start.Sub(base); got != 10*time.Millisecond {
		t.Fatalf("queued start = +%v, want +10ms", got)
	}
	// Service lengths accumulate per worker, not globally.
	start2 := s.reserveWorker(base, 10*time.Millisecond)
	if got := start2.Sub(base); got != 10*time.Millisecond {
		t.Fatalf("parallel queued start = +%v, want +10ms (different worker)", got)
	}
}

func TestServeHomeStates(t *testing.T) {
	w, s := testServer(t)
	_ = w
	site := dataset.HotImage()
	s.loadSite(site)

	// Unknown document.
	rep, _ := s.serveHome("/nope.html")
	if rep.status != 404 {
		t.Fatalf("unknown doc = %d", rep.status)
	}
	// Local document: first serve builds a snapshot and counts a hit.
	rep, extra := s.serveHome("/index.html")
	if rep.status != 200 || rep.doc == nil {
		t.Fatalf("local serve = %+v", rep)
	}
	if extra != s.cost.ParseCost {
		t.Fatalf("first-serve extra = %v, want parse cost", extra)
	}
	if d := s.docs["/index.html"]; d.hits != 1 || d.windowHits != 1 {
		t.Fatalf("hits = %d/%d", d.hits, d.windowHits)
	}
	// Second serve is free of parse cost.
	if _, extra = s.serveHome("/index.html"); extra != 0 {
		t.Fatalf("second-serve extra = %v", extra)
	}
	// Build the page's snapshot before migrating so the dirty-regeneration
	// path (not the first-parse path) is exercised below.
	s.serveHome("/pages/p00.html")
	// Migrated document redirects with the coop address.
	s.Migrate("/big.jpg", "s2:80")
	rep, _ = s.serveHome("/big.jpg")
	if rep.status != 301 || rep.loc.Addr != "s2:80" || rep.loc.Name != "/big.jpg" {
		t.Fatalf("redirect = %+v", rep)
	}
	// Migration dirtied every page embedding the image.
	dirty := 0
	for _, d := range s.docs {
		if d.dirty {
			dirty++
		}
	}
	if dirty != 30 {
		t.Fatalf("dirtied %d docs, want 30 pages", dirty)
	}
	// Serving a dirty page charges the regeneration cost and re-points the
	// image link at the coop.
	rep, extra = s.serveHome("/pages/p00.html")
	if extra < s.cost.RegenCost {
		t.Fatalf("regen extra = %v", extra)
	}
	for _, l := range rep.doc.links {
		if l.t.Name == "/big.jpg" && l.t.Addr != "s2:80" {
			t.Fatalf("regenerated link not rewritten: %+v", l.t)
		}
	}
}

func TestRevokeRestoresSnapshotLinks(t *testing.T) {
	_, s := testServer(t)
	s.loadSite(dataset.HotImage())
	s.Migrate("/big.jpg", "s2:80")
	s.serveHome("/pages/p00.html") // regenerate with coop link
	s.Revoke("/big.jpg")
	rep, _ := s.serveHome("/pages/p00.html")
	for _, l := range rep.doc.links {
		if l.t.Name == "/big.jpg" && l.t.Addr != "s1:80" {
			t.Fatalf("revoked link still points at coop: %+v", l.t)
		}
	}
	if s.revocations != 1 {
		t.Fatalf("revocations = %d", s.revocations)
	}
}

func TestWalkCensusCoversEntryAndHotDocs(t *testing.T) {
	site := dataset.MAPUG()
	hits := walkCensus(site, 500, rand.New(rand.NewSource(1)))
	if hits["/index.html"] < 400 {
		t.Fatalf("entry hits = %v, want ~1 per sequence", hits["/index.html"])
	}
	// Buttons are requested about once per sequence (client cache), far
	// below their raw 1500-page fan-in.
	btn := hits["/buttons/next.gif"]
	if btn < 300 || btn > 600 {
		t.Fatalf("button hits = %v, want ~once per sequence", btn)
	}
	// An individual message is visited far less often.
	if hits["/msg/t000/m05.html"] > btn/5 {
		t.Fatalf("message as hot as a button: %v vs %v", hits["/msg/t000/m05.html"], btn)
	}
}

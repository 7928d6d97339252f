package dcws

import (
	"strings"
	"sync"
	"testing"

	"dcws/internal/httpx"
	"dcws/internal/naming"
)

func TestRenderCacheServesRepeatHits(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), nil, Params{})
	first := w.get("home:80", "/index.html")
	hitsBefore, _ := home.CacheCounts()
	second := w.get("home:80", "/index.html")
	hitsAfter, _ := home.CacheCounts()
	if hitsAfter <= hitsBefore {
		t.Fatalf("repeat GET did not hit the render cache: hits %d -> %d", hitsBefore, hitsAfter)
	}
	if string(first.Body) != string(second.Body) {
		t.Fatal("cached serve returned different bytes")
	}
}

func TestRenderCacheInvalidatedByMigration(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	// Warm the cache with the pre-migration rendering.
	if resp := w.get("home:80", "/index.html"); strings.Contains(string(resp.Body), "~migrate") {
		t.Fatal("test premise broken: index already rewritten")
	}
	w.get("home:80", "/index.html")
	home.migrate("/page.html", "coop:81")
	resp := w.get("home:80", "/index.html")
	if !strings.Contains(string(resp.Body), "http://coop:81/~migrate/home/80/page.html") {
		t.Fatalf("stale cached rendering served after migration: %s", resp.Body)
	}
}

func TestRenderCacheInvalidatedByRevocation(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")
	// Warm the cache with the coop-pointing rendering.
	if resp := w.get("home:80", "/index.html"); !strings.Contains(string(resp.Body), "~migrate") {
		t.Fatal("test premise broken: index not rewritten after migration")
	}
	w.get("home:80", "/index.html")
	home.revoke("/page.html")
	resp := w.get("home:80", "/index.html")
	if strings.Contains(string(resp.Body), "~migrate") {
		t.Fatalf("stale cached rendering served after revocation: %s", resp.Body)
	}
}

func TestRenderCacheInvalidatedByRecall(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")
	w.get("home:80", "/index.html")
	w.get("home:80", "/index.html") // cached coop-pointing copy
	if n := home.RecallFrom("coop:81"); n != 1 {
		t.Fatalf("recalled %d documents, want 1", n)
	}
	resp := w.get("home:80", "/index.html")
	if strings.Contains(string(resp.Body), "~migrate") {
		t.Fatalf("stale cached rendering served after recall: %s", resp.Body)
	}
}

func TestRenderCacheInvalidatedByUpdate(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), nil, Params{})
	w.get("home:80", "/index.html")
	w.get("home:80", "/index.html") // cached
	if err := home.UpdateDocument("/index.html", []byte("<html>fresh</html>")); err != nil {
		t.Fatal(err)
	}
	resp := w.get("home:80", "/index.html")
	if !strings.Contains(string(resp.Body), "fresh") {
		t.Fatalf("stale cached rendering served after update: %s", resp.Body)
	}
}

func TestMigrationGenerationsDirtyLinkingDocs(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	g := home.Graph()
	pageGen := g.Generation("/page.html")
	indexGen := g.Generation("/index.html")
	picGen := g.Generation("/pic.gif")
	home.migrate("/page.html", "coop:81")
	if g.Generation("/page.html") == pageGen {
		t.Fatal("migrated document's generation did not advance")
	}
	// /index.html links to /page.html: it was dirtied, so its rendered
	// form is stale and its generation must advance with the dirty bit.
	if g.Generation("/index.html") == indexGen {
		t.Fatal("dirtied linking document's generation did not advance")
	}
	// /pic.gif has no link to /page.html: untouched.
	if g.Generation("/pic.gif") != picGen {
		t.Fatal("unrelated document's generation advanced")
	}
}

func TestMigrationCopyRenderedOnce(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")
	fetch := func() *httpx.Response {
		req := httpx.NewRequest("GET", "/page.html")
		req.Header.Set(headerFetch, "coop:81")
		resp, err := w.client.Do("home:80", req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := fetch()
	hitsBefore, _ := home.CacheCounts()
	second := fetch()
	hitsAfter, _ := home.CacheCounts()
	if first.Status != 200 || second.Status != 200 {
		t.Fatalf("fetch statuses %d, %d", first.Status, second.Status)
	}
	if string(first.Body) != string(second.Body) {
		t.Fatal("repeated migration fetches differ")
	}
	if hitsAfter <= hitsBefore {
		t.Fatal("second migration fetch re-rendered instead of hitting the cache")
	}
	if first.Header.Get(headerValidate) == "" || first.Header.Get(headerValidate) != second.Header.Get(headerValidate) {
		t.Fatalf("content hash unstable across cached fetches: %q vs %q",
			first.Header.Get(headerValidate), second.Header.Get(headerValidate))
	}
}

func TestStatusExposesCacheAndQueueGauges(t *testing.T) {
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), nil, Params{})
	w.get("home:80", "/index.html")
	w.get("home:80", "/index.html")
	body := string(w.get("home:80", "/~dcws/metrics").Body)
	for _, line := range []string{"dcws_render_cache_hits_total 1", "dcws_render_cache_misses_total 1", "dcws_httpx_queue_depth 0"} {
		if !strings.Contains(body, "\n"+line+"\n") {
			t.Fatalf("metrics lack %q:\n%s", line, body)
		}
	}
}

// TestConcurrentServeAndMigrate hammers the serving engine from several
// goroutines while migrations, revocations, and content updates churn the
// graph — run under -race this guards the decomposed locking scheme and
// the generation-keyed cache.
func TestConcurrentServeAndMigrate(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if resp := home.handle(httpx.NewRequest("GET", "/index.html")); resp.Status != 200 {
					t.Errorf("index served %d", resp.Status)
					return
				}
				// /page.html flips between at-home (200) and migrated (301).
				if resp := home.handle(httpx.NewRequest("GET", "/page.html")); resp.Status != 200 && resp.Status != 301 {
					t.Errorf("page served %d", resp.Status)
					return
				}
			}
		}()
	}
	for i := 0; i < 40; i++ {
		home.migrate("/page.html", "coop:81")
		if i%4 == 0 {
			home.UpdateDocument("/pic.gif", []byte("GIF89a-new-bytes"))
		}
		home.revoke("/page.html")
	}
	close(stop)
	wg.Wait()
}

func TestRenderCacheDropsStaleGeneration(t *testing.T) {
	c := newRenderCache(1 << 20)
	c.put("/a.html", renderHome, 1, []byte("gen-one"), 0)
	if _, _, ok := c.get("/a.html", renderHome, 2); ok {
		t.Fatal("stale generation served")
	}
	if c.len() != 0 {
		t.Fatalf("stale entry not dropped: len = %d", c.len())
	}
}

func TestRenderCacheBudget(t *testing.T) {
	// Per-shard budget of 16 bytes. Both kinds of one name land in the
	// same shard, so the second insert must evict the first.
	c := newRenderCache(16 * renderShardCount)
	c.put("/a.html", renderHome, 1, make([]byte, 10), 0)
	c.put("/a.html", renderMigration, 1, make([]byte, 10), 0)
	if _, _, ok := c.get("/a.html", renderHome, 1); ok {
		t.Fatal("LRU entry survived over-budget insert")
	}
	if _, _, ok := c.get("/a.html", renderMigration, 1); !ok {
		t.Fatal("newest entry evicted")
	}
	// A document larger than a whole shard is never cached.
	c.put("/big.html", renderHome, 1, make([]byte, 64), 0)
	if _, _, ok := c.get("/big.html", renderHome, 1); ok {
		t.Fatal("oversized document cached")
	}
}

func TestCoopSetBudgetEviction(t *testing.T) {
	cs := newCoopSet()
	origin := naming.Origin{Host: "home", Port: 80}
	for _, k := range []string{"a", "b", "c"} {
		cs.touch(k, origin, "/"+k)
		cs.markFetched(coopSeed{key: k, home: origin, name: "/" + k, size: 40})
	}
	cs.touch("a", origin, "/a") // a becomes most recently used
	if got := cs.presentBytes(); got != 120 {
		t.Fatalf("presentBytes = %d, want 120", got)
	}
	// b is the LRU present copy once keep=c is skipped.
	evicted := cs.evictOver(100, "c")
	if len(evicted) != 1 || evicted[0] != "b" {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if got := cs.presentBytes(); got != 80 {
		t.Fatalf("presentBytes after eviction = %d, want 80", got)
	}
	if v, ok := cs.view("b"); !ok || v.present {
		t.Fatalf("evicted copy state: ok=%v present=%v (want hosted but absent)", ok, v.present)
	}
	if cs.count() != 3 {
		t.Fatalf("count = %d, want 3 (eviction is physical, not logical)", cs.count())
	}
}

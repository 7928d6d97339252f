package dcws

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

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

// TestMigrationCopyRenderedOnce: the home renders a co-op copy for a
// fetch and keeps only its hash, so a validation of that copy is answered
// 304 from the cache, without rendering it again; a second lazy fetch
// renders the same bytes under the same hash.
func TestMigrationCopyRenderedOnce(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")
	fetch := func(hash string) *httpx.Response {
		req := httpx.NewRequest("GET", "/page.html")
		req.Header.Set(headerFetch, "coop:81")
		if hash != "" {
			req.Header.Set(headerValidate, hash)
		}
		resp, err := w.client.Do("home:80", req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := fetch("")
	hash := first.Header.Get(headerValidate)
	hitsBefore, _ := home.CacheCounts()
	valid := fetch(hash)
	hitsAfter, _ := home.CacheCounts()
	if first.Status != 200 || valid.Status != 304 {
		t.Fatalf("fetch, validation statuses %d, %d; want 200, 304", first.Status, valid.Status)
	}
	if hitsAfter <= hitsBefore {
		t.Fatal("validation re-rendered the copy instead of reading its hash from the cache")
	}
	second := fetch("")
	if second.Status != 200 || string(first.Body) != string(second.Body) {
		t.Fatalf("repeated migration fetches differ: %d %q vs %q", second.Status, second.Body, first.Body)
	}
	if hash == "" || hash != second.Header.Get(headerValidate) {
		t.Fatalf("content hash unstable across fetches: %q vs %q", hash, second.Header.Get(headerValidate))
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
	c.put("/a.html", 1, []byte("gen-one"))
	if _, ok := c.get("/a.html", 2); ok {
		t.Fatal("stale generation served")
	}
	if c.len() != 0 {
		t.Fatalf("stale entry not dropped: len = %d", c.len())
	}
	// A copy hash recorded at a newer generation starts the entry over.
	c.put("/a.html", 1, []byte("gen-one"))
	c.putCopyHash("/a.html", 2, 42)
	if h, ok := c.copyHash("/a.html", 2); !ok || h != 42 {
		t.Fatalf("copy hash = %d %v, want 42", h, ok)
	}
	if _, ok := c.get("/a.html", 2); ok {
		t.Fatal("home form of an older generation kept beside a newer copy hash")
	}
}

func TestRenderCacheBudget(t *testing.T) {
	// Per-shard budget of 16 bytes. Two names in one shard: the second
	// insert must evict the first.
	c := newRenderCache(16 * renderShardCount)
	other := "/b0.html"
	for i := 1; c.shard(other) != c.shard("/a.html"); i++ {
		other = "/b" + strconv.Itoa(i) + ".html"
	}
	c.put("/a.html", 1, make([]byte, 10))
	c.put(other, 1, make([]byte, 10))
	if _, ok := c.get("/a.html", 1); ok {
		t.Fatal("LRU entry survived over-budget insert")
	}
	if _, ok := c.get(other, 1); !ok {
		t.Fatal("newest entry evicted")
	}
	// A co-op copy's hash costs no budget and keeps the home form.
	c.putCopyHash(other, 1, 7)
	if _, ok := c.get(other, 1); !ok {
		t.Fatal("recording a copy hash dropped the home form")
	}
	// A document larger than a whole shard is never cached.
	c.put("/big.html", 1, make([]byte, 64))
	if _, ok := c.get("/big.html", 1); ok {
		t.Fatal("oversized document cached")
	}
}

func TestCoopSetBudgetEviction(t *testing.T) {
	cs := NewCoop(Params{CoopCacheBytes: 100}.WithDefaults(), nil)
	key := func(k string) string { return "/~migrate/home/80/" + k }
	admit := func(k string, size int64) []string {
		cs.Touch(key(k), time.Time{})
		ok, evicted := cs.Admit(key(k), size, 0, time.Time{})
		if !ok {
			t.Fatalf("admit %s refused", k)
		}
		return evicted
	}
	admit("a", 40)
	admit("b", 40)
	cs.Touch(key("a"), time.Time{}) // a becomes most recently used
	if got := cs.bytes; got != 80 {
		t.Fatalf("presentBytes = %d, want 80", got)
	}
	// c brings the total to 120: b is the LRU present copy.
	if evicted := admit("c", 40); len(evicted) != 1 || evicted[0] != key("b") {
		t.Fatalf("evicted %v, want [b]", evicted)
	}
	if got := cs.bytes; got != 80 {
		t.Fatalf("presentBytes after eviction = %d, want 80", got)
	}
	if v, ok := cs.View(key("b")); !ok || v.Present {
		t.Fatalf("evicted copy state: ok=%v present=%v (want hosted but absent)", ok, v.Present)
	}
	if cs.count() != 3 {
		t.Fatalf("count = %d, want 3 (eviction is physical, not logical)", cs.count())
	}
	// A copy over the whole budget evicts every other but is kept itself.
	if evicted := admit("d", 200); len(evicted) != 2 {
		t.Fatalf("evicted %v, want a and c", evicted)
	}
	if v, _ := cs.View(key("d")); !v.Present || cs.bytes != 200 {
		t.Fatalf("oversized copy present=%v, bytes=%d; want it kept alone", v.Present, cs.bytes)
	}
}

// pointsInto reports whether s's bytes lie inside src's.
func pointsInto(s, src string) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= lo && p < lo+uintptr(len(src))
}

// TestCachedNamesAreCopies: the render cache and the hosted-document set
// keep their own copy of a name that arrives as a substring of a request
// head, so an entry never keeps that whole head alive.
func TestCachedNamesAreCopies(t *testing.T) {
	head := strings.Clone("GET /~migrate/home/80/doc.html HTTP/1.1\r\nHost: coop:80\r\n\r\n")
	key := head[4 : strings.IndexByte(head[4:], ' ')+4]
	_, name, err := naming.Decode(key)
	if err != nil {
		t.Fatal(err)
	}

	rc := newRenderCache(1 << 20)
	rc.put(name, 1, []byte("x"))
	rc.put(name, 2, []byte("y")) // an update keeps the stored copy
	sh := rc.shard(name)
	for k, e := range sh.entries {
		if pointsInto(k, head) || pointsInto(e.name, head) {
			t.Errorf("render cache key %q points into the request head", k)
		}
	}

	for _, insert := range []func(cs *Coop){
		func(cs *Coop) { cs.Touch(key, time.Time{}) },
		func(cs *Coop) { cs.Host(key) },
	} {
		cs := NewCoop(Params{}.WithDefaults(), nil)
		insert(cs)
		cs.Touch(key, time.Time{})
		for k, cd := range cs.docs {
			for _, s := range []string{k, cd.key, cd.name, cd.home} {
				if pointsInto(s, head) {
					t.Errorf("co-op record string %q points into the request head", s)
				}
			}
		}
	}
}

// TestCoopCopyRenderingStable: the home keeps no co-op copy bytes and
// renders a copy again for each fetch, so two renderings at one generation
// must be byte-identical even when the copy links to a replicated
// document. Co-ops holding copies from separate fetches then validate them
// with 304s instead of refetching one another's rotation.
func TestCoopCopyRenderingStable(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	c1 := w.addServer("c1", 81, nil, nil, Params{})
	c2 := w.addServer("c2", 82, nil, nil, Params{})
	both := []string{"c1:81", "c2:82"}
	for _, doc := range []string{"/pic.gif", "/page.html"} { // /page.html embeds /pic.gif
		if err := home.relocate(doc, both); err != nil {
			t.Fatal(err)
		}
	}
	first, err := home.prepareForMigration("/page.html")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		again, err := home.prepareForMigration("/page.html")
		if err != nil || string(again) != string(first) {
			t.Fatalf("rendering %d differs: %q vs %q (%v)", i+2, again, first, err)
		}
	}
	if !strings.Contains(string(first), "/~migrate/home/80/pic.gif") {
		t.Fatalf("co-op copy %q does not link the replicated image", first)
	}
	for _, c := range []*Server{c1, c2} {
		if resp := w.get(c.Addr(), chainKey); resp.Status != 200 {
			t.Fatalf("%s first touch = %d", c.Addr(), resp.Status)
		}
	}
	for _, c := range []*Server{c1, c2} {
		if got := c.validateOne(chainKey); got != ValidCurrent {
			t.Fatalf("%s validation = %q, want current", c.Addr(), got)
		}
	}
}

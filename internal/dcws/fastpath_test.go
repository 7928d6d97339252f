package dcws

import (
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"dcws/internal/httpx"
	"dcws/internal/store"
)

// countingStore counts every call that reaches the store it wraps, and
// its writes apart.
type countingStore struct {
	store.Store
	calls atomic.Int64
	puts  atomic.Int64
}

func (c *countingStore) Get(name string) ([]byte, error) {
	c.calls.Add(1)
	return c.Store.Get(name)
}

func (c *countingStore) GetShared(name string) ([]byte, error) {
	c.calls.Add(1)
	return store.GetShared(c.Store, name)
}

func (c *countingStore) Put(name string, data []byte) error {
	c.calls.Add(1)
	c.puts.Add(1)
	return c.Store.Put(name, data)
}

func (c *countingStore) Delete(name string) error {
	c.calls.Add(1)
	return c.Store.Delete(name)
}

func (c *countingStore) Has(name string) bool {
	c.calls.Add(1)
	return c.Store.Has(name)
}

func (c *countingStore) List() ([]string, error) {
	c.calls.Add(1)
	return c.Store.List()
}

func (c *countingStore) Size(name string) (int64, error) {
	c.calls.Add(1)
	return c.Store.Size(name)
}

// do issues one request and fails the test on a transport error.
func (w *testWorld) do(addr, method, path string, extra map[string]string) *httpx.Response {
	w.t.Helper()
	req := httpx.NewRequest(method, path)
	for k, v := range extra {
		req.Header.Set(k, v)
	}
	resp, err := w.client.Do(addr, req)
	if err != nil {
		w.t.Fatalf("%s %s%s: %v", method, addr, path, err)
	}
	return resp
}

// TestCachedServeAndRedirectTouchNoStore: a render-cache hit and the 301
// for a migrated document are answered from the document graph and the
// cache alone (§4.4: "no disk access needed").
func TestCachedServeAndRedirectTouchNoStore(t *testing.T) {
	w := newWorld(t)
	dir, err := store.NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := &countingStore{Store: dir}
	home := w.addServerOn(st, "home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")
	// The migration dirtied /index.html; this request regenerates it and
	// fills the cache.
	if resp := w.get("home:80", "/index.html"); resp.Status != 200 {
		t.Fatalf("warm-up GET = %d", resp.Status)
	}

	st.calls.Store(0)
	if resp := w.get("home:80", "/index.html"); resp.Status != 200 {
		t.Fatalf("cached GET = %d", resp.Status)
	}
	if resp := w.do("home:80", "HEAD", "/index.html", nil); resp.Status != 200 {
		t.Fatalf("cached HEAD = %d", resp.Status)
	}
	if resp := w.get("home:80", "/page.html"); resp.Status != 301 {
		t.Fatalf("migrated GET = %d, want 301", resp.Status)
	}
	if n := st.calls.Load(); n != 0 {
		t.Fatalf("a cache hit, a cached HEAD and a 301 made %d store calls, want none", n)
	}
}

// TestVanishedFileAnswers404: a document the graph knows but whose file
// was removed behind the server's back is 404 — on GET, on HEAD and on the
// co-op fetch leg — never a bare 500, and serves again once it is written
// back through UpdateDocument.
func TestVanishedFileAnswers404(t *testing.T) {
	w := newWorld(t)
	root := t.TempDir()
	dir, err := store.NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	home := w.addServerOn(dir, "home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")
	for _, name := range []string{"pic.gif", "page.html"} {
		if err := os.Remove(filepath.Join(root, name)); err != nil {
			t.Fatal(err)
		}
	}
	fetch := map[string]string{headerFetch: "coop:81"}

	if resp := w.get("home:80", "/pic.gif"); resp.Status != 404 {
		t.Errorf("GET of a vanished file = %d, want 404", resp.Status)
	}
	if resp := w.do("home:80", "HEAD", "/pic.gif", nil); resp.Status != 404 {
		t.Errorf("HEAD of a vanished file = %d, want 404", resp.Status)
	}
	if resp := w.do("home:80", "GET", "/page.html", fetch); resp.Status != 404 {
		t.Errorf("co-op fetch of a vanished file = %d, want 404", resp.Status)
	}

	if err := home.UpdateDocument("/pic.gif", []byte("GIF89a-restored")); err != nil {
		t.Fatal(err)
	}
	if err := home.UpdateDocument("/page.html", []byte(`<html><a href="/index.html">back</a></html>`)); err != nil {
		t.Fatal(err)
	}
	if resp := w.get("home:80", "/pic.gif"); resp.Status != 200 || string(resp.Body) != "GIF89a-restored" {
		t.Errorf("GET after UpdateDocument = %d %q, want the restored bytes", resp.Status, resp.Body)
	}
	if resp := w.do("home:80", "GET", "/page.html", fetch); resp.Status != 200 {
		t.Errorf("co-op fetch after UpdateDocument = %d, want 200", resp.Status)
	}
}

package dcws

import (
	"strings"
	"testing"

	"dcws/internal/clock"
	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/naming"
	"dcws/internal/store"
)

// This file holds the serve-path micro-benchmarks as exported functions so
// both `go test -bench` (via thin wrappers in perf_bench_test.go) and the
// cmd/dcwsperf harness (which emits BENCH_serve.json) can run them. They
// exercise the request matrix at the handler level — no sockets — so the
// numbers isolate the serving engine: document lookup, regeneration and
// its cache, lock acquisition, and response assembly.

// perfDoc synthesizes an HTML document of roughly size bytes carrying the
// given hyperlinks.
func perfDoc(links []string, size int) []byte {
	var b strings.Builder
	b.WriteString("<html><head><title>bench</title></head><body>\n")
	for _, l := range links {
		b.WriteString(`<a href="` + l + `">link</a>` + "\n")
	}
	filler := "<p>the quick brown fox jumps over the lazy dog</p>\n"
	for b.Len() < size {
		b.WriteString(filler)
	}
	b.WriteString("</body></html>\n")
	return []byte(b.String())
}

// perfServer builds a started-but-not-listening server over a private
// in-memory fabric; benchmarks drive s.handle directly.
func perfServer(tb testing.TB, st store.Store, origin naming.Origin) *Server {
	tb.Helper()
	s, err := New(Config{
		Origin:  origin,
		Store:   st,
		Network: memnet.NewFabric(),
		Clock:   clock.Real{},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// BenchServeHome measures the steady-state home-document GET: a clean
// (non-dirty) ~100 KB HTML page served over and over. This is the paper's
// dominant request class; before the serving-engine work every iteration
// paid a full defensive byte-copy of the document.
func BenchServeHome(b *testing.B) {
	st := store.NewMem()
	st.Put("/index.html", perfDoc([]string{"/big.html", "/a.html"}, 2<<10))
	st.Put("/a.html", perfDoc(nil, 4<<10))
	st.Put("/big.html", perfDoc([]string{"/a.html", "/index.html"}, 100<<10))
	s := perfServer(b, st, naming.Origin{Host: "bench-home", Port: 80})
	req := httpx.NewRequest("GET", "/big.html")
	// Warm once so first-touch work (dirty check, cache fill) is excluded.
	if resp := s.handle(req); resp.Status != 200 {
		b.Fatalf("warmup status %d", resp.Status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := s.handle(req)
		if resp.Status != 200 {
			b.Fatalf("status %d", resp.Status)
		}
	}
}

// BenchServeCoop measures serving a physically present co-op copy — the
// /~migrate path. Before the lock rework this took the global server mutex
// three times per request.
func BenchServeCoop(b *testing.B) {
	home := naming.Origin{Host: "bench-peer", Port: 80}
	key, err := naming.Encode(home, "/hosted.html")
	if err != nil {
		b.Fatal(err)
	}
	st := store.NewMem()
	st.Put("/index.html", perfDoc(nil, 2<<10))
	s := perfServer(b, st, naming.Origin{Host: "bench-coop", Port: 80})
	s.coops.Host(key)
	if err := s.admitCopy(key, perfDoc(nil, 100<<10), 0, nil); err != nil {
		b.Fatal(err)
	}
	req := httpx.NewRequest("GET", key)
	if resp := s.handle(req); resp.Status != 200 {
		b.Fatalf("warmup status %d", resp.Status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := s.handle(req)
		if resp.Status != 200 {
			b.Fatalf("status %d", resp.Status)
		}
	}
}

// BenchRegenCached measures the home side of a co-op's validator
// re-requests for a migrated document whose links must be absolutized:
// the co-op copy's hash, recorded when the copy was first rendered for the
// co-op's fetch, answers each re-request with a 304. Before the
// rendered-document cache every pass re-parsed and re-rendered the HTML.
// The copy's bytes are not cached: a lazy fetch, read once per co-op,
// renders them again.
func BenchRegenCached(b *testing.B) {
	st := store.NewMem()
	st.Put("/index.html", perfDoc([]string{"/moved.html"}, 2<<10))
	st.Put("/moved.html", perfDoc([]string{"/index.html", "/a.html"}, 16<<10))
	st.Put("/a.html", perfDoc(nil, 4<<10))
	s := perfServer(b, st, naming.Origin{Host: "bench-regen", Port: 80})
	const coop = "bench-coop:80"
	if _, err := s.ldg.MarkMigrated("/moved.html", coop); err != nil {
		b.Fatal(err)
	}
	s.ledger.Record("/moved.html", coop, s.now())
	req := httpx.NewRequest("GET", "/moved.html")
	req.Header.Set(headerFetch, coop)
	resp := s.handle(req)
	if resp.Status != 200 {
		b.Fatalf("warmup status %d", resp.Status)
	}
	req.Header.Set(headerValidate, resp.Header.Get(headerValidate))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp := s.handle(req)
		if resp.Status != 304 {
			b.Fatalf("status %d", resp.Status)
		}
	}
}

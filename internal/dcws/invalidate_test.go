package dcws

import (
	"bufio"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/store"
	"dcws/internal/telemetry"
)

// leaseParams is the test configuration for push invalidation: leases on,
// heartbeats off (the worlds run on a manual clock; a heartbeat would
// never fire and its 3-beat silence check would never trip).
func leaseParams() Params {
	return Params{
		LeaseDuration:       time.Minute,
		InvalidateHeartbeat: -1,
	}
}

// waitFor polls cond in real time: subscription channels and invalidation
// frames ride real goroutines over the fabric, independent of the manual
// clock.
func waitFor(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestPushInvalidationRefreshesHostedCopy is the tentpole's happy path: a
// hosted copy under lease is refreshed by a pushed frame, and the
// validator never polls for it.
func TestPushInvalidationRefreshesHostedCopy(t *testing.T) {
	w := newWorld(t)
	docs := map[string]string{"/page.html": "<html>v1 content</html>"}
	home := w.addServer("home", 80, docs, []string{"/page.html"}, leaseParams())
	coop := w.addServer("coop", 81, nil, nil, leaseParams())

	home.migrate("/page.html", "coop:81")
	if resp := w.get("coop:81", "/~migrate/home/80/page.html"); resp.Status != 200 {
		t.Fatalf("first touch = %d, want 200", resp.Status)
	}
	waitFor(t, 5*time.Second, "subscription channel never came up", func() bool {
		return coop.subs.subscriptionLive("home:80")
	})

	if err := home.UpdateDocument("/page.html", []byte("<html>v2 content</html>")); err != nil {
		t.Fatal(err)
	}
	// No validator tick runs: only the pushed invalidation can refresh the
	// copy.
	waitFor(t, 5*time.Second, "pushed invalidation never refreshed the copy", func() bool {
		resp := w.get("coop:81", "/~migrate/home/80/page.html")
		return resp.Status == 200 && strings.Contains(string(resp.Body), "v2 content")
	})

	if home.metric("dcws_invalidate_pushes_total") == 0 {
		t.Fatal("home pushed no invalidation frames")
	}
	if coop.metric("dcws_invalidate_received_total") == 0 {
		t.Fatal("coop received no invalidation frames")
	}
	if polls := coop.metric("dcws_validate_polls_total"); polls != 0 {
		t.Fatalf("coop issued %v validation polls before any tick", polls)
	}

	// A validator tick under lease cover is a skip, not a poll.
	coop.TickValidator()
	if coop.metric("dcws_invalidate_lease_skips_total") == 0 {
		t.Fatal("validator tick did not skip the leased copy")
	}
	if polls := coop.metric("dcws_validate_polls_total"); polls != 0 {
		t.Fatalf("validator issued %v polls despite lease cover", polls)
	}
}

// TestOperatorMigrateEndpoint drives the operator-facing migrate endpoint
// the CI smoke and dcwsctl use: it hands one home document to a co-op and
// rejects bad requests.
func TestOperatorMigrateEndpoint(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})

	migrate := func(doc, coop string) *httpx.Response {
		req := httpx.NewRequest("POST", "/~dcws/migrate")
		req.Header.Set("X-DCWS-Doc", doc)
		req.Header.Set("X-DCWS-Fetch", coop)
		resp, err := w.client.Do("home:80", req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	if resp := migrate("/page.html", "coop:81"); resp.Status != 200 {
		t.Fatalf("migrate = %d (%s), want 200", resp.Status, resp.Body)
	}
	if loc, _, _, _ := home.ldg.ServeInfo("/page.html"); loc != "coop:81" {
		t.Fatalf("location after migrate = %q, want coop:81", loc)
	}
	// The home now redirects, and the co-op serves the lazy-fetched copy.
	if resp := w.follow("home:80", "/page.html"); resp.Status != 200 {
		t.Fatalf("follow after migrate = %d, want 200", resp.Status)
	}

	if resp := migrate("/page.html", "coop:81"); resp.Status != 409 {
		t.Fatalf("second migrate = %d, want 409", resp.Status)
	}
	if resp := migrate("/missing.html", "coop:81"); resp.Status != 404 {
		t.Fatalf("migrate of unknown doc = %d, want 404", resp.Status)
	}
	if resp := migrate("/index.html", "home:80"); resp.Status != 400 {
		t.Fatalf("migrate to self = %d, want 400", resp.Status)
	}
	req := httpx.NewRequest("GET", "/~dcws/migrate")
	resp, err := w.client.Do("home:80", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 405 {
		t.Fatalf("GET migrate = %d, want 405", resp.Status)
	}
}

// TestLeasePartitionDegradedMode walks the tentpole's failure story: a
// partitioned co-op keeps serving under its unexpired lease while the
// validator falls back to (failing) polls, fails closed once the lease
// runs out, and on heal reconnects, re-subscribes, and is caught up on the
// update it missed — via the push channel, not a validator tick.
func TestLeasePartitionDegradedMode(t *testing.T) {
	w := newWorld(t)
	docs := map[string]string{"/page.html": "<html>v1 content</html>"}
	// The test ticks the validator itself. Its loop must not: the clock
	// jumps of the reconnect wait would let it refresh the copy by polling
	// before the re-subscribe inventory goes out, leaving the home no
	// catch-up to send.
	params := leaseParams()
	params.ValidateInterval = time.Hour
	home := w.addServer("home", 80, docs, []string{"/page.html"}, params)
	coop := w.addServer("coop", 81, nil, nil, params)

	home.migrate("/page.html", "coop:81")
	if resp := w.get("coop:81", "/~migrate/home/80/page.html"); resp.Status != 200 {
		t.Fatalf("first touch = %d, want 200", resp.Status)
	}
	waitFor(t, 5*time.Second, "subscription channel never came up", func() bool {
		return coop.subs.subscriptionLive("home:80")
	})

	// Full split: refuse new dials AND kill the established subscription
	// channel plus any pooled connections.
	w.fabric.Partition("home:80", "coop:81")
	w.fabric.ResetLink("home:80", "coop:81")
	waitFor(t, 5*time.Second, "coop never noticed the channel drop", func() bool {
		return !coop.subs.subscriptionLive("home:80")
	})

	// Inside the lease window the copy is still served — exactly the
	// staleness the paper's polling design always accepted — and the
	// validator, its lease cover gone, degrades to a (failing) poll.
	if resp := w.get("coop:81", "/~migrate/home/80/page.html"); resp.Status != 200 ||
		!strings.Contains(string(resp.Body), "v1 content") {
		t.Fatalf("partitioned coop inside lease: %d %s", resp.Status, resp.Body)
	}
	coop.TickValidator()
	if coop.metric("dcws_validate_polls_total") == 0 {
		t.Fatal("validator did not fall back to polling with the channel down")
	}

	// The home updates the document while the co-op is unreachable.
	if err := home.UpdateDocument("/page.html", []byte("<html>v2 content</html>")); err != nil {
		t.Fatal(err)
	}

	// Past the lease with the home unreachable the co-op fails closed: it
	// can no longer vouch for the copy, so it serves nothing stale.
	w.clock.Advance(2 * time.Minute)
	if resp := w.get("coop:81", "/~migrate/home/80/page.html"); resp.Status != 503 {
		t.Fatalf("expired lease with home unreachable = %d, want 503", resp.Status)
	}
	if coop.metric("dcws_invalidate_lease_expired_total") == 0 {
		t.Fatal("lease-expired fail-closed not counted")
	}

	// Heal. The reconnect loop's backoff runs on the manual clock, so tick
	// it forward until the channel is re-established.
	w.fabric.Heal("home:80", "coop:81")
	waitFor(t, 10*time.Second, "subscription never reconnected after heal", func() bool {
		if coop.subs.subscriptionLive("home:80") {
			return true
		}
		w.clock.Advance(90 * time.Second)
		return false
	})
	if coop.metric("dcws_invalidate_reconnects_total") == 0 {
		t.Fatal("reconnect not counted")
	}

	// The re-subscribe inventory carries the stale copy's hash; the home
	// answers with a catch-up invalidation and the co-op converges on the
	// bytes it missed.
	waitFor(t, 10*time.Second, "coop never caught up on the missed update", func() bool {
		resp := w.get("coop:81", "/~migrate/home/80/page.html")
		return resp.Status == 200 && strings.Contains(string(resp.Body), "v2 content")
	})
	if coop.metric("dcws_invalidate_received_total") == 0 {
		t.Fatal("catch-up did not arrive over the push channel")
	}
}

// TestBatchInvalidationCoalescesMigrationStorm drives the link-rewrite
// storm one migration causes: three hosted documents all link to the moved
// target, so their rewrites must arrive at the hosting co-op as ONE
// multi-document frame, not three singles.
func TestBatchInvalidationCoalescesMigrationStorm(t *testing.T) {
	w := newWorld(t)
	docs := map[string]string{
		"/index.html": `<html><a href="/a.html">a</a><a href="/b.html">b</a><a href="/c.html">c</a></html>`,
		"/a.html":     `<html><a href="/t.html">t</a> page a</html>`,
		"/b.html":     `<html><a href="/t.html">t</a> page b</html>`,
		"/c.html":     `<html><a href="/t.html">t</a> page c</html>`,
		"/t.html":     `<html>target content</html>`,
	}
	home := w.addServer("home", 80, docs, []string{"/index.html"}, leaseParams())
	coop := w.addServer("coop", 81, nil, nil, leaseParams())
	w.addServer("coop2", 82, nil, nil, leaseParams())

	for _, name := range []string{"/a.html", "/b.html", "/c.html"} {
		home.migrate(name, "coop:81")
		if resp := w.get("coop:81", "/~migrate/home/80"+name); resp.Status != 200 {
			t.Fatalf("first touch of %s = %d, want 200", name, resp.Status)
		}
	}
	waitFor(t, 5*time.Second, "subscription channel never came up", func() bool {
		return coop.subs.subscriptionLive("home:80")
	})
	// The per-document subscriptions register asynchronously; the storm
	// only coalesces fully once the home knows the coop hosts all three.
	waitFor(t, 5*time.Second, "home never learned all three hosted docs", func() bool {
		home.hub.mu.Lock()
		defer home.hub.mu.Unlock()
		sub := home.hub.subs["coop:81"]
		return sub != nil && len(sub.docs) >= 3
	})

	// Moving /t.html dirties a, b, and c at once — the storm.
	home.migrate("/t.html", "coop2:82")

	waitFor(t, 5*time.Second, "batch invalidation never rewrote the hosted copies", func() bool {
		for _, name := range []string{"/a.html", "/b.html", "/c.html"} {
			resp := w.get("coop:81", "/~migrate/home/80"+name)
			if resp.Status != 200 || !strings.Contains(string(resp.Body), "coop2") {
				return false
			}
		}
		return true
	})

	if home.metric("dcws_invalidate_batches_total") == 0 {
		t.Fatal("migration storm produced no batch frame")
	}
	if docs := home.metric("dcws_invalidate_batch_docs_total"); docs < 3 {
		t.Fatalf("batch frames carried %v documents, want >= 3", docs)
	}
	if got := coop.metric("dcws_invalidate_gaps_total"); got != 0 {
		t.Fatalf("coop detected %v sequence gaps on a lossless channel", got)
	}
}

// TestPushFanOut pins the one invalidation fan-out on a WAL-backed home
// with three subscribers, two connected and one not: a storm reaches each
// connected host as one frame with its share, a one-document update is one
// frame, a shrink tells only the dropped hosts, and a delete ends every
// subscription to the document, connected or not, with one recSubDel per
// removal.
func TestPushFanOut(t *testing.T) {
	w := newWorld(t)
	home := w.bootServer("home", 80, store.NewMem(), nil, leaseParams(), t.TempDir())
	hosted := []string{"/x.html", "/y.html", "/z.html"}
	subs := map[string]*invalSubscriber{}
	got := map[string]chan []string{} // names of each frame, per connected host
	for _, addr := range []string{"a:81", "b:82", "c:83"} {
		sub := &invalSubscriber{addr: addr, docs: map[string]bool{}}
		for _, d := range hosted {
			sub.docs[d] = true
		}
		if addr != "c:83" {
			near, far := net.Pipe()
			t.Cleanup(func() { near.Close(); far.Close() })
			sub.conn = near
			got[addr] = make(chan []string, 8) // room for every frame the test sends
			go func(ch chan []string) {
				br := bufio.NewReader(far)
				for {
					typ, payload, err := httpx.ReadFrame(br)
					if err != nil {
						return
					}
					if _, docs, _, err := decodeInvalidate(payload); typ == frameInvalidate && err == nil {
						names := make([]string, len(docs))
						for i, d := range docs {
							names[i] = d.name
						}
						ch <- names
					}
				}
			}(got[addr])
		}
		subs[addr] = sub
		home.hub.mu.Lock()
		home.hub.subs[addr] = sub
		home.hub.mu.Unlock()
	}
	// frames returns how many frames each host has been sent so far; the
	// sequence number counts them.
	frames := func() map[string]uint64 {
		out := map[string]uint64{}
		for addr, sub := range subs {
			sub.writeMu.Lock()
			out[addr] = sub.seq
			sub.writeMu.Unlock()
		}
		return out
	}
	expect := func(step string, want map[string][]string) {
		t.Helper()
		for addr, names := range want {
			select {
			case g := <-got[addr]:
				if !slices.Equal(g, names) {
					t.Fatalf("%s: %s got %q, want %q", step, addr, g, names)
				}
			case <-time.After(5 * time.Second):
				t.Fatalf("%s: %s got no frame", step, addr)
			}
		}
	}
	walBefore := home.wal.Appends()

	// A storm: each connected host gets its share in one frame.
	home.hub.push(invalUpdate, []string{"/x.html", "/y.html", "/w.html"}, nil)
	expect("storm", map[string][]string{"a:81": {"/x.html", "/y.html"}, "b:82": {"/x.html", "/y.html"}})
	// A one-document update: one frame each.
	home.hub.push(invalUpdate, []string{"/x.html"}, nil)
	expect("update", map[string][]string{"a:81": {"/x.html"}, "b:82": {"/x.html"}})
	if f := frames(); f["a:81"] != 2 || f["b:82"] != 2 || f["c:83"] != 0 {
		t.Fatalf("frames after two updates = %v, want a:2 b:2 c:0", f)
	}
	if n := home.metric("dcws_invalidate_batches_total"); n != 2 {
		t.Fatalf("batches = %v, want 2 (the storm's frames only)", n)
	}
	if n := home.wal.Appends() - walBefore; n != 0 {
		t.Fatalf("updates wrote %d WAL records, want 0", n)
	}

	// A shrink dropping b and c: only b is told, and both lose /y.html.
	home.hub.push(invalRevoke, []string{"/y.html"}, []string{"b:82", "c:83"})
	expect("shrink", map[string][]string{"b:82": {"/y.html"}})
	if f := frames(); f["a:81"] != 2 || f["b:82"] != 3 {
		t.Fatalf("frames after shrink = %v, want a:2 b:3", f)
	}
	if !subs["a:81"].docs["/y.html"] || subs["b:82"].docs["/y.html"] || subs["c:83"].docs["/y.html"] {
		t.Fatal("shrink removed the wrong subscriptions")
	}
	if n := home.wal.Appends() - walBefore; n != 2 {
		t.Fatalf("shrink wrote %d WAL records, want 2", n)
	}

	// A delete ends every subscription to the document.
	home.hub.push(invalDelete, []string{"/z.html"}, nil)
	expect("delete", map[string][]string{"a:81": {"/z.html"}, "b:82": {"/z.html"}})
	for addr, sub := range subs {
		if sub.docs["/z.html"] {
			t.Fatalf("%s still subscribed to a deleted document", addr)
		}
	}
	if n := home.wal.Appends() - walBefore; n != 5 {
		t.Fatalf("shrink and delete wrote %d WAL records, want 5", n)
	}
}

// TestInvalidationSeqGapForcesResync pins the live-channel loss detector:
// when a numbered frame goes missing, the next frame's sequence number
// exposes the gap and the co-op resyncs by re-sending its inventory, which
// the home answers with catch-up invalidations.
func TestInvalidationSeqGapForcesResync(t *testing.T) {
	w := newWorld(t)
	docs := map[string]string{"/page.html": "<html>v1 content</html>"}
	home := w.addServer("home", 80, docs, []string{"/page.html"}, leaseParams())
	coop := w.addServer("coop", 81, nil, nil, leaseParams())

	home.migrate("/page.html", "coop:81")
	if resp := w.get("coop:81", "/~migrate/home/80/page.html"); resp.Status != 200 {
		t.Fatalf("first touch = %d, want 200", resp.Status)
	}
	waitFor(t, 5*time.Second, "subscription channel never came up", func() bool {
		return coop.subs.subscriptionLive("home:80")
	})

	// Establish the sequence baseline with one delivered frame.
	if err := home.UpdateDocument("/page.html", []byte("<html>v2 content</html>")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "baseline invalidation never arrived", func() bool {
		resp := w.get("coop:81", "/~migrate/home/80/page.html")
		return resp.Status == 200 && strings.Contains(string(resp.Body), "v2 content")
	})

	// Simulate a frame lost in flight: consume a sequence number on the
	// home side without writing anything to the wire.
	home.hub.mu.Lock()
	sub := home.hub.subs["coop:81"]
	home.hub.mu.Unlock()
	if sub == nil {
		t.Fatal("no subscriber record for coop:81")
	}
	sub.writeMu.Lock()
	sub.seq++
	sub.writeMu.Unlock()

	if err := home.UpdateDocument("/page.html", []byte("<html>v3 content</html>")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "sequence gap never detected", func() bool {
		return coop.metric("dcws_invalidate_gaps_total") > 0
	})
	// The gap-triggered inventory resync must converge the copy even if
	// the "lost" frame were the only carrier of the update.
	waitFor(t, 5*time.Second, "coop never converged after the gap resync", func() bool {
		resp := w.get("coop:81", "/~migrate/home/80/page.html")
		return resp.Status == 200 && strings.Contains(string(resp.Body), "v3 content")
	})
}

// TestSizeWeight pins the rendered-size weighting of the hot-replication
// trigger: at or below the 64 KiB pivot the weight is neutral (small
// documents are never delayed), above it the weight grows linearly and
// caps at 2.
func TestSizeWeight(t *testing.T) {
	cases := []struct {
		size int64
		want float64
	}{
		{0, 1},       // unknown size: neutral
		{-5, 1},      // defensive: neutral
		{8 << 10, 1}, // small docs keep their raw rate
		{64 << 10, 1},
		{96 << 10, 1.5},
		{128 << 10, 2},
		{1 << 20, 2}, // huge docs cap at a 2x boost
	}
	for _, c := range cases {
		if got := sizeWeight(c.size); got != c.want {
			t.Errorf("sizeWeight(%d) = %v, want %v", c.size, got, c.want)
		}
	}
}

// TestMigratedAliasNotServedStale: ".../home/080/..." and ".../home/+80/..."
// used to decode to the same document as ".../home/80/...", so a co-op
// hosted a second copy under each alias key. Push invalidation refreshes
// only the key Encode builds, while channel liveness renewed every lease
// from that home, so an alias went on serving the old version for as long
// as the channel lived. After the push, no alias may return the old bytes.
func TestMigratedAliasNotServedStale(t *testing.T) {
	w := newWorld(t)
	docs := map[string]string{"/page.html": "<html>v1 content</html>"}
	home := w.addServer("home", 80, docs, []string{"/page.html"}, leaseParams())
	coop := w.addServer("coop", 81, nil, nil, leaseParams())

	home.migrate("/page.html", "coop:81")
	const canonical = "/~migrate/home/80/page.html"
	aliases := []string{"/~migrate/home/080/page.html", "/~migrate/home/+80/page.html"}
	if resp := w.get("coop:81", canonical); resp.Status != 200 {
		t.Fatalf("first touch = %d, want 200", resp.Status)
	}
	for _, alias := range aliases {
		w.get("coop:81", alias)
	}
	waitFor(t, 5*time.Second, "subscription channel never came up", func() bool {
		return coop.subs.subscriptionLive("home:80")
	})

	if err := home.UpdateDocument("/page.html", []byte("<html>v2 content</html>")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "pushed invalidation never refreshed the copy", func() bool {
		resp := w.get("coop:81", canonical)
		return resp.Status == 200 && strings.Contains(string(resp.Body), "v2 content")
	})
	for _, alias := range aliases {
		if resp := w.get("coop:81", alias); strings.Contains(string(resp.Body), "v1 content") {
			t.Errorf("GET %s after the push = %d with the old version", alias, resp.Status)
		}
	}
}

// pushWorld boots a leased home holding siteAB with /page.html hosted on
// one co-op whose subscription to it is live and registered, and returns
// the co-op key of the copy.
func pushWorld(t *testing.T) (w *testWorld, home, coop *Server) {
	t.Helper()
	w = newWorld(t)
	home = w.addServer("home", 80, siteAB(), []string{"/index.html"}, leaseParams())
	coop = w.addServer("coop", 81, nil, nil, leaseParams())
	home.migrate("/page.html", "coop:81")
	if resp := w.get("coop:81", chainKey); resp.Status != 200 {
		t.Fatalf("first touch = %d, want 200", resp.Status)
	}
	waitFor(t, 5*time.Second, "subscription channel never came up", func() bool {
		return coop.subs.subscriptionLive("home:80")
	})
	waitRegistered(t, home, coop)
	return w, home, coop
}

// subscribeSpans counts the subscribe frames the home has registered.
func subscribeSpans(home *Server) int {
	n := 0
	for _, sp := range home.Traces().Snapshot() {
		if sp.Op == "subscribe" {
			n++
		}
	}
	return n
}

// waitAcks waits until the home has received n invalidation acks in all.
func waitAcks(t *testing.T, home *Server, n float64) {
	t.Helper()
	waitFor(t, 5*time.Second, "ack never arrived", func() bool {
		return home.metric("dcws_invalidate_acks_total") >= n
	})
}

// TestShippedCopyCostsTwoMessages: with a live channel an update reaches a
// hosting co-op as one frame carrying the copy, and costs one ack back.
// The home serves no fetch, validation or any other request for it, and
// the co-op stores the copy under the home's hash without a request.
func TestShippedCopyCostsTwoMessages(t *testing.T) {
	w, home, coop := pushWorld(t)
	requests := home.metric("dcws_httpx_request_seconds")
	pushes, acks := home.metric("dcws_invalidate_pushes_total"), home.metric("dcws_invalidate_acks_total")
	subscribes := subscribeSpans(home)

	v2 := `<html><a href="/index.html">back</a> v2</html>`
	if err := home.UpdateDocument("/page.html", []byte(v2)); err != nil {
		t.Fatal(err)
	}
	waitAcks(t, home, acks+1)
	if got := home.metric("dcws_httpx_request_seconds") - requests; got != 0 {
		t.Fatalf("home served %v requests for the update, want 0", got)
	}
	if got := home.metric("dcws_invalidate_pushes_total") - pushes; got != 1 {
		t.Fatalf("home pushed %v frames, want 1", got)
	}
	if got := home.metric("dcws_invalidate_copies_total"); got != 1 {
		t.Fatalf("frames shipping a copy = %v, want 1", got)
	}
	if got := subscribeSpans(home); got != subscribes {
		t.Fatalf("home registered %d subscribe frames for the update, want 0", got-subscribes)
	}
	v, _ := coop.coops.View(chainKey)
	if want, _ := home.migrationHash("/page.html"); !v.Present || v.Hash != want {
		t.Fatalf("copy present=%v hash %x, want the home's %x", v.Present, v.Hash, want)
	}
	if got := coop.metric("dcws_validations_total", telemetry.Label{Key: "result", Value: ValidRefreshed}); got != 1 {
		t.Fatalf("refreshed validations = %v, want 1 (the shipped copy)", got)
	}
	resp := w.get("coop:81", chainKey)
	if resp.Status != 200 || !strings.Contains(string(resp.Body), "v2") ||
		!strings.Contains(string(resp.Body), "http://home:80/index.html") {
		t.Fatalf("co-op serves %d %q, want the v2 co-op copy (absolute links)", resp.Status, resp.Body)
	}
}

// TestRefreshDoesNotResubscribe: a copy refreshed by a validation's 200
// or by a shipped copy is subscribed already, so the co-op sends the home
// no subscribe frame for it.
func TestRefreshDoesNotResubscribe(t *testing.T) {
	_, home, coop := pushWorld(t)
	subscribes := subscribeSpans(home)
	acks := home.metric("dcws_invalidate_acks_total")

	quietUpdate(t, home)
	if got := coop.validateOne(chainKey); got != ValidRefreshed {
		t.Fatalf("validation = %q, want refreshed", got)
	}
	if err := home.UpdateDocument("/page.html", []byte("<html>v3</html>")); err != nil {
		t.Fatal(err)
	}
	// The ack follows any subscribe frame either refresh sent on the
	// channel, and the home reads them in order.
	waitAcks(t, home, acks+1)
	if got := subscribeSpans(home); got != subscribes {
		t.Fatalf("home registered %d subscribe frames for two refreshes, want 0", got-subscribes)
	}
}

// TestShippedCopyAckCarriesHotReport: the ack of a shipped copy carries
// the co-op's hot report for the home, which reaches the control plane as
// the refetch's X-DCWS-Hot did.
func TestShippedCopyAckCarriesHotReport(t *testing.T) {
	w, home, _ := pushWorld(t)
	for i := 0; i < 3; i++ {
		w.get("coop:81", chainKey)
	}
	hint := func() int64 {
		home.ctl.hotMu.Lock()
		defer home.ctl.hotMu.Unlock()
		return home.ctl.hotHints["/page.html"]
	}
	// The first touch's fetch reported one hit.
	if got := hint(); got != 1 {
		t.Fatalf("hot hint before the update = %d, want 1", got)
	}
	acks := home.metric("dcws_invalidate_acks_total")
	if err := home.UpdateDocument("/page.html", []byte("<html>v2</html>")); err != nil {
		t.Fatal(err)
	}
	waitAcks(t, home, acks+1)
	if got := hint(); got != 4 {
		t.Fatalf("hot hint after the shipped copy's ack = %d, want 4", got)
	}
}

// TestRacingUpdatesConvergeOnLatest races two updates of one hosted
// document, round after round: each frame carries its copy only while the
// document is still at that copy's generation, so once the co-op has
// applied both frames it serves the home's latest content.
func TestRacingUpdatesConvergeOnLatest(t *testing.T) {
	w, home, _ := pushWorld(t)
	acks := home.metric("dcws_invalidate_acks_total")
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for _, v := range []string{"a", "b"} {
			body := []byte("<html>round " + strconv.Itoa(round) + " " + v + "</html>")
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := home.UpdateDocument("/page.html", body); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		latest, err := home.homeBody("/page.html")
		if err != nil {
			t.Fatal(err)
		}
		acks += 2
		waitAcks(t, home, acks)
		if resp := w.get("coop:81", chainKey); resp.Status != 200 || string(resp.Body) != string(latest) {
			t.Fatalf("round %d: co-op serves %d %q, want the latest %q", round, resp.Status, resp.Body, latest)
		}
	}
	if home.metric("dcws_invalidate_copies_total") == 0 {
		t.Fatal("no frame shipped a copy")
	}
}

// TestShippedCopyNamedAloneWhenOvertaken: a frame carries the copy only if
// the document is still at the copy's generation when the frame is written
// and the copy fits in a frame; otherwise it names the document alone.
func TestShippedCopyNamedAloneWhenOvertaken(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), nil, leaseParams())
	near, far := net.Pipe()
	t.Cleanup(func() { near.Close(); far.Close() })
	sub := &invalSubscriber{addr: "a:81", docs: map[string]bool{"/page.html": true}, conn: near}
	home.hub.mu.Lock()
	home.hub.subs[sub.addr] = sub
	home.hub.mu.Unlock()
	frames := make(chan invDoc, 4)
	go func() {
		br := bufio.NewReader(far)
		for {
			_, payload, err := httpx.ReadFrame(br)
			if err != nil {
				return
			}
			if _, docs, _, err := decodeInvalidate(payload); err == nil && len(docs) == 1 {
				frames <- docs[0]
			}
		}
	}()
	next := func() invDoc {
		select {
		case d := <-frames:
			return d
		case <-time.After(5 * time.Second):
			t.Fatal("no frame")
			return invDoc{}
		}
	}
	gen := home.ldg.Generation("/page.html")
	body := []byte("<html>copy</html>")
	home.hub.pushUpdate("/page.html", &shippedCopy{gen: gen, body: body, hash: 7})
	if d := next(); d.hash != 7 || string(d.body) != string(body) {
		t.Fatalf("current generation: frame %+v, want the copy", d)
	}
	// The document moves on before the frame is written.
	home.ldg.AddDoc("/page.html", 10, nil)
	home.hub.pushUpdate("/page.html", &shippedCopy{gen: gen, body: body, hash: 7})
	if d := next(); d.body != nil || d.name != "/page.html" {
		t.Fatalf("overtaken copy: frame %+v, want the name alone", d)
	}
	// A copy that cannot fit in a frame.
	gen = home.ldg.Generation("/page.html")
	home.hub.pushUpdate("/page.html", &shippedCopy{gen: gen, body: make([]byte, httpx.MaxFramePayload), hash: 7})
	if d := next(); d.body != nil {
		t.Fatalf("oversized copy shipped %d bytes, want the name alone", len(d.body))
	}
	if got := home.metric("dcws_invalidate_copies_total"); got != 1 {
		t.Fatalf("frames shipping a copy = %v, want 1", got)
	}
}

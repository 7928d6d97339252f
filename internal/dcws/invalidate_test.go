package dcws

import (
	"strings"
	"testing"
	"time"

	"dcws/internal/httpx"
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
	home := w.addServer("home", 80, docs, []string{"/page.html"}, leaseParams())
	coop := w.addServer("coop", 81, nil, nil, leaseParams())

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

package dcws

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/store"
	"dcws/internal/telemetry"
)

// TestHedgedFetchStitchedTree is the issue's acceptance scenario: on a
// four-server cluster, one hedged fetch leaves spans on the co-op, the
// home, and the raced sibling that stitch into a single tree — the co-op's
// serve span at the root, both hedge arms as its children, and the remote
// serve spans as grandchildren. The home is slowed past the hedge delay
// (but within the fetch timeout) and the sibling's copy is dropped, so
// both arms run to completion: the probe answers 404 while the primary
// still delivers the bytes.
func TestHedgedFetchStitchedTree(t *testing.T) {
	w, home, coop1, coop2 := hedgeWorld(t, Params{
		HedgeDelay:   10 * time.Millisecond,
		FetchTimeout: 2 * time.Second,
	})
	fourth := w.addServer("fourth", 83, nil, nil, Params{})
	w.fabric.SetStall("coop2:82", "home:80", 100*time.Millisecond)
	coop2.client.Pool.FlushAddr("home:80")
	coop1.coops.markAbsent(hedgeKey)
	if err := coop1.cfg.Store.Delete(hedgeKey); err != nil {
		t.Fatal(err)
	}

	extra := make(httpx.Header)
	extra.Set(telemetry.TraceHeader, "hedge-trace-1")
	resp, err := w.client.Get("coop2:82", hedgeKey, extra)
	if err != nil || resp.Status != 200 {
		t.Fatalf("hedged refetch = %v, %v", resp, err)
	}
	if launched, miss := coop2.metric("dcws_hedge_launched_total"), coop2.metric("dcws_hedge_miss_total"); launched != 1 || miss != 1 {
		t.Fatalf("hedge counters launched=%v miss=%v, want 1 and 1", launched, miss)
	}

	// Stitch exactly as `dcwsctl trace -cluster` does: collect every
	// server's spans for the trace and link them by parent ID.
	var spans []telemetry.Span
	for _, srv := range []*Server{home, coop1, coop2, fourth} {
		spans = append(spans, srv.spansForTrace("hedge-trace-1")...)
	}
	byID := make(map[string]telemetry.Span, len(spans))
	for _, sp := range spans {
		if sp.ID == "" {
			t.Fatalf("span without ID: %+v", sp)
		}
		if sp.Duration <= 0 {
			t.Fatalf("span %s/%s has zero duration", sp.Server, sp.Op)
		}
		byID[sp.ID] = sp
	}
	if len(byID) != len(spans) {
		t.Fatalf("duplicate span IDs across servers: %d spans, %d unique", len(spans), len(byID))
	}
	var roots []telemetry.Span
	children := make(map[string][]telemetry.Span)
	for _, sp := range spans {
		if _, ok := byID[sp.ParentID]; ok {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	if len(roots) != 1 {
		t.Fatalf("stitched tree has %d roots, want 1: %+v", len(roots), roots)
	}
	root := roots[0]
	if root.Op != "serve-coop" || root.Server != "coop2:82" || root.Target != hedgeKey {
		t.Fatalf("root span = %+v, want serve-coop on coop2:82", root)
	}

	arms := make(map[string]telemetry.Span)
	for _, sp := range children[root.ID] {
		arms[sp.Op] = sp
	}
	fh, ok := arms["fetch-home"]
	if !ok || fh.Peer != "home:80" || fh.Status != 200 {
		t.Fatalf("fetch-home arm = %+v (children: %+v)", fh, children[root.ID])
	}
	hg, ok := arms["fetch-hedge"]
	if !ok || hg.Peer != "coop1:81" || hg.Status != 404 {
		t.Fatalf("fetch-hedge arm = %+v (children: %+v)", hg, children[root.ID])
	}

	// Each arm's remote serve span hangs off the RPC span that caused it.
	if cs := children[fh.ID]; len(cs) != 1 || cs[0].Op != "serve-fetch" || cs[0].Server != "home:80" {
		t.Fatalf("fetch-home children = %+v, want one serve-fetch on home:80", cs)
	}
	if cs := children[hg.ID]; len(cs) != 1 || cs[0].Op != "serve-coop" || cs[0].Server != "coop1:81" || cs[0].Status != 404 {
		t.Fatalf("fetch-hedge children = %+v, want one 404 serve-coop on coop1:81", cs)
	}

	// The uninvolved fourth server contributed nothing to the trace.
	if got := fourth.spansForTrace("hedge-trace-1"); len(got) != 0 {
		t.Fatalf("fourth server has spans: %+v", got)
	}
}

// TestExemplarsResolveInRing is the satellite property test: every
// latency exemplar carried by the metrics exposition must name a trace
// that is still resolvable in that server's span rings — an exemplar an
// operator cannot follow to its trace is worse than none.
func TestExemplarsResolveInRing(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	coop := w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")
	for i := 0; i < 8; i++ {
		w.get("home:80", "/index.html")
		w.get("coop:81", "/~migrate/home/80/page.html")
	}

	for _, srv := range []*Server{home, coop} {
		resp := w.get(srv.Addr(), "/~dcws/metrics")
		if resp.Status != 200 {
			t.Fatalf("metrics on %s = %d", srv.Addr(), resp.Status)
		}
		ids := exemplarTraceIDs(t, string(resp.Body))
		if len(ids) == 0 {
			t.Fatalf("%s exposition carries no exemplars:\n%s", srv.Addr(), resp.Body)
		}
		for _, id := range ids {
			if spans := srv.spansForTrace(id); len(spans) == 0 {
				t.Errorf("%s exemplar trace %q resolves to no spans", srv.Addr(), id)
			}
		}
	}
}

// exemplarTraceIDs extracts the trace_id of every OpenMetrics-style
// exemplar ("... # {trace_id=\"...\"} <value>") in an exposition.
func exemplarTraceIDs(t *testing.T, body string) []string {
	t.Helper()
	var ids []string
	for _, line := range strings.Split(body, "\n") {
		idx := strings.Index(line, " # {")
		if idx < 0 {
			continue
		}
		ex := line[idx+len(" # {"):]
		end := strings.IndexByte(ex, '}')
		if end < 0 || strings.TrimSpace(ex[end+1:]) == "" {
			t.Fatalf("malformed exemplar line %q", line)
		}
		kv := ex[:end]
		const pre = `trace_id="`
		if !strings.HasPrefix(kv, pre) || !strings.HasSuffix(kv, `"`) {
			t.Fatalf("malformed exemplar labels %q in %q", kv, line)
		}
		ids = append(ids, strings.TrimSuffix(strings.TrimPrefix(kv, pre), `"`))
	}
	return ids
}

// TestSLOBurnAlertCapturesProfiles drives the burn-rate watcher through a
// synthetic incident on the manual clock: a clean baseline, then a burst
// of latency violations, then two ticks a short window apart. The watcher
// must alert in both windows, capture pprof pairs into the profile ring,
// prune the ring at its bound, and serve the captures at /~dcws/profiles.
func TestSLOBurnAlertCapturesProfiles(t *testing.T) {
	dir := t.TempDir()
	w := newWorld(t)
	srv := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{
		SLOWindowShort:    time.Minute,
		SLOWindowLong:     10 * time.Minute,
		SLOProfileSeconds: 10 * time.Millisecond,
		ProfileRingSize:   1,
		// Only the explicit TickSLO calls below evaluate: the watcher's own
		// loop would also fire on each Advance(time.Minute) and race them
		// for the alert count.
		SLOCheckInterval: -1,
	})
	srv.cfg.ProfileDir = dir

	srv.TickSLO() // clean baseline sample
	if alerting, checks := srv.metric("dcws_slo_alerting"), srv.metric("dcws_slo_checks_total"); alerting != 0 || checks != 1 {
		t.Fatalf("baseline SLO: alerting=%v checks=%v", alerting, checks)
	}

	// A burst of serves far above the 250ms default target: burn rate
	// (1.0 violations / 0.001 budget) dwarfs the threshold in any window.
	for i := 0; i < 50; i++ {
		srv.tel.serveHome.ObserveTrace(time.Second, fmt.Sprintf("burn-%d", i))
	}
	w.clock.Advance(time.Minute)
	srv.TickSLO()

	if alerting, alerts := srv.metric("dcws_slo_alerting"), srv.metric("dcws_slo_alerts_total"); alerting != 1 || alerts != 1 {
		t.Fatalf("SLO after burst: alerting=%v alerts=%v, want alerting", alerting, alerts)
	}
	home := telemetry.Label{Key: "op", Value: "home"}
	burnShort := srv.metric("dcws_slo_burn_rate", home, telemetry.Label{Key: "window", Value: "short"})
	burnLong := srv.metric("dcws_slo_burn_rate", home, telemetry.Label{Key: "window", Value: "long"})
	if burnShort < sloBurnThreshold || burnLong < sloBurnThreshold {
		t.Fatalf("home burn = %v/%v (short/long), want both windows burning", burnShort, burnLong)
	}
	if p99 := srv.metric("dcws_slo_latency_p99_seconds", home); p99 < 0.5 {
		t.Fatalf("home p99 = %v, want ~1s", p99)
	}
	waitForProfiles(t, srv, 1)

	// A second alerting tick one short window later: the cooldown admits a
	// second capture, and the ring (ProfileRingSize=1 -> 2 files) prunes
	// the first pair.
	for i := 0; i < 50; i++ {
		srv.tel.serveHome.ObserveTrace(time.Second, fmt.Sprintf("burn2-%d", i))
	}
	w.clock.Advance(time.Minute)
	srv.TickSLO()
	waitForProfiles(t, srv, 2)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) > 2 {
		t.Fatalf("profile ring not pruned: %v", names)
	}
	var heap string
	for _, n := range names {
		if strings.HasSuffix(n, "-heap.pprof") {
			heap = n
		}
	}
	if heap == "" {
		t.Fatalf("no heap capture on disk: %v", names)
	}

	// The ring is served over HTTP: a listing, the raw bytes, and a 404
	// for traversal attempts.
	if resp := w.get("home:80", "/~dcws/profiles"); resp.Status != 200 || !strings.Contains(string(resp.Body), heap) {
		t.Fatalf("profiles listing = %d %q", resp.Status, resp.Body)
	}
	data, err := os.ReadFile(filepath.Join(dir, heap))
	if err != nil {
		t.Fatal(err)
	}
	if resp := w.get("home:80", "/~dcws/profiles/"+heap); resp.Status != 200 || len(resp.Body) != len(data) {
		t.Fatalf("profile fetch = %d, %d bytes, want %d", resp.Status, len(resp.Body), len(data))
	}
	if resp := w.get("home:80", "/~dcws/profiles/..%2fescape"); resp.Status != 404 {
		t.Fatalf("traversal fetch = %d, want 404", resp.Status)
	}
}

// waitForProfiles polls until the watcher has completed n capture rounds
// (captures run on their own goroutine for the CPU-profile duration).
func waitForProfiles(t *testing.T, srv *Server, n float64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for srv.metric("dcws_slo_profiles_total") < n {
		if time.Now().After(deadline) {
			t.Fatalf("profiles = %v after 5s, want %v", srv.metric("dcws_slo_profiles_total"), n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRecoverySpansRecorded: a crash-restart with a WAL must leave a
// recovery trace in the new process — a root span with snapshot-load,
// replay, and reconcile children — so cold-start cost is inspectable at
// /~dcws/trace like any other operation.
func TestRecoverySpansRecorded(t *testing.T) {
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
	if resp := w.get("coop:81", "/~migrate/home/80/page.html"); resp.Status != 200 {
		t.Fatalf("pull = %d", resp.Status)
	}
	if err := home.Abort(); err != nil { // kill -9: recovery must replay
		t.Fatal(err)
	}

	restarted := w.bootServer("home", 80, homeStore, []string{"/index.html"}, Params{}, home.cfg.WALDir)
	if !restarted.Recovery().Recovered {
		t.Fatal("restart did not recover from the WAL")
	}
	var root *telemetry.Span
	phases := make(map[string]telemetry.Span)
	spans := restarted.Traces().Snapshot()
	for i, sp := range spans {
		switch sp.Op {
		case "recovery":
			root = &spans[i]
		case "snapshot-load", "replay", "reconcile":
			phases[sp.Op] = sp
		}
	}
	if root == nil {
		t.Fatalf("no recovery span after restart: %+v", spans)
	}
	if root.Duration <= 0 || root.ParentID != "" {
		t.Fatalf("recovery root = %+v", root)
	}
	for _, op := range []string{"snapshot-load", "replay", "reconcile"} {
		ph, ok := phases[op]
		if !ok {
			t.Fatalf("recovery trace missing %s phase: %+v", op, spans)
		}
		if ph.ParentID != root.ID || ph.TraceID != root.TraceID {
			t.Fatalf("%s phase not parented on the recovery root: %+v", op, ph)
		}
	}
}

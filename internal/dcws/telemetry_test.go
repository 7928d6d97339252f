package dcws

import (
	"fmt"
	"strings"
	"testing"

	"dcws/internal/glt"
	"dcws/internal/httpx"
	"dcws/internal/resilience"
	"dcws/internal/telemetry"
)

// checkExposition validates Prometheus text-format lines: every
// non-comment line must be "name{labels} value", optionally followed by
// an OpenMetrics-style exemplar (" # {trace_id=\"...\"} value").
// Returns the family names seen.
func checkExposition(t *testing.T, body string) map[string]bool {
	t.Helper()
	families := make(map[string]bool)
	for _, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			// "# TYPE name type" declares a family even when it has no
			// samples yet (e.g. a per-peer collector with no peers).
			if f := strings.Fields(line); len(f) >= 3 && f[1] == "TYPE" {
				families[f[2]] = true
			}
			continue
		}
		if idx := strings.Index(line, " # {"); idx >= 0 {
			ex := line[idx+len(" # "):]
			end := strings.IndexByte(ex, '}')
			if end < 0 || strings.TrimSpace(ex[end+1:]) == "" {
				t.Fatalf("malformed exemplar in %q", line)
			}
			line = line[:idx]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 {
			t.Fatalf("malformed exposition line %q", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("unbalanced label block in %q", line)
			}
			name = name[:i]
		}
		if name == "" {
			t.Fatalf("empty metric name in %q", line)
		}
		families[name] = true
	}
	return families
}

func TestMetricsEndpointCoversEveryLayer(t *testing.T) {
	w := newWorld(t)
	home, _ := migrateAndServe(t, w)
	// Generate traffic through every layer: a home serve, a redirect, and
	// a lazy-migration fetch (render cache + resilience + GLT piggyback).
	w.get("home:80", "/index.html")
	w.get("home:80", "/index.html") // second hit: render-cache hit
	w.get("coop:81", "/~migrate/home/80/page.html")

	resp := w.get("home:80", "/~dcws/metrics")
	if resp.Status != 200 {
		t.Fatalf("metrics status = %d", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
	families := checkExposition(t, string(resp.Body))
	for _, want := range []string{
		// httpx wire layer
		"dcws_httpx_connections_queued_total",
		"dcws_httpx_responses_total",
		"dcws_httpx_request_seconds_count",
		"dcws_httpx_queue_wait_seconds_count",
		"dcws_httpx_bytes_in_total",
		"dcws_httpx_bytes_out_total",
		"dcws_httpx_queue_depth",
		// dcws handler
		"dcws_serve_seconds_count",
		"dcws_requests_total",
		"dcws_redirects_total",
		"dcws_fetches_total",
		// render cache
		"dcws_render_cache_hits_total",
		"dcws_render_cache_misses_total",
		"dcws_render_cache_entries",
		// resilience
		"dcws_resilience_retries_total",
		"dcws_resilience_trips_total",
		"dcws_resilience_peer_state",
		// GLT
		"dcws_glt_entries",
		"dcws_glt_load",
		"dcws_glt_header_bytes",
		// traces
		"dcws_trace_spans_total",
		"dcws_trace_tail_spans_total",
		// SLO watcher
		"dcws_slo_checks_total",
		"dcws_slo_alerts_total",
		"dcws_slo_burn_rate",
		"dcws_slo_latency_p99_seconds",
		"dcws_slo_shed_rate",
		"dcws_slo_alerting",
	} {
		if !families[want] {
			t.Errorf("exposition missing family %s", want)
		}
	}
	if t.Failed() {
		t.Logf("exposition:\n%s", resp.Body)
	}

	// The serve histogram must carry the kind label for the home serve.
	if !strings.Contains(string(resp.Body), `dcws_serve_seconds_count{kind="home"} 2`) {
		t.Fatalf("home serve histogram not observed:\n%s", resp.Body)
	}
	// A render-cache hit must be visible after the repeated GET.
	hits, _ := home.CacheCounts()
	if hits < 1 {
		t.Fatalf("cache hits = %d", hits)
	}
}

// TestTraceSpansAcrossServers is the issue's acceptance scenario: in a
// three-server cluster, one client GET that triggers a lazy-migration
// fetch leaves spans on BOTH the co-op and the home server sharing a
// single trace ID.
func TestTraceSpansAcrossServers(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	coop := w.addServer("coop", 81, nil, nil, Params{})
	third := w.addServer("third", 82, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")

	// The client supplies its own trace ID, as an external system would.
	extra := make(httpx.Header)
	extra.Set(telemetry.TraceHeader, "client-trace-1")
	resp, err := w.client.Get("coop:81", "/~migrate/home/80/page.html", extra)
	if err != nil || resp.Status != 200 {
		t.Fatalf("GET = %v, %v", resp, err)
	}
	if got := resp.Header.Get(telemetry.TraceHeader); got != "client-trace-1" {
		t.Fatalf("response trace header = %q", got)
	}

	coopSpans := coop.Traces().ByTrace("client-trace-1")
	ops := make(map[string]telemetry.Span)
	for _, sp := range coopSpans {
		ops[sp.Op] = sp
	}
	if _, ok := ops["serve-coop"]; !ok {
		t.Fatalf("coop spans missing serve-coop: %+v", coopSpans)
	}
	fh, ok := ops["fetch-home"]
	if !ok {
		t.Fatalf("coop spans missing fetch-home: %+v", coopSpans)
	}
	if fh.Peer != "home:80" || fh.Status != 200 || fh.Attempts != 1 {
		t.Fatalf("fetch-home span = %+v", fh)
	}

	homeSpans := home.Traces().ByTrace("client-trace-1")
	if len(homeSpans) != 1 || homeSpans[0].Op != "serve-fetch" {
		t.Fatalf("home spans = %+v, want one serve-fetch", homeSpans)
	}
	if homeSpans[0].Server != "home:80" {
		t.Fatalf("home span recorded by %q", homeSpans[0].Server)
	}

	// The uninvolved third server saw nothing of this trace.
	if spans := third.Traces().ByTrace("client-trace-1"); len(spans) != 0 {
		t.Fatalf("third server has spans: %+v", spans)
	}
}

// TestTraceSpansUnderFaults drives the same lazy-migration fetch through
// injected dial failures: the retried-and-failed fetch leaves an error
// span with the attempt count, and after the fault heals a fresh request
// traces cleanly end to end.
func TestTraceSpansUnderFaults(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	coop := w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")

	w.fabric.SetDialFailRate("coop:81", "home:80", 1.0)
	extra := make(httpx.Header)
	extra.Set(telemetry.TraceHeader, "faulty-trace")
	resp, err := w.client.Get("coop:81", "/~migrate/home/80/page.html", extra)
	if err != nil || resp.Status != 503 {
		t.Fatalf("GET under faults = %v, %v, want 503", resp, err)
	}
	spans := coop.Traces().ByTrace("faulty-trace")
	var fetch *telemetry.Span
	for i := range spans {
		if spans[i].Op == "fetch-home" {
			fetch = &spans[i]
		}
	}
	if fetch == nil {
		t.Fatalf("no fetch-home span: %+v", spans)
	}
	if fetch.Err == "" || fetch.Status != 0 {
		t.Fatalf("failed fetch span = %+v, want recorded error", fetch)
	}
	if fetch.Attempts != coop.params.FetchAttempts {
		t.Fatalf("attempts = %d, want %d", fetch.Attempts, coop.params.FetchAttempts)
	}
	// The per-peer retry counter saw the re-issued attempts.
	if retries := coop.metric("dcws_resilience_peer_retries_total",
		telemetry.Label{Key: "peer", Value: "home:80"}); retries != float64(coop.params.FetchAttempts-1) {
		t.Fatalf("peer retries = %v, want %d", retries, coop.params.FetchAttempts-1)
	}

	w.fabric.SetDialFailRate("coop:81", "home:80", 0)
	extra = make(httpx.Header)
	extra.Set(telemetry.TraceHeader, "healed-trace")
	resp, err = w.client.Get("coop:81", "/~migrate/home/80/page.html", extra)
	if err != nil || resp.Status != 200 {
		t.Fatalf("GET after heal = %v, %v", resp, err)
	}
	if spans := home.Traces().ByTrace("healed-trace"); len(spans) != 1 || spans[0].Op != "serve-fetch" {
		t.Fatalf("home spans after heal = %+v", spans)
	}
}

// TestStatusPeerResilienceCounters checks that the registry breaks
// retries, trips, rejections, breaker state and the last transition time
// down by peer.
func TestStatusPeerResilienceCounters(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	coop := w.addServer("coop", 81, nil, nil, Params{})
	home.migrate("/page.html", "coop:81")

	w.fabric.SetDialFailRate("coop:81", "home:80", 1.0)
	// Default FetchAttempts 3, BreakerThreshold 5: the first GET fails 3
	// attempts (2 retries); the second trips the breaker on its 2nd
	// attempt (5th consecutive failure) and has its 3rd attempt rejected.
	w.get("coop:81", "/~migrate/home/80/page.html")
	w.get("coop:81", "/~migrate/home/80/page.html")

	peer := telemetry.Label{Key: "peer", Value: "home:80"}
	for name, want := range map[string]float64{
		"dcws_resilience_peer_state":            float64(resilience.Open),
		"dcws_resilience_peer_trips_total":      1,
		"dcws_resilience_peer_retries_total":    4,
		"dcws_resilience_peer_rejections_total": 1,
	} {
		if got := coop.metric(name, peer); got != want {
			t.Fatalf("%s{peer=home:80} = %v, want %v", name, got, want)
		}
	}
	if coop.metric("dcws_resilience_peer_last_transition_seconds", peer) == 0 {
		t.Fatal("last_transition not recorded")
	}

	// The same counters surface per peer in the exposition.
	resp := w.get("coop:81", "/~dcws/metrics")
	body := string(resp.Body)
	for _, want := range []string{
		`dcws_resilience_peer_trips_total{peer="home:80"} 1`,
		`dcws_resilience_peer_retries_total{peer="home:80"} 4`,
		`dcws_resilience_peer_state{peer="home:80"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestPiggybackHeaderStable: with quantized load and throttled
// self-refresh, back-to-back requests leave the self entry alone, so the
// table version stays put and every cached encoding keyed by it (the
// client header, each peer's delta) is reused instead of re-serialized.
func TestPiggybackHeaderStable(t *testing.T) {
	w := newWorld(t)
	srv := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})

	r1 := w.get("home:80", "/index.html")
	versionAfterFirst := srv.metric("dcws_glt_version")
	r2 := w.get("home:80", "/index.html")
	r3 := w.get("home:80", "/index.html")

	h1, h2, h3 := r1.Header.Get("X-DCWS-Load"), r2.Header.Get("X-DCWS-Load"), r3.Header.Get("X-DCWS-Load")
	if h1 == "" || h1 != h2 || h2 != h3 {
		t.Fatalf("piggyback header churned: %q / %q / %q", h1, h2, h3)
	}
	if got := srv.metric("dcws_glt_version"); got != versionAfterFirst {
		t.Fatalf("table version moved %v -> %v across identical requests", versionAfterFirst, got)
	}
}

// TestMetricsSeriesLimitAtScale is the cardinality-guard scenario: a server
// that has learned of 256 peers through gossip must not emit 256 series per
// per-peer family at scrape time — the limit caps each family and the
// overflow is visible in the dropped meta-counter.
func TestMetricsSeriesLimitAtScale(t *testing.T) {
	w := newWorld(t)
	srv := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{MetricsSeriesLimit: 40})
	for i := 0; i < 256; i++ {
		srv.LoadTable().Observe(glt.Entry{
			Server:  fmt.Sprintf("peer-%03d.cluster:80", i),
			Load:    float64(i) / 256,
			Updated: w.clock.Now(),
		})
	}

	resp := w.get("home:80", "/~dcws/metrics")
	if resp.Status != 200 {
		t.Fatalf("metrics status = %d", resp.Status)
	}
	body := string(resp.Body)
	checkExposition(t, body)
	if got := strings.Count(body, "dcws_glt_load{"); got > 40 {
		t.Fatalf("dcws_glt_load emitted %d series, limit 40", got)
	}
	if !strings.Contains(body, `telemetry_series_dropped_total{family="dcws_glt_load"}`) {
		t.Fatalf("dropped meta-counter missing for dcws_glt_load:\n%s", body)
	}
	// Small families are untouched by the cap.
	if !strings.Contains(body, "dcws_glt_entries 257") {
		t.Fatalf("dcws_glt_entries missing or wrong:\n%s", body)
	}
}

// TestTraceEndpointServesSpans checks the /~dcws/trace debugging view.
func TestTraceEndpointServesSpans(t *testing.T) {
	w := newWorld(t)
	w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.get("home:80", "/index.html")
	resp := w.get("home:80", "/~dcws/trace")
	if resp.Status != 200 {
		t.Fatalf("trace status = %d", resp.Status)
	}
	body := string(resp.Body)
	if !strings.Contains(body, `"op": "serve-home"`) || !strings.Contains(body, `"trace_id"`) {
		t.Fatalf("trace body = %s", body)
	}
}

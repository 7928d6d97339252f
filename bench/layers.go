package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"dcws/internal/glt"
	"dcws/internal/graph"
	"dcws/internal/httpx"
	"dcws/internal/hypertext"
	"dcws/internal/naming"
	"dcws/internal/policy"
	"dcws/internal/store"
	"dcws/internal/wal"
)

// replayOps is how many operations of the traced window's schedule are
// traced by the client and replayed through the layers.
const replayOps = 20000

// minCalls is how many calls a layer's unit cost is measured over when the
// stream implies fewer: the metric exists on every workload, even where the
// budget counts the layer zero times.
const minCalls = 500

// traced is the traced run: one untraced and one traced base window on one
// instance, the per-layer numbers from the three sources outside the
// program — client spans, /~dcws/metrics deltas, and a replay of the
// stream's operations through each layer's exported functions — and the
// trace file.
func (r *run) traced() (result, error) {
	w := r.w
	fmt.Printf("workload %s seed %d, traced: %s\n", w.name, r.seed, w.why)
	fmt.Printf("traffic crosses the host's loopback interface; %v; document roots and WALs are under %s\n", r.cpus, r.dir)
	rec := newRecorder()
	if _, err := r.setUp(); err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	dur := r.windowDur(baseShare)
	plain, err := r.window("base", windowSpec{rate: w.baseRPS, duration: dur})
	if err != nil {
		return result{}, err
	}
	// Taken now: the next window reuses the sample buffer.
	untraced := percentile(plain.series(func(s sample) int64 { return s.lat }, 1e6), 0.5)
	r.s.gen.rec, r.s.gen.recSlots = rec, replayOps
	tr, err := r.window("base-traced", windowSpec{rate: w.baseRPS, duration: dur})
	if err != nil {
		return result{}, err
	}
	r.s.gen.rec = nil
	if _, err := r.finish(); err != nil {
		return result{}, err
	}

	m := map[string]float64{}
	// Source: client.
	lat := tr.series(func(s sample) int64 { return s.lat }, 1e6)
	lag := tr.series(func(s sample) int64 { return s.lag }, 1e6)
	m["client.lat_p99_ms"] = percentile(lat, 0.99)
	m["client.sched_lag_p99_ms"] = percentile(lag, 0.99)
	m["client.ttfb_us"] = percentile(tr.series(func(s sample) int64 { return s.ttfb }, 1e3), 0.5)
	m["client.body_read_us"] = percentile(tr.series(func(s sample) int64 { return s.body }, 1e3), 0.5)
	m["dcws.stale_reads"] = float64(tr.stale)
	m["dcws.update_us"] = medianNs(tr.updateNs) / 1e3
	m["dcws.migrate_us"] = medianNs(r.s.migrateNs) / 1e3
	m["trace.overhead_ratio"] = percentile(lat, 0.5) / untraced
	// What the host delivered while this was measured; the per-layer
	// figures are as measured, not scaled by it.
	m["host.ref_rps"] = 0
	if r.ref != nil {
		m["host.ref_rps"] = r.ref.rps()
	}

	// Source: scrape, around the traced window.
	d := func(name string) float64 { return delta(tr.before, tr.after, name) }
	ratio := func(num, den, whenNone float64) float64 {
		if den == 0 {
			return whenNone
		}
		return num / den
	}
	usPer := func(hist string) float64 { return ratio(d(hist+"_sum")*1e6, d(hist+"_count"), 0) }
	usPerKind := func(kind string) float64 {
		return ratio(d(`dcws_serve_seconds_sum{kind="`+kind+`"}`)*1e6, d(`dcws_serve_seconds_count{kind="`+kind+`"}`), 0)
	}
	requests := d("dcws_httpx_request_seconds_count")
	m["httpx.queue_wait_us"] = usPer("dcws_httpx_queue_wait_seconds")
	m["httpx.request_us"] = usPer("dcws_httpx_request_seconds")
	m["httpx.shed"] = d("dcws_httpx_connections_shed_total")
	m["httpx.pool_reuse_ratio"] = ratio(d("dcws_pool_reuses_total"), d("dcws_pool_reuses_total")+d("dcws_pool_dials_total"), 0)
	m["dcws.serve_home_us"] = usPerKind("home")
	m["dcws.serve_coop_us"] = usPerKind("coop")
	m["dcws.serve_fetch_us"] = usPerKind("fetch")
	hits, misses := d("dcws_render_cache_hits_total"), d("dcws_render_cache_misses_total")
	m["dcws.cache_hit_ratio"] = ratio(hits, hits+misses, 1)
	m["dcws.regen_us"] = usPer("dcws_regenerate_seconds")
	m["dcws.regens"] = d("dcws_regenerate_seconds_count")
	m["dcws.fetches"] = d("dcws_fetches_total")
	m["dcws.redirects"] = d("dcws_redirects_total")
	m["dcws.inval_pushes"] = d("dcws_invalidate_pushes_total")
	m["dcws.inval_received"] = d("dcws_invalidate_received_total")
	m["dcws.inval_batches"] = d("dcws_invalidate_batches_total")
	m["wal.appends"] = d("dcws_wal_appends_total")
	m["wal.syncs"] = d("dcws_wal_syncs_total")
	m["resilience.retries"] = d("dcws_resilience_retries_total")
	m["resilience.trips"] = d("dcws_resilience_trips_total")
	m["glt.header_bytes"] = tr.after["dcws_glt_header_bytes"] / float64(w.nodes)

	// Source: replay.
	rp, err := newReplayer(r, rec, tr.spec.index*slotsPerWindow)
	if err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}
	defer rp.close()
	if err := rp.run(m); err != nil {
		return result{}, fmt.Errorf("replay: %w", err)
	}

	fmt.Printf("per-layer metrics (client spans and scrape deltas of the traced base window at %.0f/s; replay of its first %d operations):\n", w.baseRPS, replayOps)
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	out := map[string]metric{}
	for _, n := range names {
		u := perLayerUnit(n)
		fmt.Printf("  %-28s %14.6g %s\n", n, m[n], u)
		out[n] = metric{m[n], u}
	}
	fmt.Printf("tracing overhead: traced ÷ untraced lat_p50_ms = %.4f ÷ %.4f = %.3f\n", percentile(lat, 0.5), untraced, m["trace.overhead_ratio"])

	fmt.Printf("where a request's %.1f µs of httpx.request_us go (%0.f requests in the window; a layer's row is its replayed unit cost × the operations the window's counters and stream imply):\n",
		m["httpx.request_us"], requests)
	printBudget(os.Stdout, rp.budget(m, tr, requests), m["httpx.request_us"])
	fmt.Printf("  (httpx.parse_us, %.3f µs, is spent before httpx.request_us starts and is not in the table)\n", m["httpx.parse_us"])

	if r.out != "" {
		path := filepath.Join(r.out, w.name+".trace.json")
		meta := map[string]any{"workload": w.name, "seed": r.seed, "base_rps": w.baseRPS, "replayed_ops": replayOps,
			"note": "client.* spans are live; all others are the benchmark calling the layer's exported functions on the same operations"}
		if err := rec.writeJSON(path, meta); err != nil {
			return result{}, err
		}
		fmt.Printf("%d spans written to %s\n", len(rec.spans), path)
	}
	return result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: out}, nil
}

func medianNs(ns []int64) float64 {
	v := make([]float64, len(ns))
	for i, n := range ns {
		v[i] = float64(n)
	}
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// perLayerUnit derives a per-layer metric's unit from its name's suffix.
func perLayerUnit(name string) string {
	for _, u := range []struct{ suffix, unit string }{
		{"_ms", "ms"}, {"_us", "us"}, {"_ns", "ns"}, {"_ratio", "ratio"}, {"_bytes", "B"}, {"_rps", "1/s"},
		{"allocs_per_req", "1/req"}, {"allocs_per_doc", "1/doc"},
	} {
		if len(name) >= len(u.suffix) && name[len(name)-len(u.suffix):] == u.suffix {
			return u.unit
		}
	}
	return "count"
}

// replayer calls each layer's exported functions on the inputs the traced
// window's operations imply, from outside the servers.
type replayer struct {
	r         *run
	rec       *recorder
	firstSlot int

	home    *store.Dir // the home's document root; co-ops keep theirs in memory
	scratch *store.Dir
	ldg     *graph.LDG
	table   *glt.Table
	log     *wal.Log
	mapping map[string]map[string]string // pool document → link rewrites a co-op copy gets

	homeReads, coopReads, writes int
}

func newReplayer(r *run, rec *recorder, firstSlot int) (*replayer, error) {
	rp := &replayer{r: r, rec: rec, firstSlot: firstSlot, mapping: map[string]map[string]string{}}
	var err error
	if rp.home, err = store.NewDir(r.s.homeDir); err != nil {
		return nil, err
	}
	if rp.scratch, err = store.NewDir(filepath.Join(r.dir, "replay", "root")); err != nil {
		return nil, err
	}
	if rp.log, err = wal.Open(wal.Options{Dir: filepath.Join(r.dir, "replay", "wal")}); err != nil {
		return nil, err
	}
	// A load table like a node's: itself and its peers.
	addrs := r.s.plan.addrs
	rp.table = glt.NewTable(addrs[0])
	now := time.Now()
	rp.table.UpdateSelf(0.4, now)
	for _, a := range addrs[1:] {
		rp.table.Observe(glt.Entry{Server: a, Load: 0.2, Updated: now})
	}
	return rp, nil
}

func (rp *replayer) close() {
	rp.log.Close()
	rp.scratch.Close()
	rp.home.Close()
}

// span times fn and records it as a child of parent.
func (rp *replayer) span(request, parent int, name string, fn func()) {
	t0 := time.Now()
	fn()
	rp.rec.add(request, parent, name, t0, time.Now())
}

func (rp *replayer) run(m map[string]float64) error {
	p := rp.r.s.plan

	t0 := time.Now()
	ldg, err := graph.Build(rp.home)
	if err != nil {
		return err
	}
	m["graph.build_ms"] = float64(time.Since(t0)) / 1e6
	rp.ldg = ldg

	br := bufio.NewReaderSize(nil, 64<<10)
	var perr error
	fail := func(err error) {
		if perr == nil && err != nil {
			perr = err
		}
	}
	// respond builds a reply like the servers': the same four headers.
	respond := func(load string, body []byte) *httpx.Response {
		resp := httpx.NewResponse(200)
		resp.Header.Set("Content-Type", "text/html")
		resp.Header.Set("Connection", "keep-alive")
		resp.Header.Set(glt.HeaderName, load)
		resp.Header.Set("X-DCWS-Trace", "5094afa86cab-000002")
		resp.Body = body
		return resp
	}
	for i := 0; i < replayOps; i++ {
		slot := rp.firstSlot + i
		id := rp.rec.requestID(slot)
		start := time.Now()
		root := rp.rec.add(id, 0, "replay.request", start, start) // end patched below
		if p.isWrite(slot) {
			rp.writes++
			doc, version := p.write(slot)
			body := stamp(nil, doc.template, doc.stampAt, version)
			req := postRequest(p.addrs[0], "/~dcws/update", map[string]string{"X-DCWS-Doc": doc.name}, body)
			rp.span(id, root, "httpx.parse", func() {
				br.Reset(bytes.NewReader(req))
				_, err := httpx.ReadRequest(br)
				fail(err)
			})
			rp.span(id, root, "store.put", func() { fail(rp.scratch.Put(doc.name, body)) })
			rp.span(id, root, "wal.append", func() {
				_, err := rp.log.Append(1, []byte(doc.name))
				fail(err)
			})
			// The co-op's refetch: the home renders the migration-prepared copy.
			rp.hypertext(id, root, doc.name, string(body))
			rp.piggyback(id, root, p.addrs[1+i%(len(p.addrs)-1)])
			resp := respond(rp.table.EncodeClientHeader(), []byte("updated\n"))
			rp.span(id, root, "httpx.write", func() { fail(httpx.WriteResponse(io.Discard, resp)) })
		} else {
			t := &p.targets[p.stream[slot%len(p.stream)]]
			rp.span(id, root, "httpx.parse", func() {
				br.Reset(bytes.NewReader(t.req))
				_, err := httpx.ReadRequest(br)
				fail(err)
			})
			name := t.path // of the document at the home
			if naming.IsMigrated(t.path) {
				rp.coopReads++
				rp.span(id, root, "naming.decode", func() {
					var err error
					_, name, err = naming.Decode(t.path)
					fail(err)
				})
			} else {
				rp.homeReads++
				rp.span(id, root, "graph.serveinfo", func() {
					if _, _, _, ok := rp.ldg.ServeInfo(t.path); !ok {
						fail(fmt.Errorf("graph: %s unknown", t.path))
					}
					rp.ldg.RecordHit(t.path)
				})
			}
			var body []byte
			rp.span(id, root, "store.get", func() {
				var err error
				body, err = store.GetShared(rp.home, name)
				fail(err)
			})
			var load string
			rp.span(id, root, "glt.encode", func() { load = rp.table.EncodeClientHeader() })
			resp := respond(load, body)
			rp.span(id, root, "httpx.write", func() { fail(httpx.WriteResponse(io.Discard, resp)) })
		}
		rp.rec.setEnd(root, time.Now())
		if perr != nil {
			return perr
		}
	}

	// Layers the stream implies fewer than minCalls of still get a unit
	// cost, from a fixed sample, so that the metric exists on every
	// workload; these spans carry request id 0.
	st := rp.rec.selfTimes()
	count := func(name string) int {
		for _, s := range st {
			if s.name == name {
				return s.count
			}
		}
		return 0
	}
	if count("store.put") < minCalls {
		body := bytes.Repeat([]byte("x"), 20<<10)
		for i := 0; i < minCalls; i++ {
			rp.span(0, 0, "store.put", func() { fail(rp.scratch.Put(fmt.Sprintf("/sample/%d.html", i%16), body)) })
		}
	}
	if count("wal.append") < minCalls {
		for i := 0; i < minCalls; i++ {
			rp.span(0, 0, "wal.append", func() {
				_, err := rp.log.Append(1, []byte("/files/f000.html"))
				fail(err)
			})
		}
	}
	if count("naming.decode") < minCalls {
		key, err := naming.Encode(naming.Origin{Host: "127.0.0.1", Port: basePort}, "/files/f000.html")
		fail(err)
		for i := 0; i < minCalls; i++ {
			rp.span(0, 0, "naming.decode", func() { naming.Decode(key) })
		}
	}
	if count("glt.absorb") < minCalls {
		for i := 0; i < minCalls; i++ {
			rp.piggyback(0, 0, "127.0.0.1:1")
		}
	}
	if count("hypertext.parse") < minCalls {
		if err := rp.hypertextSample(); err != nil {
			return err
		}
	}
	if perr != nil {
		return perr
	}

	// policy.SelectForMigration over the site's candidates.
	var cands []policy.Candidate
	for _, d := range rp.ldg.Snapshot() {
		cands = append(cands, policy.Candidate{Name: d.Name, Load: d.Hits, EntryPoint: d.EntryPoint, LinkTo: len(d.LinkTo)})
	}
	for i := 0; i < 200; i++ {
		rp.span(0, 0, "policy.select", func() { policy.SelectForMigration(cands, 10) })
	}

	// The pooled inter-server client against a live node's ping.
	client := httpx.NewPooledClient(httpx.DialerFunc(func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }), httpx.PoolConfig{})
	defer client.CloseIdle()
	for i := 0; i < 2000; i++ {
		rp.span(0, 0, "httpx.rpc", func() {
			resp, err := client.Get(p.addrs[0], "/~dcws/ping", nil)
			if err == nil && resp.Status != 200 {
				err = fmt.Errorf("ping: status %d", resp.Status)
			}
			fail(err)
		})
	}
	if perr != nil {
		return perr
	}

	// Allocation counts, apart from the timed loops.
	t := &p.targets[p.stream[0]]
	body, err := store.GetShared(rp.home, rp.r.s.site.EntryPoints[0])
	if err != nil {
		return err
	}
	m["httpx.allocs_per_req"] = allocsPer(2000, func() {
		br.Reset(bytes.NewReader(t.req))
		httpx.ReadRequest(br)
		httpx.WriteResponse(io.Discard, respond(rp.table.EncodeClientHeader(), body))
	})
	if src := rp.sampleHTML(); src != "" {
		m["hypertext.allocs_per_doc"] = allocsPer(100, func() {
			doc := hypertext.Parse(src)
			doc.Rewrite(rp.absolutize("/sample.html", doc))
			_ = doc.Render()
		})
	} else {
		m["hypertext.allocs_per_doc"] = 0
	}

	for _, s := range rp.rec.selfTimes() {
		per := float64(s.busy) / float64(s.count)
		switch s.name {
		case "httpx.parse", "httpx.write", "httpx.rpc", "store.get", "store.put", "wal.append",
			"hypertext.parse", "hypertext.rewrite", "hypertext.render", "policy.select":
			m[s.name+"_us"] = per / 1e3
		case "graph.serveinfo", "naming.decode", "glt.encode", "glt.absorb":
			m[s.name+"_ns"] = per
		}
	}
	for _, name := range []string{"graph.serveinfo_ns", "hypertext.parse_us", "hypertext.rewrite_us", "hypertext.render_us"} {
		if _, ok := m[name]; !ok {
			m[name] = 0 // the workload has no operation, and the site no document, for this layer
		}
	}
	return nil
}

// hypertext replays what the home does when a co-op re-fetches a document:
// parse, absolutize every local link, render.
func (rp *replayer) hypertext(id, parent int, name, src string) {
	var doc *hypertext.Document
	rp.span(id, parent, "hypertext.parse", func() { doc = hypertext.Parse(src) })
	rp.span(id, parent, "hypertext.rewrite", func() {
		mapping := rp.mapping[name]
		if mapping == nil {
			mapping = rp.absolutize(name, doc)
			rp.mapping[name] = mapping
		}
		doc.Rewrite(mapping)
	})
	rp.span(id, parent, "hypertext.render", func() { _ = doc.Render() })
}

// absolutize maps every rooted link of doc to an absolute URL at the home,
// the rewrite a migration-prepared copy gets.
func (rp *replayer) absolutize(name string, doc *hypertext.Document) map[string]string {
	origin, _ := naming.ParseOrigin(rp.r.s.plan.addrs[0])
	mapping := map[string]string{}
	for _, raw := range doc.LinkURLs() {
		if target := graph.ResolveLink(name, raw); target != "" {
			mapping[raw] = naming.HomeURL(origin, target)
		}
	}
	return mapping
}

// sampleHTML returns the source of the site's first HTML document that is
// not an entry point, or "" when it has none.
func (rp *replayer) sampleHTML() string {
	names, err := rp.home.List()
	if err != nil {
		return ""
	}
	for _, n := range names {
		if graph.IsHTML(n) && !naming.IsMigrated(n) && n != "/index.html" {
			if data, err := rp.home.Get(n); err == nil {
				return string(data)
			}
		}
	}
	return ""
}

func (rp *replayer) hypertextSample() error {
	src := rp.sampleHTML()
	if src == "" {
		return nil
	}
	for i := 0; i < minCalls; i++ {
		rp.hypertext(0, 0, "/sample.html", src)
	}
	return nil
}

// piggyback replays one inter-server leg's gossip: encode the delta for the
// peer, and absorb what the peer would send back.
func (rp *replayer) piggyback(id, parent int, peer string) {
	now := time.Now()
	var hdr string
	rp.span(id, parent, "glt.encode", func() { hdr = rp.table.EncodePiggybackTo(peer, now, 12, false) })
	rp.span(id, parent, "glt.absorb", func() { rp.table.Absorb(glt.DecodePiggyback(hdr), now) })
}

// allocsPer returns the mean number of heap allocations of one call of fn.
func allocsPer(n int, fn func()) float64 {
	var before, after runtime.MemStats
	fn() // warm pools
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// budget builds the per-layer table's rows: each layer's replayed unit cost
// times the number of its operations the traced window performed, per
// request the servers handled.
func (rp *replayer) budget(m map[string]float64, tr *bracketed, requests float64) []budgetRow {
	if requests == 0 {
		return nil
	}
	d := func(name string) float64 { return delta(tr.before, tr.after, name) }
	// The replayed prefix tells which share of the window's reads went to
	// the home and which to co-ops.
	reads := float64(tr.reads)
	total := float64(rp.homeReads + rp.coopReads)
	home, coop := reads, 0.0
	if total > 0 {
		home, coop = reads*float64(rp.homeReads)/total, reads*float64(rp.coopReads)/total
	}
	writes := float64(tr.writes)
	fetches := d("dcws_fetches_total")
	row := func(layer string, count, unitUs float64) budgetRow {
		return budgetRow{layer: layer, count: int(count + 0.5), usPerReq: count * unitUs / requests}
	}
	return []budgetRow{
		row("glt.encode", requests, m["glt.encode_ns"]/1e3),
		row("graph.serveinfo", home, m["graph.serveinfo_ns"]/1e3),
		row("naming.decode", coop, m["naming.decode_ns"]/1e3),
		// A home read reaches the store only on a render-cache miss.
		row("store.get", coop+d("dcws_render_cache_misses_total"), m["store.get_us"]),
		row("dcws.regen (live)", d("dcws_regenerate_seconds_count"), m["dcws.regen_us"]),
		row("hypertext (serve-fetch)", fetches, m["hypertext.parse_us"]+m["hypertext.rewrite_us"]+m["hypertext.render_us"]),
		row("store.put", writes, m["store.put_us"]),
		row("wal.append", d("dcws_wal_appends_total"), m["wal.append_us"]),
		row("httpx.write", requests, m["httpx.write_us"]),
	}
}

// Command dcwsctl inspects and administers live DCWS servers through their
// operational HTTP endpoints:
//
//	dcwsctl status 127.0.0.1:8080           identity, placement, peer health,
//	                                        then every metric by subsystem
//	dcwsctl graph  127.0.0.1:8080           local document graph summary
//	dcwsctl graph  -full 127.0.0.1:8080     every tuple
//	dcwsctl metrics 127.0.0.1:8080          raw Prometheus exposition
//	dcwsctl metrics -check 127.0.0.1:8080   validate the exposition instead
//	dcwsctl trace  127.0.0.1:8080           recent request trace spans
//	dcwsctl trace  -id abc123 127.0.0.1:8080  spans of one trace only
//	dcwsctl trace  -id abc123 -cluster 127.0.0.1:8080
//	                                        fan out to every server in the
//	                                        load table and print the
//	                                        stitched span tree
//	dcwsctl slow   127.0.0.1:8080           error/slow spans (tail ring)
//	dcwsctl recall 127.0.0.1:8080 127.0.0.1:8081
//	                                        recall all docs migrated to the
//	                                        second server (e.g. before
//	                                        taking it down for maintenance)
//	dcwsctl migrate 127.0.0.1:8080 /index.html 127.0.0.1:8081
//	                                        migrate one document from its
//	                                        home to the named co-op
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"dcws"
	idcws "dcws/internal/dcws"
	"dcws/internal/httpx"
	"dcws/internal/telemetry"
)

func main() {
	full := flag.Bool("full", false, "graph: print every tuple instead of a summary")
	check := flag.Bool("check", false, "metrics: validate the exposition format instead of printing it")
	traceID := flag.String("id", "", "trace/slow: only print spans of this trace ID")
	cluster := flag.Bool("cluster", false, "trace: fan out to every server in the load table and stitch one tree (requires -id)")
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
	}
	// Flags may follow the subcommand name (dcwsctl graph -full <addr>);
	// the top-level Parse stops at the first positional argument, so parse
	// the remainder again.
	flag.CommandLine.Parse(args[1:])
	cmd, args := args[0], flag.Args()
	if len(args) < 1 {
		usage()
	}
	addr := args[0]
	client := httpx.NewClient(httpx.DialerFunc(dcws.TCPNetwork{}.Dial))
	switch cmd {
	case "status":
		var st idcws.Status
		getJSON(client, addr, "/~dcws/status", &st)
		exp, err := checkExposition(getMetrics(client, addr))
		if err != nil {
			log.Fatalf("dcwsctl: %v", err)
		}
		renderStatus(os.Stdout, st, exp)
	case "graph":
		var dump idcws.GraphDump
		getJSON(client, addr, "/~dcws/graph", &dump)
		if *full {
			for _, d := range dump.Docs {
				fmt.Printf("%-40s size=%-8d hits=%-7d loc=%-20s dirty=%-5v entry=%v\n",
					d.Name, d.Size, d.Hits, orDash(d.Location), d.Dirty, d.EntryPoint)
			}
			return
		}
		var migrated, dirty, entries int
		var hits int64
		for _, d := range dump.Docs {
			if d.Location != "" {
				migrated++
			}
			if d.Dirty {
				dirty++
			}
			if d.EntryPoint {
				entries++
			}
			hits += d.Hits
		}
		fmt.Printf("server      %s\n", dump.Addr)
		fmt.Printf("documents   %d (%d entry points)\n", len(dump.Docs), entries)
		fmt.Printf("migrated    %d\n", migrated)
		fmt.Printf("dirty       %d\n", dirty)
		fmt.Printf("total hits  %d\n", hits)
	case "metrics":
		body := getMetrics(client, addr)
		if !*check {
			fmt.Print(body)
			return
		}
		exp, err := checkExposition(body)
		if err != nil {
			log.Fatalf("dcwsctl: %v", err)
		}
		missing := missingFamilies(exp.families)
		if len(missing) > 0 {
			log.Fatalf("dcwsctl: exposition missing metric families: %s", strings.Join(missing, ", "))
		}
		if exp.exemplars == 0 {
			log.Fatalf("dcwsctl: exposition carries no latency exemplars (serve a traced request first)")
		}
		fmt.Printf("ok: %d metric families, %d exemplars, all layers covered\n", len(exp.families), exp.exemplars)
	case "trace":
		if *cluster {
			clusterTrace(client, addr, *traceID)
			return
		}
		var spans []telemetry.Span
		path := "/~dcws/trace"
		if *traceID != "" {
			path += "?id=" + *traceID
		}
		getJSON(client, addr, path, &spans)
		printSpans(spans)
	case "slow":
		var spans []telemetry.Span
		path := "/~dcws/slow"
		if *traceID != "" {
			path += "?id=" + *traceID
		}
		getJSON(client, addr, path, &spans)
		printSpans(spans)
	case "recall":
		if len(args) < 2 {
			usage()
		}
		req := httpx.NewRequest("POST", "/~dcws/recall")
		req.Header.Set("X-DCWS-Fetch", args[1])
		resp, err := client.Do(addr, req)
		if err != nil {
			log.Fatalf("dcwsctl: %v", err)
		}
		fmt.Print(string(resp.Body))
		if resp.Status != 200 {
			os.Exit(1)
		}
	case "migrate":
		if len(args) < 3 {
			usage()
		}
		req := httpx.NewRequest("POST", "/~dcws/migrate")
		req.Header.Set("X-DCWS-Doc", args[1])
		req.Header.Set("X-DCWS-Fetch", args[2])
		resp, err := client.Do(addr, req)
		if err != nil {
			log.Fatalf("dcwsctl: %v", err)
		}
		fmt.Print(string(resp.Body))
		if resp.Status != 200 {
			os.Exit(1)
		}
	default:
		usage()
	}
}

// printSpans renders spans one per line, flat, newest last.
func printSpans(spans []telemetry.Span) {
	for _, sp := range spans {
		fmt.Printf("%s  %-22s %-14s %-30s %s (%s)\n",
			sp.Start.UTC().Format(time.RFC3339), sp.TraceID, sp.Op,
			sp.Target, spanOutcome(sp), sp.Duration)
	}
}

func spanOutcome(sp telemetry.Span) string {
	outcome := fmt.Sprintf("status=%d", sp.Status)
	if sp.Err != "" {
		outcome = "err=" + sp.Err
	}
	if sp.Peer != "" {
		outcome += " peer=" + sp.Peer
	}
	if sp.Attempts > 1 {
		outcome += fmt.Sprintf(" attempts=%d", sp.Attempts)
	}
	return outcome
}

// clusterTrace fans /~dcws/trace?id= out to every server the seed node's
// load table knows, deduplicates the answers, and prints the stitched span
// tree with per-hop timings. Unreachable peers are reported and skipped —
// a partial tree from a live cluster beats no tree.
func clusterTrace(client *httpx.Client, addr, traceID string) {
	if traceID == "" {
		log.Fatalf("dcwsctl: trace -cluster requires -id <trace-id>")
	}
	var st idcws.Status
	getJSON(client, addr, "/~dcws/status", &st)
	peerSet := map[string]bool{addr: true}
	if st.Addr != "" {
		peerSet[st.Addr] = true
	}
	for p := range st.Placement {
		peerSet[p] = true
	}
	peers := make([]string, 0, len(peerSet))
	for p := range peerSet {
		peers = append(peers, p)
	}
	sort.Strings(peers)

	var spans []telemetry.Span
	seen := make(map[string]bool)
	servers := make(map[string]bool)
	for _, p := range peers {
		resp, err := client.Get(p, "/~dcws/trace?id="+traceID, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "dcwsctl: %s unreachable: %v\n", p, err)
			continue
		}
		if resp.Status != 200 {
			fmt.Fprintf(os.Stderr, "dcwsctl: %s/~dcws/trace answered %d\n", p, resp.Status)
			continue
		}
		var got []telemetry.Span
		if err := json.Unmarshal(resp.Body, &got); err != nil {
			fmt.Fprintf(os.Stderr, "dcwsctl: bad JSON from %s: %v\n", p, err)
			continue
		}
		for _, sp := range got {
			// The same span can come back twice when two dial addresses
			// reach one server; span IDs are process-unique so the pair
			// (server, id) identifies it.
			key := sp.Server + "\x00" + sp.ID
			if sp.ID != "" && seen[key] {
				continue
			}
			seen[key] = true
			spans = append(spans, sp)
			if sp.Server != "" {
				servers[sp.Server] = true
			}
		}
	}
	if len(spans) == 0 {
		log.Fatalf("dcwsctl: no spans found for trace %s on %d servers", traceID, len(peers))
	}
	printSpanTree(spans)
	fmt.Printf("stitched %d spans across %d servers\n", len(spans), len(servers))
}

// spanNode is one span in the stitched tree.
type spanNode struct {
	span     telemetry.Span
	children []*spanNode
}

// printSpanTree assembles spans into parent/child trees by ParentID and
// prints them indented, roots (and siblings) in start order. Spans whose
// parent was not retained anywhere print as roots, so a partially wrapped
// ring still renders its surviving fragments.
func printSpanTree(spans []telemetry.Span) {
	byID := make(map[string]*spanNode, len(spans))
	nodes := make([]*spanNode, 0, len(spans))
	for _, sp := range spans {
		n := &spanNode{span: sp}
		nodes = append(nodes, n)
		if sp.ID != "" {
			byID[sp.ID] = n
		}
	}
	var roots []*spanNode
	for _, n := range nodes {
		if p := byID[n.span.ParentID]; n.span.ParentID != "" && p != nil && p != n {
			p.children = append(p.children, n)
		} else {
			roots = append(roots, n)
		}
	}
	order := func(ns []*spanNode) {
		sort.Slice(ns, func(i, j int) bool {
			a, b := ns[i].span, ns[j].span
			if !a.Start.Equal(b.Start) {
				return a.Start.Before(b.Start)
			}
			return a.ID < b.ID
		})
	}
	order(roots)
	var walk func(n *spanNode, depth int)
	walk = func(n *spanNode, depth int) {
		sp := n.span
		fmt.Printf("%s%-16s %-20s %-34s %s (%s)\n",
			strings.Repeat("  ", depth), sp.Op, sp.Server, sp.Target,
			spanOutcome(sp), sp.Duration)
		order(n.children)
		for _, c := range n.children {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

func getJSON(client *httpx.Client, addr, path string, out interface{}) {
	resp, err := client.Get(addr, path, nil)
	if err != nil {
		log.Fatalf("dcwsctl: %v", err)
	}
	if resp.Status != 200 {
		log.Fatalf("dcwsctl: %s%s answered %d", addr, path, resp.Status)
	}
	if err := json.Unmarshal(resp.Body, out); err != nil {
		log.Fatalf("dcwsctl: bad JSON from %s%s: %v", addr, path, err)
	}
}

// getMetrics fetches a server's Prometheus exposition.
func getMetrics(client *httpx.Client, addr string) string {
	resp, err := client.Get(addr, "/~dcws/metrics", nil)
	if err != nil {
		log.Fatalf("dcwsctl: %v", err)
	}
	if resp.Status != 200 {
		log.Fatalf("dcwsctl: %s/~dcws/metrics answered %d", addr, resp.Status)
	}
	return string(resp.Body)
}

// renderStatus prints what /~dcws/status holds — identity, durable-tier
// configuration, placement, peer health, migrations — then every family of
// the exposition grouped by subsystem, the token after "dcws_". Families
// print sorted by name, a family with several series as indented rows
// sorted by label block, and a histogram as its _count and _sum, so a new
// family shows up with no edit here and two renders of the same input are
// identical.
func renderStatus(w io.Writer, st idcws.Status, exp *exposition) {
	fmt.Fprintf(w, "server       %s\n", st.Addr)
	if st.Zone != "" {
		fmt.Fprintf(w, "zone         %s\n", st.Zone)
	}
	if st.Leases {
		fmt.Fprintln(w, "leases       on (push invalidation)")
	} else {
		fmt.Fprintln(w, "leases       off (polling validation)")
	}
	if st.WALSync == "" {
		fmt.Fprintln(w, "wal          off (no WAL directory)")
	} else {
		fmt.Fprintf(w, "wal          sync=%s\n", st.WALSync)
	}
	if r := st.Recovery; r.Recovered {
		fmt.Fprintf(w, "recovery     %.3fs: snapshot_lsn=%d replayed=%d docs=%d coop=%d/%d kept/dropped\n",
			r.Seconds, r.SnapshotLSN, r.ReplayedRecs, r.DocsRestored, r.CoopRestored, r.CoopDropped)
	}
	fmt.Fprintf(w, "hosting      %d migrated out, %d hosted for peers\n", len(st.MigratedOut), len(st.CoopHosted))
	if len(st.Placement) > 0 {
		fmt.Fprintln(w, "placement:")
		for _, p := range sortedKeys(st.Placement) {
			// With capacity metadata the gossiped load is a utilization;
			// print the full view the ranking uses.
			pl := st.Placement[p]
			line := fmt.Sprintf("  %-24s load=%.2f", p, pl.Load)
			if pl.Capacity > 0 {
				line += fmt.Sprintf(" capacity=%.0f headroom=%.0f", pl.Capacity, pl.Headroom)
			}
			if pl.Zone != "" {
				line += " zone=" + pl.Zone
			}
			fmt.Fprintln(w, line)
		}
	}
	if len(st.PeerHealth) > 0 {
		fmt.Fprintln(w, "peer health:")
		for _, p := range sortedKeys(st.PeerHealth) {
			fmt.Fprintf(w, "  %-24s %s\n", p, st.PeerHealth[p])
		}
	}
	for _, doc := range sortedKeys(st.MigratedOut) {
		fmt.Fprintf(w, "migrated: %s -> %s\n", doc, st.MigratedOut[doc])
	}

	// Each sample joins the family its # TYPE line declared; a histogram
	// keeps its _count and _sum and drops its buckets.
	series := make(map[string][]sample)
	for _, smp := range exp.samples {
		if base, ok := strings.CutSuffix(smp.name, "_bucket"); ok && exp.types[base] == "histogram" {
			continue
		}
		fam := smp.name
		for _, suffix := range []string{"_count", "_sum"} {
			if base, ok := strings.CutSuffix(smp.name, suffix); ok && exp.types[base] == "histogram" {
				fam = base
			}
		}
		series[fam] = append(series[fam], smp)
	}
	fams := sortedKeys(exp.types)
	for fam := range series {
		if _, ok := exp.types[fam]; !ok {
			fams = append(fams, fam)
		}
	}
	sort.Slice(fams, func(i, j int) bool {
		if gi, gj := metricGroup(fams[i]), metricGroup(fams[j]); gi != gj {
			return gi < gj
		}
		return fams[i] < fams[j]
	})
	group := ""
	for _, fam := range fams {
		if g := metricGroup(fam); g != group {
			group = g
			fmt.Fprintf(w, "\n%s\n", g)
		}
		name, rows := strings.TrimPrefix(fam, "dcws_"), series[fam]
		switch {
		case len(rows) == 0:
			fmt.Fprintf(w, "  %-46s -\n", name)
		case len(rows) == 1 && rows[0].name == fam && rows[0].labels == "":
			fmt.Fprintf(w, "  %-46s %s\n", name, formatValue(rows[0].value))
		default:
			// One indented row per series, keyed by what tells them
			// apart: the histogram suffix and the label block.
			key := func(r sample) string {
				suffix := strings.TrimPrefix(strings.TrimPrefix(r.name, fam), "_")
				return strings.TrimSpace(suffix + " " + strings.Trim(r.labels, "{}"))
			}
			sort.Slice(rows, func(i, j int) bool { return key(rows[i]) < key(rows[j]) })
			fmt.Fprintf(w, "  %s\n", name)
			for _, r := range rows {
				fmt.Fprintf(w, "    %-44s %s\n", key(r), formatValue(r.value))
			}
		}
	}
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

// metricGroup is the subsystem a series belongs to: the first name token
// after the "dcws_" prefix.
func metricGroup(name string) string {
	g, _, _ := strings.Cut(strings.TrimPrefix(name, "dcws_"), "_")
	return g
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// exposition is one parsed Prometheus text-format scrape.
type exposition struct {
	// families holds every name declared by a # TYPE or # HELP comment or
	// sampled; types maps each # TYPE-declared family to its type.
	families  map[string]bool
	types     map[string]string
	samples   []sample
	exemplars int
}

// sample is one series line: metric name, label block (braces included;
// "" when unlabelled) and value.
type sample struct {
	name, labels string
	value        float64
}

// checkExposition validates Prometheus text-format 0.0.4 and parses it:
// every non-comment line must be "name[{labels}] value" with a balanced
// label block and a numeric value, every "# TYPE" comment well-formed, and
// every OpenMetrics-style exemplar suffix ("... # {trace_id=\"x\"} value")
// complete.
func checkExposition(body string) (*exposition, error) {
	exp := &exposition{families: make(map[string]bool), types: make(map[string]string)}
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 2 && (f[1] == "TYPE" || f[1] == "HELP") {
				if len(f) < 3 {
					return nil, fmt.Errorf("line %d: truncated %s comment: %q", i+1, f[1], line)
				}
				exp.families[f[2]] = true
				if f[1] == "TYPE" && len(f) >= 4 {
					exp.types[f[2]] = f[3]
				}
			}
			continue
		}
		if idx := strings.Index(line, " # {"); idx >= 0 {
			ex := line[idx+len(" # "):]
			end := strings.IndexByte(ex, '}')
			if end < 0 || strings.TrimSpace(ex[end+1:]) == "" {
				return nil, fmt.Errorf("line %d: malformed exemplar in %q", i+1, line)
			}
			exp.exemplars++
			line = line[:idx]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 || sp == len(line)-1 {
			return nil, fmt.Errorf("line %d: malformed sample %q", i+1, line)
		}
		value, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad sample value in %q", i+1, line)
		}
		name, labels := line[:sp], ""
		if b := strings.IndexByte(name, '{'); b >= 0 {
			if !strings.HasSuffix(name, "}") {
				return nil, fmt.Errorf("line %d: unbalanced label block in %q", i+1, line)
			}
			name, labels = name[:b], name[b:]
		}
		if name == "" {
			return nil, fmt.Errorf("line %d: empty metric name in %q", i+1, line)
		}
		exp.families[name] = true
		exp.samples = append(exp.samples, sample{name: name, labels: labels, value: value})
	}
	return exp, nil
}

// missingFamilies reports which instrumented layers are absent from a
// scraped exposition, by required name prefix.
func missingFamilies(families map[string]bool) []string {
	var missing []string
	for _, prefix := range []string{
		"dcws_httpx_", "dcws_serve_seconds", "dcws_render_cache_",
		"dcws_resilience_", "dcws_glt_", "dcws_glt_shard_",
		"dcws_glt_emits_total", "dcws_pool_",
		"dcws_wal_", "dcws_recovery_",
		"dcws_replicate_", "dcws_slo_", "dcws_trace_",
		"dcws_invalidate_", "dcws_validate_polls_total",
	} {
		found := false
		for f := range families {
			if strings.HasPrefix(f, prefix) {
				found = true
				break
			}
		}
		if !found {
			missing = append(missing, prefix+"*")
		}
	}
	sort.Strings(missing)
	return missing
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dcwsctl status <addr> | graph [-full] <addr> | metrics [-check] <addr> | trace [-id <trace-id>] [-cluster] <addr> | slow [-id <trace-id>] <addr> | recall <home-addr> <coop-addr> | migrate <home-addr> <doc> <coop-addr>")
	os.Exit(2)
}

// Command dcwsctl inspects and administers live DCWS servers through their
// operational HTTP endpoints:
//
//	dcwsctl status 127.0.0.1:8080           traffic counters + load table
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
	"log"
	"os"
	"sort"
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
		fmt.Printf("server       %s\n", st.Addr)
		if st.Zone != "" || st.Capacity > 0 {
			line := "placement   "
			if st.Zone != "" {
				line += fmt.Sprintf(" zone=%s", st.Zone)
			}
			if st.Capacity > 0 {
				line += fmt.Sprintf(" capacity=%.0f docs/s", st.Capacity)
			}
			fmt.Println(line)
		}
		fmt.Printf("documents    %d (%d migrated out, %d hosted for peers)\n",
			st.Documents, len(st.MigratedOut), len(st.CoopHosted))
		fmt.Printf("traffic      conns=%d bytes=%d cps=%.1f bps=%.0f\n",
			st.Connections, st.Bytes, st.CPS, st.BPS)
		fmt.Printf("maintenance  redirects=%d fetches=%d rebuilds=%d dropped=%d\n",
			st.Redirects, st.Fetches, st.Rebuilds, st.Dropped)
		fmt.Printf("serving      cache_hits=%d cache_misses=%d (%s) queue_depth=%d\n",
			st.CacheHits, st.CacheMisses, hitRate(st.CacheHits, st.CacheMisses), st.QueueDepth)
		fmt.Printf("resilience   retries=%d breaker_trips=%d\n", st.Retries, st.BreakerTrips)
		fmt.Printf("conn pool    reuses=%d dials=%d (%.0f%% reused) retired=%d\n",
			st.Pool.Reuses, st.Pool.Dials, 100*st.Pool.ReuseRatio, sumRetires(st.Pool.Retires))
		fmt.Printf("hedging      launched=%d won=%d miss=%d wasted=%d\n",
			st.Hedge.Launched, st.Hedge.Won, st.Hedge.Miss, st.Hedge.Wasted)
		fmt.Printf("replication  hot_triggers=%d pushes=%d push_bytes=%d relays=%d stored=%d\n",
			st.Replication.HotTriggers, st.Replication.Pushes, st.Replication.PushBytes,
			st.Replication.Relays, st.Replication.Stored)
		fmt.Printf("             chain_skips=%d revoke_chains=%d revoke_fallbacks=%d shrinks=%d\n",
			st.Replication.ChainSkips, st.Replication.RevokeChains, st.Replication.RevokeFallbacks,
			st.Invalidation.Shrinks)
		if !st.Invalidation.Enabled {
			fmt.Println("invalidation disabled (polling validation)")
		} else {
			iv := st.Invalidation
			fmt.Printf("invalidation subscribers=%d/%d leased=%d pushes=%d acks=%d received=%d\n",
				iv.Subscribers, iv.SubscribersKnown, iv.Leased, iv.Pushes, iv.Acks, iv.Received)
			fmt.Printf("             lease_skips=%d validate_polls=%d lease_expired=%d reconnects=%d\n",
				iv.LeaseSkips, iv.ValidatePolls, iv.LeaseExpired, iv.Reconnects)
			fmt.Printf("             batches=%d batch_docs=%d seq_gaps=%d\n",
				iv.Batches, iv.BatchDocs, iv.Gaps)
		}
		fmt.Printf("slo          alerting=%v checks=%d alerts=%d profiles=%d\n",
			st.SLO.Alerting, st.SLO.Checks, st.SLO.Alerts, st.SLO.Profiles)
		if len(st.SLO.Ops) > 0 {
			ops := make([]string, 0, len(st.SLO.Ops))
			for op := range st.SLO.Ops {
				ops = append(ops, op)
			}
			sort.Strings(ops)
			for _, op := range ops {
				o := st.SLO.Ops[op]
				fmt.Printf("             %-6s p50=%.4fs p99=%.4fs burn=%.2f/%.2f (short/long)\n",
					op, o.P50Seconds, o.P99Seconds, o.BurnShort, o.BurnLong)
			}
			fmt.Printf("             shed rate=%.4f/%.4f burn=%.2f/%.2f (short/long)\n",
				st.SLO.ShedRate["short"], st.SLO.ShedRate["long"],
				st.SLO.ShedBurn["short"], st.SLO.ShedBurn["long"])
		}
		if !st.Durability.Enabled {
			fmt.Println("durability   disabled (no WAL directory)")
		} else {
			d := st.Durability
			fmt.Printf("durability   wal sync=%s lsn=%d snapshot_lsn=%d segments=%d\n",
				d.SyncPolicy, d.LSN, d.SnapshotLSN, d.Segments)
			fmt.Printf("             appends=%d bytes=%d syncs=%d snapshots=%d truncations=%d\n",
				d.Appends, d.AppendedBytes, d.Syncs, d.Snapshots, d.Truncations)
			if r := d.Recovery; r.Recovered {
				fmt.Printf("             recovered in %.3fs: replayed=%d docs=%d coop=%d/%d kept/dropped\n",
					r.Seconds, r.ReplayedRecs, r.DocsRestored, r.CoopRestored, r.CoopDropped)
			}
		}
		fmt.Printf("glt          shards=%d version=%d entries=%d emits(delta/full/client)=%d/%d/%d anti_entropy=%d\n",
			st.GLT.Shards, st.GLT.Version, st.GLT.Entries,
			st.GLT.DeltaEmits, st.GLT.FullEmits, st.GLT.ClientEmits, st.GLT.AntiEntropyRounds)
		fmt.Printf("             digest rounds=%d answered=%d shards_sent=%d pushbacks=%d\n",
			st.GLT.DigestRounds, st.GLT.DigestResponses, st.GLT.DigestShardsSent,
			st.GLT.DigestPushbacks)
		if len(st.GLT.Peers) > 0 {
			fmt.Println("glt gossip:")
			peers := make([]string, 0, len(st.GLT.Peers))
			for p := range st.GLT.Peers {
				peers = append(peers, p)
			}
			sort.Strings(peers)
			for _, p := range peers {
				g := st.GLT.Peers[p]
				line := fmt.Sprintf("  %-24s acked=%d seen=%d", p, g.Acked, g.Seen)
				if g.LastFull != "" {
					line += " last_full=" + g.LastFull
				}
				fmt.Println(line)
			}
		}
		if len(st.Pool.Peers) > 0 {
			fmt.Println("pool peers:")
			peers := make([]string, 0, len(st.Pool.Peers))
			for p := range st.Pool.Peers {
				peers = append(peers, p)
			}
			sort.Strings(peers)
			for _, p := range peers {
				pp := st.Pool.Peers[p]
				fmt.Printf("  %-24s open=%d idle=%d\n", p, pp.Open, pp.Idle)
			}
		}
		if len(st.PeerResilience) > 0 {
			fmt.Println("peer resilience:")
			peers := make([]string, 0, len(st.PeerResilience))
			for p := range st.PeerResilience {
				peers = append(peers, p)
			}
			sort.Strings(peers)
			for _, p := range peers {
				pr := st.PeerResilience[p]
				line := fmt.Sprintf("  %-24s %-9s retries=%d trips=%d rejections=%d",
					p, pr.State, pr.Retries, pr.Trips, pr.Rejections)
				if pr.LastTransition != "" {
					line += " last_transition=" + pr.LastTransition
				}
				fmt.Println(line)
			}
		}
		if len(st.PeerHealth) > 0 {
			fmt.Println("peer health:")
			peers := make([]string, 0, len(st.PeerHealth))
			for p := range st.PeerHealth {
				peers = append(peers, p)
			}
			sort.Strings(peers)
			for _, p := range peers {
				state := st.PeerHealth[p]
				if b, ok := st.Breakers[p]; ok {
					state += " (breaker " + b + ")"
				}
				fmt.Printf("  %-24s %s\n", p, state)
			}
		}
		fmt.Println("load table:")
		servers := make([]string, 0, len(st.LoadTable))
		for s := range st.LoadTable {
			servers = append(servers, s)
		}
		sort.Strings(servers)
		for _, s := range servers {
			// With capacity metadata the gossiped load is a utilization;
			// render the full placement view the ranking actually uses.
			if pl, ok := st.Placement[s]; ok && (pl.Capacity > 0 || pl.Zone != "") {
				line := fmt.Sprintf("  %-24s load=%.2f", s, pl.Load)
				if pl.Capacity > 0 {
					line += fmt.Sprintf(" capacity=%.0f headroom=%.0f", pl.Capacity, pl.Headroom)
				}
				if pl.Zone != "" {
					line += " zone=" + pl.Zone
				}
				fmt.Println(line)
				continue
			}
			fmt.Printf("  %-24s %.2f\n", s, st.LoadTable[s])
		}
		for doc, coop := range st.MigratedOut {
			fmt.Printf("migrated: %s -> %s\n", doc, coop)
		}
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
		resp, err := client.Get(addr, "/~dcws/metrics", nil)
		if err != nil {
			log.Fatalf("dcwsctl: %v", err)
		}
		if resp.Status != 200 {
			log.Fatalf("dcwsctl: %s/~dcws/metrics answered %d", addr, resp.Status)
		}
		if !*check {
			fmt.Print(string(resp.Body))
			return
		}
		families, exemplars, err := checkExposition(string(resp.Body))
		if err != nil {
			log.Fatalf("dcwsctl: %v", err)
		}
		missing := missingFamilies(families)
		if len(missing) > 0 {
			log.Fatalf("dcwsctl: exposition missing metric families: %s", strings.Join(missing, ", "))
		}
		if exemplars == 0 {
			log.Fatalf("dcwsctl: exposition carries no latency exemplars (serve a traced request first)")
		}
		fmt.Printf("ok: %d metric families, %d exemplars, all layers covered\n", len(families), exemplars)
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
	for p := range st.LoadTable {
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

// checkExposition validates Prometheus text-format 0.0.4: every
// non-comment line must be "name[{labels}] value" with a balanced label
// block, every "# TYPE" comment well-formed, and every OpenMetrics-style
// exemplar suffix ("... # {trace_id=\"x\"} value") complete. It returns the
// set of family names declared or sampled and how many exemplars the
// exposition carried.
func checkExposition(body string) (map[string]bool, int, error) {
	families := make(map[string]bool)
	exemplars := 0
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) >= 2 && (f[1] == "TYPE" || f[1] == "HELP") {
				if len(f) < 3 {
					return nil, 0, fmt.Errorf("line %d: truncated %s comment: %q", i+1, f[1], line)
				}
				families[f[2]] = true
			}
			continue
		}
		if idx := strings.Index(line, " # {"); idx >= 0 {
			ex := line[idx+len(" # "):]
			end := strings.IndexByte(ex, '}')
			if end < 0 || strings.TrimSpace(ex[end+1:]) == "" {
				return nil, 0, fmt.Errorf("line %d: malformed exemplar in %q", i+1, line)
			}
			exemplars++
			line = line[:idx]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp <= 0 || sp == len(line)-1 {
			return nil, 0, fmt.Errorf("line %d: malformed sample %q", i+1, line)
		}
		name := line[:sp]
		if b := strings.IndexByte(name, '{'); b >= 0 {
			if !strings.HasSuffix(name, "}") {
				return nil, 0, fmt.Errorf("line %d: unbalanced label block in %q", i+1, line)
			}
			name = name[:b]
		}
		if name == "" {
			return nil, 0, fmt.Errorf("line %d: empty metric name in %q", i+1, line)
		}
		families[name] = true
	}
	return families, exemplars, nil
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

func sumRetires(retires map[string]int64) int64 {
	var n int64
	for _, v := range retires {
		n += v
	}
	return n
}

func hitRate(hits, misses int64) string {
	total := hits + misses
	if total == 0 {
		return "no lookups"
	}
	return fmt.Sprintf("%.0f%% hit", 100*float64(hits)/float64(total))
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

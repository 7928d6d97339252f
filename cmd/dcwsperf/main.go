// Command dcwsperf runs the repository's benchmark sections outside
// `go test` — the serving-engine micro-benchmarks
// (internal/dcws.BenchServeHome and friends), the inter-server RPC
// round-trip pair, the GLT gossip exchange, the WAL, and the seed-pinned
// simulator replays — and writes each section's results to its
// BENCH_<section>.json, alongside the frozen pre-optimization baselines, so
// CI can archive the numbers on every run:
//
//	dcwsperf                                    every section, full accuracy
//	dcwsperf -only rpc -benchtime 2000x -check  one section as a CI smoke
//	                                            run; exits nonzero if its
//	                                            gate fails
//
// The RPC pair (dial-per-request vs. pooled keep-alive) runs over loopback
// TCP — the production transport, whose dial cost is exactly what the
// connection pool eliminates. The in-memory fabric variants exist for
// deterministic tests but a fabric dial is two channel operations, so they
// understate the win and are not recorded here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"testing"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/glt"
	"dcws/internal/sim"
)

// Result is one benchmark measurement.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Comparison pairs the frozen baseline with the current measurement.
type Comparison struct {
	Baseline Result `json:"baseline"`
	Current  Result `json:"current"`
	// AllocsImprovement is baseline allocs/op over current allocs/op; the
	// serving-engine work targets >= 2.
	AllocsImprovement float64 `json:"allocs_improvement"`
}

// RPCReport records the inter-server RPC round-trip pair and the
// improvement ratios pooling buys over dialing per request.
type RPCReport struct {
	Transport         string  `json:"transport"`
	DialPerRequest    Result  `json:"dial_per_request"`
	Pooled            Result  `json:"pooled"`
	NsImprovement     float64 `json:"ns_improvement"`
	AllocsImprovement float64 `json:"allocs_improvement"`
}

// GLTReport records the gossip-exchange benchmark pair (pre-sharding
// full-table baseline vs. sharded delta piggybacking) across cluster
// sizes, plus the piggyback header sizes that bound per-request overhead.
type GLTReport struct {
	Shards          int       `json:"shards"`
	DeltaEntriesCap int       `json:"delta_entries_cap"`
	Sizes           []GLTSize `json:"sizes"`
}

// GLTSize is one cluster-size row of a GLTReport. The benchmark op is a
// complete bidirectional gossip exchange (decode incoming header, merge,
// encode outgoing), so the baseline pays O(cluster) per exchange and the
// delta path pays O(cap).
type GLTSize struct {
	Servers            int     `json:"servers"`
	MergeBaseline      Result  `json:"exchange_baseline"`
	MergeSharded       Result  `json:"exchange_sharded"`
	MergeNsImprovement float64 `json:"ns_improvement"`
	FullHeaderBytes    int     `json:"full_header_bytes"`
	DeltaHeaderBytes   int     `json:"delta_header_bytes"`
}

// WALReport records the durable-tier overhead pair: what one record append
// costs under each fsync policy, and the serve path with a WAL open — which
// must stay at the plain-server allocation profile (ServeHome, measured in
// the same run), because serving appends nothing.
type WALReport struct {
	AppendInterval Result `json:"append_interval"`
	AppendAlways   Result `json:"append_always"`
	ServeHome      Result `json:"serve_home"`
	ServeHomeWAL   Result `json:"serve_home_wal"`
}

// ReplicateReport records the chain-dissemination scenario: a 16-node
// cluster and one hot document brought up to k replicas proactively. The
// egress rows come from a live in-memory cluster (real servers, real
// requests) and prove the home uploads ~one document copy per
// dissemination at every fan-out; the throughput rows come from the
// discrete-event simulator under a flash-crowd workload and prove the
// cluster's serve rate scales as the replica set grows.
type ReplicateReport struct {
	Cluster    int                      `json:"cluster"`
	Egress     []dcws.ChainEgressReport `json:"egress"`
	Throughput []ReplicateThroughput    `json:"throughput"`
	// ScalingX is simulated PeakCPS at k=8 over k=2.
	ScalingX float64 `json:"scaling_x"`
}

// ReplicateThroughput is one fan-out row of the simulated flash crowd.
type ReplicateThroughput struct {
	K              int     `json:"k"`
	PeakCPS        float64 `json:"peak_cps"`
	ChainPushes    int64   `json:"chain_pushes"`
	ChainPushBytes int64   `json:"chain_push_bytes"`
	Drops          int64   `json:"drops"`
}

// Gates for -only replicate -check: the home's upload per hot document must
// stay within 2x of a single transfer however many replicas the chain
// installs (the whole point of relaying instead of fanning out), no
// replica may fall back to a lazy fetch from the home, and the simulated
// flash-crowd throughput must scale >= 1.95x from k=2 to k=8. The simulator
// is seed-deterministic, so the scaling gate is exact, not statistical.
// The scaling floor is 0.9 of the measured figure, as it has been since it
// was first frozen (3.0 against 3.33); it was re-frozen against 2.17 when
// the simulator began running the live control plane, whose hot-document
// detector sees a co-op's hits only in the tick after a report arrives
// (DESIGN.md "Control plane").
const (
	replicateCluster = 16
	maxChainEgressX  = 2.0
	minChainScalingX = 1.95
)

// Conservative floors for -only rpc -check: far below the ratios a quiet machine
// measures (~5x ns, ~2.2x allocs), so the gate only fires when pooling
// genuinely regresses, not on CI noise.
const (
	minRPCNsImprovement     = 1.2
	minRPCAllocsImprovement = 1.6
)

// Gates for -only glt -check: the sharded delta exchange must beat the frozen
// full-table baseline by >= 2x at 64 servers, and the capped delta header
// at 256 servers must be no larger than a 16-server full-table header —
// the issue's bound on per-request gossip overhead at cluster scale.
const minGLTNsImprovement = 2.0

// SLOReport records the slo section's replay: the deterministic flash-crowd
// simulation at full chain fan-out, measured the way the SLO watcher
// measures a live cluster — client-observed latency quantiles plus the
// shed rate. The sim is seed-pinned, so the row reproduces bit for bit and
// the gate catches genuine serving-path regressions, not noise.
type SLOReport struct {
	K           int     `json:"k"`
	Connections int64   `json:"connections"`
	Drops       int64   `json:"drops"`
	P50Seconds  float64 `json:"p50_seconds"`
	P99Seconds  float64 `json:"p99_seconds"`
	ShedRate    float64 `json:"shed_rate"`
}

// Gates for -only slo -check, frozen from the seed-42 flash-crowd replay at k=8
// (measured p99 = 2.54 s, shed rate = 0.095; the sim's virtual clock makes
// both exact, not statistical, so the headroom — 34% on p99, 69% on shed,
// the same ratios as the 1.5 s / 0.08 gates first frozen against 1.12 s /
// 0.047 — is against future code changes, not host noise). The flash crowd
// intentionally saturates the cluster — the gate bounds how badly the tail
// and the shed budget degrade under overload, which is exactly what the
// live SLO watcher alerts on.
const (
	sloSimFanout     = 8
	maxSLOP99Seconds = 3.4
	maxSLOShedRate   = 0.16
)

// Gates for -only invalidate -check, from the issue's acceptance criteria: with
// leases on, steady-state validation RPCs must collapse by >= 100x versus
// the polling baseline (in practice the push cluster issues zero polls, so
// the measured ratio is PollingRPCs over a floor of 1), and an update at
// the home must reach a subscribed co-op's served bytes in under 100 ms.
// The staleness bound is wall-clock — one invalidation frame's flight time
// over the in-memory fabric plus the co-op's re-fetch — so the ~40x
// headroom absorbs CI scheduling jitter, not protocol cost.
const (
	minInvalidateRPCReductionX    = 100.0
	maxInvalidateStalenessSeconds = 0.1
)

// PlacementReport records the placement section's pair: the Figure-6-style
// heterogeneous sweep (16 workstations, 4x capacity spread) run once with
// capacity-normalized zone-aware placement and once with the legacy
// raw-load policy on the byte-identical workload, plus the anti-entropy
// byte cost of a digest exchange versus a full-table exchange at cluster
// scale. Both sims are seed-pinned, so the rows reproduce exactly.
type PlacementReport struct {
	Servers      int          `json:"servers"`
	HeteroSpread float64      `json:"hetero_spread"`
	Weighted     PlacementRow `json:"weighted"`
	Unweighted   PlacementRow `json:"unweighted"`
	// PeakImprovement is weighted peak CPS over unweighted peak CPS.
	PeakImprovement float64      `json:"peak_improvement"`
	Digest          DigestReport `json:"digest"`
}

// PlacementRow is one policy's side of the heterogeneous sweep.
type PlacementRow struct {
	Connections int64   `json:"connections"`
	Drops       int64   `json:"drops"`
	PeakCPS     float64 `json:"peak_cps"`
	ShedRate    float64 `json:"shed_rate"`
	Migrations  int64   `json:"migrations"`
}

// DigestReport compares what one anti-entropy round ships when only a few
// shards diverged: the digest exchange (per-shard version vector both ways
// plus the diverged stripes) against the legacy full-table exchange.
type DigestReport struct {
	Servers        int `json:"servers"`
	DivergedShards int `json:"diverged_shards"`
	DigestBytes    int `json:"digest_bytes"`
	FullBytes      int `json:"full_bytes"`
}

// Gates for -only placement -check, frozen from the seed-42 heterogeneous sweep
// (measured: weighted peak 8780 CPS vs unweighted 4526 CPS, a 1.94x win;
// the sim's virtual clock makes the pair exact, so the 1.2x floor guards
// against genuine placement regressions, not noise). The digest gate is
// the issue's acceptance bound: with 2 of the shards diverged at 64
// servers, a digest round must ship fewer bytes than a full exchange.
const (
	placementServers   = 16
	placementSpread    = 4.0
	minPlacementPeakX  = 1.2
	digestGateServers  = 64
	digestGateDiverged = 2
)

// Gate for -only wal -check: an interval-policy append must stay off the
// microsecond-tens scale (a quiet machine measures ~1.5 µs; the bound only
// fires on a genuine regression like an fsync leaking onto the append
// path). The section also fails unless serving a home document with the
// WAL open allocates no more than the plain server in the same run — the
// durable tier is free on the hot path.
const maxWALAppendIntervalNs = 25_000

// baselines are the seed-commit measurements of the same benchmarks,
// taken before the rendered-document cache, lock decomposition, and
// pooled zero-copy I/O landed (Intel Xeon @ 2.10GHz, go1.22, -benchtime
// default). They are frozen here as the comparison floor.
var baselines = map[string]Result{
	"ServeHome":   {NsPerOp: 18042, BytesPerOp: 107419, AllocsPerOp: 26},
	"ServeCoop":   {NsPerOp: 19543, BytesPerOp: 107467, AllocsPerOp: 24},
	"RegenCached": {NsPerOp: 189925, BytesPerOp: 439094, AllocsPerOp: 82},
}

// chainHotSite is the flash-crowd data set: 30 small pages all embedding
// one 400 KB image — a single document that dominates the byte budget, so
// overall throughput is bounded by how many servers hold it.
func chainHotSite() *dataset.Site {
	const pages = 30
	var docs []dataset.Doc
	docs = append(docs, dataset.Doc{Name: "/big.jpg", Size: 400 * 1024})
	var idxLinks []dataset.Link
	for i := 0; i < pages; i++ {
		name := fmt.Sprintf("/pages/p%02d.html", i)
		docs = append(docs, dataset.Doc{Name: name, Size: 1024, Links: []dataset.Link{
			{URL: "/big.jpg", Image: true},
			{URL: fmt.Sprintf("/pages/p%02d.html", (i+1)%pages)},
			{URL: "/index.html"},
		}})
		idxLinks = append(idxLinks, dataset.Link{URL: name})
	}
	docs = append(docs, dataset.Doc{Name: "/index.html", Size: 1024, Links: idxLinks})
	return &dataset.Site{Name: "ChainHot", Docs: docs, EntryPoints: []string{"/index.html"}}
}

// chainSimResult runs the pinned flash-crowd simulation at one chain
// fan-out. Everything is pinned — seed, intervals, client count — so the
// result is reproducible bit for bit.
func chainSimResult(k int) *sim.Result {
	params := dcws.Params{
		StatsInterval:       2 * time.Second,
		PingerInterval:      4 * time.Second,
		ValidateInterval:    5 * time.Second,
		CoopMigrateInterval: 4 * time.Second,
		MigrationThreshold:  1,
		HotReplicateRate:    10,
		HotReplicaCount:     k,
	}
	res, err := sim.Run(sim.Config{
		Site:      chainHotSite(),
		Servers:   replicateCluster,
		Clients:   1200,
		WarmStart: true,
		Duration:  120 * time.Second,
		Params:    params,
		Seed:      42,
	})
	if err != nil {
		log.Fatalf("dcwsperf: chain flash-crowd sim at k=%d: %v", k, err)
	}
	return res
}

// runChainSim reduces one flash-crowd run to its throughput row.
func runChainSim(k int) ReplicateThroughput {
	res := chainSimResult(k)
	return ReplicateThroughput{
		K:              k,
		PeakCPS:        res.PeakCPS,
		ChainPushes:    res.ChainPushes,
		ChainPushBytes: res.ChainPushBytes,
		Drops:          res.Drops,
	}
}

// placementSimResult runs the pinned heterogeneous sweep under one
// placement policy. The configuration matches the sim package's
// Figure-6-style test point: 16 workstations with a 4x geometric capacity
// spread, warm-started so every server starts with its share of documents
// and the migration policy decides all further placement.
func placementSimResult(weighted bool) PlacementRow {
	params := dcws.Params{
		StatsInterval:       2 * time.Second,
		PingerInterval:      4 * time.Second,
		ValidateInterval:    20 * time.Second,
		CoopMigrateInterval: 4 * time.Second,
		MigrationThreshold:  1,
		HotReplicateRate:    -1, // the sweep measures placement alone
	}
	if !weighted {
		// Negative opts out of capacity normalization: raw loads on the
		// wire, legacy least-loaded placement.
		params.CapacitySmoothing = -1
	}
	res, err := sim.Run(sim.Config{
		Site:         dataset.LOD(),
		Servers:      placementServers,
		Clients:      320,
		Duration:     90 * time.Second,
		HeteroSpread: placementSpread,
		WarmStart:    true,
		Params:       params,
		Seed:         42,
	})
	if err != nil {
		log.Fatalf("dcwsperf: heterogeneous sweep (weighted=%v): %v", weighted, err)
	}
	return PlacementRow{
		Connections: res.Connections,
		Drops:       res.Drops,
		PeakCPS:     res.PeakCPS,
		ShedRate:    res.ShedRate(),
		Migrations:  res.Migrations,
	}
}

// run executes one benchmark function and converts its result.
func run(name string, fn func(*testing.B)) Result {
	r := testing.Benchmark(fn)
	if r.N == 0 {
		log.Fatalf("dcwsperf: benchmark %s failed or was skipped (N=0)", name)
	}
	return Result{
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// writeJSON marshals v to path.
func writeJSON(path string, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatalf("dcwsperf: write %s: %v", path, err)
	}
}

// sections maps each -only name to the function that measures it, writes
// BENCH_<name>.json, and — when check is set — exits nonzero unless the
// section's gate holds. The order is the order a full run executes them.
var sections = []struct {
	name string
	run  func(check bool)
}{
	{"serve", serveSection},
	{"rpc", rpcSection},
	{"wal", walSection},
	{"replicate", replicateSection},
	{"slo", sloSection},
	{"invalidate", invalidateSection},
	{"placement", placementSection},
	{"glt", gltSection},
}

func main() {
	only := flag.String("only", "", "run one section: serve, rpc, glt, wal, replicate, slo, invalidate or placement (default: all)")
	check := flag.Bool("check", false, "exit nonzero unless every section run passes its gate")
	benchtime := flag.String("benchtime", "", "override -test.benchtime (e.g. 1000x for a smoke run)")
	testing.Init()
	flag.Parse()
	if *benchtime != "" {
		if err := flag.Set("test.benchtime", *benchtime); err != nil {
			log.Fatalf("dcwsperf: bad -benchtime: %v", err)
		}
	}
	ran := false
	for _, sec := range sections {
		if *only == "" || *only == sec.name {
			sec.run(*check)
			ran = true
		}
	}
	if !ran {
		log.Fatalf("dcwsperf: unknown section %q", *only)
	}
}

// serveSection has no gate; its report carries the frozen baselines for
// comparison.
func serveSection(bool) {
	benches := []struct {
		name string
		fn   func(*testing.B)
	}{
		{"ServeHome", dcws.BenchServeHome},
		{"ServeCoop", dcws.BenchServeCoop},
		{"RegenCached", dcws.BenchRegenCached},
	}
	report := make(map[string]Comparison, len(benches))
	for _, b := range benches {
		cur := run(b.name, b.fn)
		cmp := Comparison{Baseline: baselines[b.name], Current: cur}
		if cur.AllocsPerOp > 0 {
			cmp.AllocsImprovement = float64(cmp.Baseline.AllocsPerOp) / float64(cur.AllocsPerOp)
		}
		report[b.name] = cmp
		fmt.Fprintf(os.Stderr, "%-12s %10.0f ns/op %8d B/op %4d allocs/op (baseline %d allocs/op, %.1fx)\n",
			b.name, cur.NsPerOp, cur.BytesPerOp, cur.AllocsPerOp,
			cmp.Baseline.AllocsPerOp, cmp.AllocsImprovement)
	}
	writeJSON("BENCH_serve.json", report)
}

func rpcSection(check bool) {
	dial := run("RPCDialPerRequestTCP", dcws.BenchRPCDialPerRequestTCP)
	pooled := run("RPCPooledTCP", dcws.BenchRPCPooledTCP)
	rpc := RPCReport{
		Transport:      "loopback-tcp",
		DialPerRequest: dial,
		Pooled:         pooled,
	}
	if pooled.NsPerOp > 0 {
		rpc.NsImprovement = dial.NsPerOp / pooled.NsPerOp
	}
	if pooled.AllocsPerOp > 0 {
		rpc.AllocsImprovement = float64(dial.AllocsPerOp) / float64(pooled.AllocsPerOp)
	}
	fmt.Fprintf(os.Stderr, "RPC dial     %10.0f ns/op %8d B/op %4d allocs/op\n",
		dial.NsPerOp, dial.BytesPerOp, dial.AllocsPerOp)
	fmt.Fprintf(os.Stderr, "RPC pooled   %10.0f ns/op %8d B/op %4d allocs/op (%.1fx ns, %.1fx allocs)\n",
		pooled.NsPerOp, pooled.BytesPerOp, pooled.AllocsPerOp,
		rpc.NsImprovement, rpc.AllocsImprovement)
	writeJSON("BENCH_rpc.json", rpc)
	if !check {
		return
	}
	if rpc.NsImprovement < minRPCNsImprovement {
		log.Fatalf("dcwsperf: pooled RPC ns improvement %.2fx below gate %.1fx",
			rpc.NsImprovement, minRPCNsImprovement)
	}
	if rpc.AllocsImprovement < minRPCAllocsImprovement {
		log.Fatalf("dcwsperf: pooled RPC allocs improvement %.2fx below gate %.1fx",
			rpc.AllocsImprovement, minRPCAllocsImprovement)
	}
	fmt.Fprintln(os.Stderr, "dcwsperf: RPC pooling gate passed")
}

func walSection(check bool) {
	walRep := WALReport{
		AppendInterval: run("WALAppendInterval", dcws.BenchWALAppendInterval),
		AppendAlways:   run("WALAppendAlways", dcws.BenchWALAppendAlways),
		ServeHome:      run("ServeHome", dcws.BenchServeHome),
		ServeHomeWAL:   run("ServeHomeWAL", dcws.BenchServeHomeWAL),
	}
	fmt.Fprintf(os.Stderr, "WAL append   %10.0f ns/op interval, %10.0f ns/op always (%d B/op, %d allocs/op)\n",
		walRep.AppendInterval.NsPerOp, walRep.AppendAlways.NsPerOp,
		walRep.AppendInterval.BytesPerOp, walRep.AppendInterval.AllocsPerOp)
	fmt.Fprintf(os.Stderr, "ServeHomeWAL %10.0f ns/op %8d B/op %4d allocs/op (plain server %d allocs/op)\n",
		walRep.ServeHomeWAL.NsPerOp, walRep.ServeHomeWAL.BytesPerOp,
		walRep.ServeHomeWAL.AllocsPerOp, walRep.ServeHome.AllocsPerOp)
	writeJSON("BENCH_wal.json", walRep)
	if !check {
		return
	}
	if walRep.AppendInterval.NsPerOp > maxWALAppendIntervalNs {
		log.Fatalf("dcwsperf: interval WAL append %.0f ns/op above gate %d ns/op",
			walRep.AppendInterval.NsPerOp, maxWALAppendIntervalNs)
	}
	if walRep.ServeHomeWAL.AllocsPerOp > walRep.ServeHome.AllocsPerOp {
		log.Fatalf("dcwsperf: WAL-on home serve %d allocs/op above the plain server's %d",
			walRep.ServeHomeWAL.AllocsPerOp, walRep.ServeHome.AllocsPerOp)
	}
	fmt.Fprintln(os.Stderr, "dcwsperf: WAL overhead gate passed")
}

func replicateSection(check bool) {
	replicate := ReplicateReport{Cluster: replicateCluster}
	for _, k := range []int{2, 4, 8} {
		eg, err := dcws.MeasureChainEgress(replicateCluster, k)
		if err != nil {
			log.Fatalf("dcwsperf: chain egress at k=%d: %v", k, err)
		}
		replicate.Egress = append(replicate.Egress, eg)
		fmt.Fprintf(os.Stderr, "chain k=%d   home egress %7d B (doc %d B), %d replicas, %d relays, %d lazy fetches\n",
			eg.K, eg.HomePushBytes, eg.DocBytes, eg.Replicas, eg.Relays, eg.HomeLazyFetches)
	}
	var peak2, peak8 float64
	for _, k := range []int{2, 4, 8} {
		row := runChainSim(k)
		replicate.Throughput = append(replicate.Throughput, row)
		switch k {
		case 2:
			peak2 = row.PeakCPS
		case 8:
			peak8 = row.PeakCPS
		}
		fmt.Fprintf(os.Stderr, "chain k=%d   flash crowd peak %6.0f CPS (%d pushes, %d B pushed, %d drops)\n",
			row.K, row.PeakCPS, row.ChainPushes, row.ChainPushBytes, row.Drops)
	}
	if peak2 > 0 {
		replicate.ScalingX = peak8 / peak2
	}
	fmt.Fprintf(os.Stderr, "chain scaling %.2fx from k=2 to k=8\n", replicate.ScalingX)
	writeJSON("BENCH_replicate.json", replicate)
	if !check {
		return
	}
	for _, eg := range replicate.Egress {
		if float64(eg.HomePushBytes) > maxChainEgressX*float64(eg.DocBytes) {
			log.Fatalf("dcwsperf: home pushed %d B for a %d B document at k=%d, above the %.0fx gate",
				eg.HomePushBytes, eg.DocBytes, eg.K, maxChainEgressX)
		}
		if eg.Replicas != eg.K {
			log.Fatalf("dcwsperf: chain installed %d replicas at k=%d", eg.Replicas, eg.K)
		}
		if eg.HomeLazyFetches != 0 {
			log.Fatalf("dcwsperf: %d replicas fell back to lazy fetches from the home at k=%d",
				eg.HomeLazyFetches, eg.K)
		}
	}
	if replicate.ScalingX < minChainScalingX {
		log.Fatalf("dcwsperf: flash-crowd throughput scaled %.2fx from k=2 to k=8, below gate %.1fx",
			replicate.ScalingX, minChainScalingX)
	}
	fmt.Fprintln(os.Stderr, "dcwsperf: chain replication gate passed")
}

func sloSection(check bool) {
	res := chainSimResult(sloSimFanout)
	slo := SLOReport{
		K:           sloSimFanout,
		Connections: res.Connections,
		Drops:       res.Drops,
		P50Seconds:  res.Latency.Quantile(0.50).Seconds(),
		P99Seconds:  res.Latency.Quantile(0.99).Seconds(),
		ShedRate:    res.ShedRate(),
	}
	fmt.Fprintf(os.Stderr, "SLO replay   k=%d conns=%d drops=%d p50=%.4fs p99=%.4fs shed=%.4f\n",
		slo.K, slo.Connections, slo.Drops, slo.P50Seconds, slo.P99Seconds, slo.ShedRate)
	writeJSON("BENCH_slo.json", slo)
	if !check {
		return
	}
	if slo.P99Seconds > maxSLOP99Seconds {
		log.Fatalf("dcwsperf: flash-crowd p99 %.4fs above SLO gate %.2fs",
			slo.P99Seconds, maxSLOP99Seconds)
	}
	if slo.ShedRate > maxSLOShedRate {
		log.Fatalf("dcwsperf: flash-crowd shed rate %.4f above SLO gate %.3f",
			slo.ShedRate, maxSLOShedRate)
	}
	fmt.Fprintln(os.Stderr, "dcwsperf: SLO gate passed")
}

func invalidateSection(check bool) {
	inval, err := dcws.MeasureInvalidation(replicateCluster)
	if err != nil {
		log.Fatalf("dcwsperf: invalidation measurement: %v", err)
	}
	fmt.Fprintf(os.Stderr, "invalidate   n=%d docs=%d rounds=%d polling=%d RPCs, push=%d RPCs (%d lease skips) -> %.0fx; staleness %.4fs (%d pushes, %d received)\n",
		inval.Nodes, inval.Docs, inval.Rounds, inval.PollingRPCs, inval.PushRPCs,
		inval.LeaseSkips, inval.RPCReductionX, inval.StalenessSeconds,
		inval.Pushes, inval.Received)
	writeJSON("BENCH_invalidate.json", inval)
	if !check {
		return
	}
	if inval.RPCReductionX < minInvalidateRPCReductionX {
		log.Fatalf("dcwsperf: validation RPC reduction %.1fx below gate %.0fx",
			inval.RPCReductionX, minInvalidateRPCReductionX)
	}
	if inval.StalenessSeconds >= maxInvalidateStalenessSeconds {
		log.Fatalf("dcwsperf: update staleness %.4fs at or above gate %.2fs",
			inval.StalenessSeconds, maxInvalidateStalenessSeconds)
	}
	if inval.Pushes == 0 || inval.Received == 0 {
		log.Fatalf("dcwsperf: no invalidation frames observed (pushes=%d received=%d) — the co-op refreshed some other way",
			inval.Pushes, inval.Received)
	}
	fmt.Fprintln(os.Stderr, "dcwsperf: push invalidation gate passed")
}

func placementSection(check bool) {
	rep := PlacementReport{Servers: placementServers, HeteroSpread: placementSpread}
	rep.Weighted = placementSimResult(true)
	rep.Unweighted = placementSimResult(false)
	if rep.Unweighted.PeakCPS > 0 {
		rep.PeakImprovement = rep.Weighted.PeakCPS / rep.Unweighted.PeakCPS
	}
	digestBytes, fullBytes, diverged := glt.DigestExchangeSizes(digestGateServers, digestGateDiverged)
	rep.Digest = DigestReport{
		Servers:        digestGateServers,
		DivergedShards: diverged,
		DigestBytes:    digestBytes,
		FullBytes:      fullBytes,
	}
	for _, side := range []struct {
		name string
		row  PlacementRow
	}{{"weighted", rep.Weighted}, {"unweighted", rep.Unweighted}} {
		fmt.Fprintf(os.Stderr, "placement %-10s conns=%d drops=%d peak=%.0f CPS shed=%.4f migrations=%d\n",
			side.name, side.row.Connections, side.row.Drops, side.row.PeakCPS,
			side.row.ShedRate, side.row.Migrations)
	}
	fmt.Fprintf(os.Stderr, "placement peak improvement %.2fx; digest exchange %dB vs full %dB at n=%d (%d shards diverged)\n",
		rep.PeakImprovement, digestBytes, fullBytes, digestGateServers, diverged)
	writeJSON("BENCH_placement.json", rep)
	if !check {
		return
	}
	if rep.PeakImprovement < minPlacementPeakX {
		log.Fatalf("dcwsperf: weighted placement peak improvement %.2fx below gate %.1fx",
			rep.PeakImprovement, minPlacementPeakX)
	}
	if rep.Weighted.ShedRate > rep.Unweighted.ShedRate {
		log.Fatalf("dcwsperf: weighted placement shed rate %.4f exceeds unweighted %.4f",
			rep.Weighted.ShedRate, rep.Unweighted.ShedRate)
	}
	if rep.Digest.DigestBytes >= rep.Digest.FullBytes {
		log.Fatalf("dcwsperf: digest exchange %dB not smaller than full exchange %dB at %d servers",
			rep.Digest.DigestBytes, rep.Digest.FullBytes, digestGateServers)
	}
	fmt.Fprintln(os.Stderr, "dcwsperf: placement gate passed")
}

func gltSection(check bool) {
	const deltaCap = dcws.MaxPiggybackEntries
	gltReport := GLTReport{Shards: glt.DefaultShards, DeltaEntriesCap: deltaCap}
	for _, servers := range []int{16, 64, 256} {
		base := run(fmt.Sprintf("GLTExchangeBaseline%d", servers), glt.BenchGossipExchangeBaseline(servers))
		sharded := run(fmt.Sprintf("GLTExchangeSharded%d", servers), glt.BenchGossipExchangeSharded(servers, deltaCap))
		fullBytes, deltaBytes := glt.HeaderSizes(servers, deltaCap)
		row := GLTSize{
			Servers:          servers,
			MergeBaseline:    base,
			MergeSharded:     sharded,
			FullHeaderBytes:  fullBytes,
			DeltaHeaderBytes: deltaBytes,
		}
		if sharded.NsPerOp > 0 {
			row.MergeNsImprovement = base.NsPerOp / sharded.NsPerOp
		}
		gltReport.Sizes = append(gltReport.Sizes, row)
		fmt.Fprintf(os.Stderr, "GLT n=%-4d   baseline %9.0f ns/op, sharded %9.0f ns/op (%.1fx); header full=%dB delta=%dB\n",
			servers, base.NsPerOp, sharded.NsPerOp, row.MergeNsImprovement, fullBytes, deltaBytes)
	}
	writeJSON("BENCH_glt.json", gltReport)
	if !check {
		return
	}
	var at64, at256, at16 *GLTSize
	for i := range gltReport.Sizes {
		switch gltReport.Sizes[i].Servers {
		case 16:
			at16 = &gltReport.Sizes[i]
		case 64:
			at64 = &gltReport.Sizes[i]
		case 256:
			at256 = &gltReport.Sizes[i]
		}
	}
	if at64.MergeNsImprovement < minGLTNsImprovement {
		log.Fatalf("dcwsperf: GLT exchange improvement %.2fx at 64 servers below gate %.1fx",
			at64.MergeNsImprovement, minGLTNsImprovement)
	}
	if at256.DeltaHeaderBytes > at16.FullHeaderBytes {
		log.Fatalf("dcwsperf: delta header at 256 servers (%dB) exceeds 16-server full-table header (%dB)",
			at256.DeltaHeaderBytes, at16.FullHeaderBytes)
	}
	fmt.Fprintln(os.Stderr, "dcwsperf: GLT gossip gate passed")
}

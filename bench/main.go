// Command bench is the live loopback benchmark for DCWS groups: it boots
// real server processes (bench/node) on loopback TCP, drives them open-loop
// from this one process, verifies every response, and prints every metric
// of BENCHMARK.json by name and unit. README.md is the manual.
//
//	bench --workload static-small --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

// generatorWorkers is the generator's concurrency: clients, connections per
// server, and requests in flight at most. It stays below the servers' 12
// worker threads, so no connection ever waits for a worker to park another.
const generatorWorkers = 8

func main() {
	var (
		name      = flag.String("workload", "", "workload to run: static-small, static-large, migrated-walk, update-churn")
		seed      = flag.Int64("seed", 1, "seed of the request stream")
		seconds   = flag.Float64("seconds", 20, "how long the timed windows last in total")
		trace     = flag.Int("trace", 0, "1: traced run, prints the per-layer metrics")
		nodeBin   = flag.String("node", "", "path of the built bench/node binary")
		work      = flag.String("work", "", "directory for run directories (document roots, WALs)")
		out       = flag.String("out", "", "directory for trace files")
		selfcheck = flag.Int("selfcheck", 0, "run two interleaved sets of this many runs per workload (all, or the one named by -workload) and print the repeatability report")
		manifest  = flag.String("manifest", "BENCHMARK.json", "the benchmark's manifest, read by -selfcheck for metrics and bounds")
		verbose   = flag.Bool("v", false, "pass server logs through")
		spinCPU   = flag.Int("spin", -1, "internal: keep this CPU from halting until standard input closes")
		echoAddr  = flag.String("echo", "", "internal: serve the reference responder on this address until standard input closes")
	)
	flag.Parse()
	if *spinCPU >= 0 {
		spin(*spinCPU)
	}
	if *echoAddr != "" {
		echo(*echoAddr)
	}
	if *nodeBin == "" || *work == "" {
		fatal("bench: -node and -work are required; use bench/run.sh")
	}
	if *selfcheck > 0 {
		if err := runSelfcheck(*selfcheck, *name, *nodeBin, *work, *manifest); err != nil {
			fatal("bench: selfcheck: %v", err)
		}
		return
	}
	w := workloadByName(*name)
	if w == nil {
		fatal("bench: unknown workload %q", *name)
	}
	cpus, err := planCPUs()
	if err != nil {
		fatal("bench: %v", err)
	}

	r := &run{w: w, cpus: cpus, seed: *seed, seconds: *seconds, nodeBin: *nodeBin, verbose: *verbose,
		dir: filepath.Join(*work, fmt.Sprintf("run-%s-%d", w.name, os.Getpid())), out: *out}
	// Children are reaped on every exit path: stop() below ends and waits
	// for them, also when a signal ends the run, and if this process is
	// killed outright its death closes their stdin, on which a node removes
	// its directory and exits.
	awake, err := cpus.keepAwake()
	if err != nil {
		fatal("bench: %v", err)
	}
	if r.ref, err = startReference(cpus); err != nil {
		awake()
		fatal("bench: %v", err)
	}
	var once sync.Once
	stop := func() { once.Do(func() { r.cleanup(); r.ref.stop(); awake() }) }
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stop()
		fatal("bench: %s: interrupted", w.name)
	}()
	var res result
	if *trace != 0 {
		res, err = r.traced()
	} else {
		res, err = r.measure()
	}
	stop()
	if err != nil {
		fatal("bench: %s: %v", w.name, err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal("bench: %v", err)
	}
	fmt.Println(string(line))
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", a...)
	os.Exit(1)
}

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// run is one invocation of the benchmark on one workload.
type run struct {
	w       *workload
	seed    int64
	seconds float64
	nodeBin string
	dir     string
	out     string
	verbose bool
	cpus    *cpuPlan
	ref     *reference // nil: the host's speed is not measured and counts as 1

	s       *setup
	windows int // windows run so far; fixes the next window's first slot

	attempted, failed int
	writes, writesOK  int // of the current instance
	stale             int
}

func (r *run) cleanup() {
	if r.s != nil {
		r.s.close()
		r.s = nil
	}
	os.RemoveAll(r.dir)
}

// setUp sets the workload up from nothing, replacing the previous
// instance, and returns how long it took.
func (r *run) setUp() (float64, error) {
	if r.s != nil {
		r.s.close()
		r.s = nil
	}
	if err := os.MkdirAll(r.dir, 0o755); err != nil {
		return 0, err
	}
	s, err := setUp(r.w, r.seed, r.nodeBin, r.dir, r.cpus, r.verbose)
	if err != nil {
		return 0, err
	}
	r.s, r.windows, r.writes, r.writesOK = s, 0, 0, 0
	return s.elapsed.Seconds(), nil
}

// bracketed is one window with the scrapes and the CPU reading around it.
type bracketed struct {
	*windowResult
	before, after scrape
	cpu           time.Duration // CPU time the servers used during the window
}

// window runs one timed window between two scrapes of every node, and fails
// if the control plane moved in between: a timed window must see a frozen
// system.
func (r *run) window(label string, spec windowSpec) (*bracketed, error) {
	r.windows++
	spec.index = r.windows
	spec.limit = r.w.limit
	if r.ref != nil {
		if err := r.ref.window(r.windowDur(refShare / (2 * slices))); err != nil {
			return nil, err
		}
	}
	b := &bracketed{}
	var err error
	if b.before, err = r.s.cluster.scrapeAll(); err != nil {
		return nil, err
	}
	cpu0, err := r.s.cluster.cpuTime()
	if err != nil {
		return nil, err
	}
	b.windowResult = r.s.gen.run(spec)
	cpu1, err := r.s.cluster.cpuTime()
	if err != nil {
		return nil, err
	}
	b.cpu = cpu1 - cpu0
	if b.after, err = r.s.cluster.scrapeAll(); err != nil {
		return nil, err
	}
	b.report(os.Stdout, label)
	fmt.Printf("    servers busy %.2f CPUs\n", b.cpu.Seconds()/b.elapsed.Seconds())
	r.attempted += b.reads + b.writes
	r.failed += b.failed()
	r.writes += b.writes
	r.writesOK += b.writesOK
	r.stale += b.stale
	if moved := quiescent(b.before, b.after); len(moved) > 0 {
		return nil, fmt.Errorf("window %s is invalid, the control plane moved inside it: %v", label, moved)
	}
	return b, nil
}

func (r *run) windowDur(share float64) time.Duration {
	return time.Duration(share * r.seconds * float64(time.Second))
}

// A run sets the workload up `instances` times from nothing and times one
// window of each phase on every instance: set-up time needs repeating
// anyway, and a server process carries its own luck — where its memory
// landed, what the host was doing — that a longer window on the same
// process cannot average out, but a median over fresh processes can. Every
// reported figure is the median over the instances.
const (
	instances = 3
	slices    = 2     // windows of each phase per instance
	baseShare = 0.17  // of --seconds, per instance
	satShare  = 0.11  //
	refShare  = 0.053 // reference windows, one before each of the others
)

// measure is the untraced run: every end-to-end metric.
func (r *run) measure() (result, error) {
	w := r.w
	fmt.Printf("workload %s seed %d: %s\n", w.name, r.seed, w.why)
	fmt.Printf("traffic crosses the host's loopback interface; %v; document roots and WALs are under %s\n", r.cpus, r.dir)

	var (
		setupS, slo, rss, updateOK []float64
		lat                        []float64     // base: every read of every instance, ms from due time
		baseCPU, satTime           time.Duration // base: servers' CPU time; sat: window time
		baseOps, satOps            int
		satBytes                   int64
	)
	for k := 1; k <= instances; k++ {
		t, err := r.setUp()
		if err != nil {
			return result{}, fmt.Errorf("set-up %d: %w", k, err)
		}
		setupS = append(setupS, t)
		fmt.Printf("instance %d: set-up %.3f s\n", k, t)

		// The two phases alternate, `slices` windows of each, so that both
		// sample the whole life of the instance: what varies on this class
		// of host varies over seconds.
		for slice := 0; slice < slices; slice++ {
			// Phase base: open loop at the frozen rate, timed from due time.
			b, err := r.window("base", windowSpec{rate: w.baseRPS, duration: r.windowDur(baseShare / slices)})
			if err != nil {
				return result{}, err
			}
			for _, s := range b.samples {
				lat = append(lat, float64(s.lat)/1e6)
			}
			slo = append(slo, float64(b.inLimit)/float64(b.reads+b.backlog))
			baseCPU += b.cpu
			baseOps += b.reads + b.writes

			// Phase sat: everything due at once, so every connection stays
			// busy — eight clients that each wait for their reply: the rate
			// the group delivers.
			b, err = r.window("sat", windowSpec{duration: r.windowDur(satShare / slices)})
			if err != nil {
				return result{}, err
			}
			satOps += b.inWindow
			satBytes += b.bodyBytes
			satTime += b.elapsed
		}

		u, err := r.finish()
		if err != nil {
			return result{}, err
		}
		updateOK = append(updateOK, u)
		peak, err := r.s.cluster.peakRSS()
		if err != nil {
			return result{}, err
		}
		rss = append(rss, float64(peak)/1e6)
	}
	sort.Float64s(lat)

	// Rates are divided by the host's speed and times multiplied by it:
	// reported as they would be at nominal host speed (reference.go).
	speed := 1.0
	if r.ref != nil {
		speed = r.ref.rps() / refNominalRPS
		fmt.Printf("host speed %.4f: the reference responder delivered %.0f requests a second over %d windows, nominal is %d\n",
			speed, r.ref.rps(), r.ref.windows, refNominalRPS)
	}
	type row struct {
		name  string
		raw   float64 // as measured
		scale float64 // speed for a time, 1/speed for a rate, 1 for what is neither
		unit  string
		from  string
	}
	rows := []row{
		{"setup_s", median(setupS), speed, "s", fmt.Sprintf("median of %d set-ups", instances)},
		{"lat_p50_ms", percentile(lat, 0.5), speed, "ms", fmt.Sprintf("base: median of the %d reads of all %d windows", len(lat), instances*slices)},
		{"slo_ok_share", median(slo), 1, "share", fmt.Sprintf("base: median of %d windows", instances*slices)},
		{"max_rps", float64(satOps) / satTime.Seconds(), 1 / speed, "1/s", fmt.Sprintf("sat: %d requests in %d windows, %.1f s", satOps, instances*slices, satTime.Seconds())},
		{"goodput_mbs", float64(satBytes) / satTime.Seconds() / 1e6, 1 / speed, "MB/s", fmt.Sprintf("sat: %d windows, %.1f s", instances*slices, satTime.Seconds())},
		{"cpu_ms_per_req", baseCPU.Seconds() * 1000 / float64(baseOps), speed, "ms", fmt.Sprintf("base: %d requests in %d windows", baseOps, instances*slices)},
		{"rss_mb", median(rss), 1, "MB", fmt.Sprintf("end: sum of VmHWM over the servers, median of %d instances", instances)},
		{"ok_share", 1 - float64(r.failed)/float64(r.attempted), 1, "share", fmt.Sprintf("%d operations, all windows of all instances", r.attempted)},
		{"update_ok_share", minOf(updateOK), 1, "share", "all windows and the final sweep, lowest of the instances"},
	}
	res := result{
		Correct:   r.failed == 0 && minOf(updateOK) == 1,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	fmt.Printf("%-16s %12s %-6s %12s  %s\n", "metric", "value", "unit", "as measured", "from")
	for _, m := range rows {
		res.Metrics[m.name] = metric{m.raw * m.scale, m.unit}
		fmt.Printf("%-16s %12.6g %-6s %12.6g  %s\n", m.name, m.raw*m.scale, m.unit, m.raw, m.from)
	}
	fmt.Printf("stale reads inside %v of an acknowledged write: %d\n", staleGrace, r.stale)
	return res, nil
}

// finish reads every document of the update pool once more and returns
// update_ok_share: writes acknowledged 200 and later observed ÷ writes
// attempted. A document whose final copy is older than its last
// acknowledged write lost that write.
func (r *run) finish() (float64, error) {
	if r.writes == 0 {
		return 1, nil
	}
	p := r.s.plan
	f := newFetcher()
	defer f.close()
	lost := 0
	deadline := time.Now().Add(staleGrace)
	for ti := range p.targets {
		t := &p.targets[ti]
		if t.pool < 0 {
			continue
		}
		want := p.pool[t.pool].lastAcked()
		for {
			resp, err := f.get(p.addrs[t.srv], t.path)
			if err != nil {
				return 0, fmt.Errorf("final sweep %s: %w", t.path, err)
			}
			seen, ok := t.exp.check(resp.body)
			if resp.status == 200 && ok && seen >= want {
				break
			}
			if time.Now().After(deadline) {
				fmt.Printf("  lost update: %s shows version %d, version %d was acknowledged\n", t.path, seen, want)
				lost++
				break
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	return float64(r.writesOK-lost) / float64(r.writes), nil
}

package sim

import (
	"testing"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/dcws"
)

// fastParams shortens the control intervals so short virtual runs exercise
// the policy machinery. Chain replication is off: these runs model the
// paper's system, and a test that wants the chain sets a rate.
func fastParams() dcws.Params {
	return dcws.Params{
		StatsInterval:       2 * time.Second,
		PingerInterval:      4 * time.Second,
		ValidateInterval:    20 * time.Second,
		CoopMigrateInterval: 4 * time.Second,
		MigrationThreshold:  1,
		HotReplicateRate:    -1,
	}
}

func runLOD(t *testing.T, cfg Config) *Result {
	t.Helper()
	if cfg.Site == nil {
		cfg.Site = dataset.LOD()
	}
	if cfg.Duration == 0 {
		cfg.Duration = 60 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSingleServerServesTraffic(t *testing.T) {
	res := runLOD(t, Config{Servers: 1, Clients: 8})
	if res.Connections == 0 {
		t.Fatal("no connections completed")
	}
	if res.Bytes == 0 {
		t.Fatal("no bytes transferred")
	}
	if res.Sequences == 0 {
		t.Fatal("no sequences completed")
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
}

func TestConservationInvariant(t *testing.T) {
	// Every issued request resolves to exactly one of
	// served/dropped/redirected/error, modulo in-flight work at the
	// horizon.
	for _, cfg := range []Config{
		{Servers: 1, Clients: 8},
		{Servers: 3, Clients: 24, Params: fastParams()},
		{Servers: 2, Clients: 16, Mode: ModeRRDNS},
		{Servers: 2, Clients: 16, Mode: ModeRouter},
	} {
		res := runLOD(t, cfg)
		resolved := res.Connections + res.Drops + res.Redirects + res.Errors
		if resolved > res.Issued {
			t.Fatalf("mode %v: resolved %d > issued %d", cfg.Mode, resolved, res.Issued)
		}
		inFlight := res.Issued - resolved
		if inFlight > int64(cfg.Clients*8) {
			t.Fatalf("mode %v: %d requests unaccounted for", cfg.Mode, inFlight)
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := Config{Servers: 2, Clients: 8, Params: fastParams(), Seed: 7, Duration: 30 * time.Second}
	a := runLOD(t, cfg)
	b := runLOD(t, cfg)
	if a.Connections != b.Connections || a.Bytes != b.Bytes ||
		a.Migrations != b.Migrations || a.Drops != b.Drops {
		t.Fatalf("non-deterministic: %+v vs %+v", a, b)
	}
}

func TestMigrationsHappenUnderLoad(t *testing.T) {
	res := runLOD(t, Config{Servers: 4, Clients: 64, Params: fastParams()})
	if res.Migrations == 0 {
		t.Fatal("no migrations despite overload")
	}
	// Co-op servers must end up serving traffic.
	coopConns := int64(0)
	for addr, n := range res.PerServer {
		if addr != "server01:80" {
			coopConns += n
		}
	}
	if coopConns == 0 {
		t.Fatal("co-op servers served nothing")
	}
}

func TestSingleServerSaturates(t *testing.T) {
	// One server under heavy load must cap out and drop requests.
	res := runLOD(t, Config{Servers: 1, Clients: 200, Duration: 40 * time.Second})
	if res.Drops == 0 {
		t.Fatal("no 503 drops under 200 clients on one server")
	}
	// Peak CPS near the calibrated single-node capacity (~950 CPS +/- 40%).
	if res.PeakCPS < 500 || res.PeakCPS > 1600 {
		t.Fatalf("single-server peak CPS = %.0f, want ~950", res.PeakCPS)
	}
}

func TestWarmStartScalesThroughput(t *testing.T) {
	peak := func(servers, clients int) float64 {
		res := runLOD(t, Config{
			Servers:   servers,
			Clients:   clients,
			WarmStart: true,
			Duration:  60 * time.Second,
			Params:    fastParams(),
		})
		return res.PeakCPS
	}
	p1 := peak(1, 120)
	p4 := peak(4, 240)
	if p4 < 2.2*p1 {
		t.Fatalf("4 servers peak %.0f CPS vs 1 server %.0f CPS; expected ~4x scaling", p4, p1)
	}
}

func TestHotSpotLimitsScalability(t *testing.T) {
	// SBLog's single hot JPEG must cap scaling well below LOD's (Figure 7).
	peak := func(site *dataset.Site, servers, clients int) float64 {
		res, err := Run(Config{
			Site:      site,
			Servers:   servers,
			Clients:   clients,
			WarmStart: true,
			Duration:  60 * time.Second,
			Params:    fastParams(),
			Seed:      42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakCPS
	}
	lodGain := peak(dataset.LOD(), 8, 480) / peak(dataset.LOD(), 2, 120)
	sblogGain := peak(dataset.SBLog(), 8, 480) / peak(dataset.SBLog(), 2, 120)
	if sblogGain >= lodGain {
		t.Fatalf("SBLog gain %.2fx >= LOD gain %.2fx; hot spot not limiting", sblogGain, lodGain)
	}
}

func TestChainReplicationRelievesHotSpotInSim(t *testing.T) {
	// The chain disseminator must lift HotImage throughput, while the home
	// pays exactly one upload per dissemination (ChainPushBytes counts one
	// document copy per push, never one per installed replica).
	run := func(rate float64, k int) *Result {
		p := fastParams()
		p.HotReplicateRate = rate
		p.HotReplicaCount = k
		res, err := Run(Config{
			Site:      dataset.HotImage(),
			Servers:   8,
			Clients:   400,
			WarmStart: true,
			Duration:  90 * time.Second,
			Params:    p,
			Seed:      42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	off := run(-1, 0)
	on := run(25, 4)
	if off.ChainPushes != 0 || off.ChainPushBytes != 0 {
		t.Fatalf("disabled run recorded chain pushes: %d (%d bytes)", off.ChainPushes, off.ChainPushBytes)
	}
	if on.ChainPushes == 0 {
		t.Fatal("no chain disseminations triggered under hot-spot load")
	}
	if on.ChainPushBytes > on.ChainPushes*100*1024 {
		t.Fatalf("chain push bytes %d exceed one copy per push (%d pushes)", on.ChainPushBytes, on.ChainPushes)
	}
	if on.PeakCPS <= off.PeakCPS*1.1 {
		t.Fatalf("chain replication peak %.0f CPS <= baseline %.0f CPS; dissemination ineffective", on.PeakCPS, off.PeakCPS)
	}
}

func TestColdStartWarmsUp(t *testing.T) {
	// Figure 8's shape: from a cold start, later CPS samples must
	// substantially exceed early ones as documents migrate out.
	res := runLOD(t, Config{
		Servers:  8,
		Clients:  240,
		Duration: 5 * time.Minute,
		Params:   fastParams(),
	})
	samples := res.CPS.Samples()
	if len(samples) < 10 {
		t.Fatalf("too few samples: %d", len(samples))
	}
	early := samples[1].Value // skip the ramp-in sample
	var late float64
	for _, s := range samples[len(samples)-5:] {
		late += s.Value
	}
	late /= 5
	if late < 1.5*early {
		t.Fatalf("no warm-up: early %.0f CPS, late %.0f CPS", early, late)
	}
	if res.Migrations == 0 {
		t.Fatal("cold start produced no migrations")
	}
}

func TestRRDNSBaselineRuns(t *testing.T) {
	res := runLOD(t, Config{Servers: 4, Clients: 64, Mode: ModeRRDNS})
	if res.Connections == 0 || res.Errors != 0 {
		t.Fatalf("RR-DNS run: %+v", res)
	}
	// All four replicas serve traffic.
	for addr, n := range res.PerServer {
		if n == 0 {
			t.Fatalf("replica %s served nothing", addr)
		}
	}
	if res.Migrations != 0 {
		t.Fatal("baseline migrated documents")
	}
}

func TestRouterBaselineRuns(t *testing.T) {
	res := runLOD(t, Config{Servers: 4, Clients: 64, Mode: ModeRouter})
	if res.Connections == 0 || res.Errors != 0 {
		t.Fatalf("router run: conns=%d errors=%d", res.Connections, res.Errors)
	}
	if res.PerServer["router:80"] == 0 {
		t.Fatal("router forwarded nothing")
	}
}

func TestRouterBottlenecksAtScale(t *testing.T) {
	// The central router's shared NIC caps aggregate throughput; DCWS at
	// the same scale must beat it (the motivation of §1).
	peak := func(mode Mode) float64 {
		res, err := Run(Config{
			Site:      dataset.LOD(),
			Servers:   12,
			Clients:   600,
			Mode:      mode,
			WarmStart: mode == ModeDCWS,
			Duration:  60 * time.Second,
			Params:    fastParams(),
			Seed:      42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakBPS
	}
	dcwsPeak := peak(ModeDCWS)
	routerPeak := peak(ModeRouter)
	if dcwsPeak <= routerPeak {
		t.Fatalf("DCWS peak %.0f BPS <= router peak %.0f BPS at 12 servers", dcwsPeak, routerPeak)
	}
}

func TestRedirectsServedForStaleLinks(t *testing.T) {
	// Cold-start migration inevitably produces stale cached links and
	// therefore 301 redirects at the home server.
	res := runLOD(t, Config{Servers: 4, Clients: 64, Params: fastParams(), Duration: 2 * time.Minute})
	if res.Migrations > 0 && res.Redirects == 0 {
		t.Fatal("migrations occurred but no client ever followed a redirect")
	}
}

func TestThinkTimeReducesThroughput(t *testing.T) {
	base := runLOD(t, Config{Servers: 1, Clients: 16})
	slow := runLOD(t, Config{Servers: 1, Clients: 16, ThinkTime: 2 * time.Second})
	if slow.Connections >= base.Connections {
		t.Fatalf("think time did not reduce load: %d vs %d", slow.Connections, base.Connections)
	}
}

func TestSequoiaLargeFilesBPSDominates(t *testing.T) {
	// §5.3: Sequoia yields the highest BPS and the lowest CPS of the four
	// data sets.
	run := func(site *dataset.Site) (cps, bps float64) {
		res, err := Run(Config{
			Site: site, Servers: 4, Clients: 96, WarmStart: true,
			Duration: 60 * time.Second, Params: fastParams(), Seed: 42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakCPS, res.PeakBPS
	}
	lodCPS, lodBPS := run(dataset.LOD())
	seqCPS, seqBPS := run(dataset.Sequoia())
	if seqBPS <= lodBPS {
		t.Fatalf("Sequoia BPS %.0f <= LOD BPS %.0f", seqBPS, lodBPS)
	}
	if seqCPS >= lodCPS {
		t.Fatalf("Sequoia CPS %.0f >= LOD CPS %.0f", seqCPS, lodCPS)
	}
}

func TestScaledCostModel(t *testing.T) {
	c := DefaultCostModel()
	s := c.Scaled(10)
	if s.ConnOverhead != 10*c.ConnOverhead {
		t.Fatalf("scaled overhead = %v", s.ConnOverhead)
	}
	if s.WorkerByteRate != c.WorkerByteRate/10 {
		t.Fatalf("scaled rate = %v", s.WorkerByteRate)
	}
	if got := c.Scaled(0); got != c {
		t.Fatal("Scaled(0) should be identity")
	}
}

func TestServiceTimeMath(t *testing.T) {
	c := DefaultCostModel()
	if st := c.serviceTime(0); st != c.ConnOverhead {
		t.Fatalf("serviceTime(0) = %v", st)
	}
	oneMB := c.serviceTime(1 << 20)
	if oneMB < c.ConnOverhead+900*time.Millisecond || oneMB > c.ConnOverhead+1100*time.Millisecond {
		t.Fatalf("serviceTime(1MiB) = %v, want ~1s+overhead", oneMB)
	}
}

func TestModeString(t *testing.T) {
	if ModeDCWS.String() != "DCWS" || ModeRRDNS.String() != "RR-DNS" ||
		ModeRouter.String() != "Router" || Mode(99).String() != "unknown" {
		t.Fatal("Mode.String mismatch")
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Fatal("Run without site succeeded")
	}
}

func TestPerServerBalanceAfterWarmup(t *testing.T) {
	res := runLOD(t, Config{
		Servers: 4, Clients: 200, WarmStart: true,
		Duration: 60 * time.Second, Params: fastParams(),
	})
	var min, max int64 = 1 << 62, 0
	for _, n := range res.PerServer {
		if n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if min == 0 {
		t.Fatalf("a server served nothing: %v", res.PerServer)
	}
	if max > 20*min {
		t.Fatalf("extreme imbalance: %v", res.PerServer)
	}
}

func TestLatencyRecordedAndRisesUnderLoad(t *testing.T) {
	light := runLOD(t, Config{Servers: 1, Clients: 4, Duration: 30 * time.Second})
	heavy := runLOD(t, Config{Servers: 1, Clients: 200, Duration: 30 * time.Second})
	if light.Latency.Count() == 0 || heavy.Latency.Count() == 0 {
		t.Fatal("no latencies recorded")
	}
	lm, hm := light.Latency.Mean(), heavy.Latency.Mean()
	if hm <= lm {
		t.Fatalf("saturated latency %v <= idle latency %v", hm, lm)
	}
	// An idle fetch costs roughly RTT + service time (a few ms at our
	// cost model); a saturated one includes queueing and backoff.
	if lm > 200*time.Millisecond {
		t.Fatalf("idle mean latency %v implausibly high", lm)
	}
	if heavy.Latency.Quantile(0.95) < heavy.Latency.Quantile(0.5) {
		t.Fatal("latency quantiles not monotone")
	}
}

func TestFederationCooperationBeatsIsolation(t *testing.T) {
	// The conclusion's federated scenario: four departments each home one
	// site; 70% of the load targets the first. With cooperation the busy
	// department's documents spread to its idle peers; isolated servers
	// leave three departments idle while the first saturates.
	run := func(noCoop bool) *Result {
		res, err := Run(Config{
			Sites: []*dataset.Site{
				dataset.LOD(), dataset.LOD(), dataset.LOD(), dataset.LOD(),
			},
			Servers:       4,
			Clients:       240,
			SkewFirst:     0.7,
			NoCooperation: noCoop,
			Duration:      4 * time.Minute,
			Params:        fastParams(),
			Seed:          42,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	coop := run(false)
	isolated := run(true)
	if isolated.Migrations != 0 {
		t.Fatalf("isolated run migrated %d documents", isolated.Migrations)
	}
	if coop.Migrations == 0 {
		t.Fatal("cooperative run never migrated")
	}
	// Steady-state throughput (mean of the last half of samples).
	late := func(r *Result) float64 {
		s := r.CPS.Samples()
		var sum float64
		n := len(s) / 2
		for _, p := range s[n:] {
			sum += p.Value
		}
		return sum / float64(len(s)-n)
	}
	c, i := late(coop), late(isolated)
	if c < 1.2*i {
		t.Fatalf("cooperation %.0f CPS < 1.2x isolation %.0f CPS", c, i)
	}
}

func TestFederationEverySiteReachable(t *testing.T) {
	res, err := Run(Config{
		Sites:    []*dataset.Site{dataset.LOD(), dataset.MAPUG()},
		Servers:  3, // one spare pure co-op
		Clients:  32,
		Duration: 60 * time.Second,
		Params:   fastParams(),
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	// Both homes served traffic.
	if res.PerServer["server01:80"] == 0 || res.PerServer["server02:80"] == 0 {
		t.Fatalf("a home served nothing: %v", res.PerServer)
	}
}

func TestRevokeExpiredRebalancesShiftedLoad(t *testing.T) {
	// Exercise the T_home path in the simulator: warm-start a group, then
	// age the placements and make one coop look overloaded by reversing
	// which documents receive traffic. The ledger-driven revocation must
	// fire without breaking navigation.
	p := fastParams()
	p.HomeReMigrateInterval = 30 * time.Second
	res := runLOD(t, Config{
		Servers:   3,
		Clients:   48,
		WarmStart: true,
		Duration:  3 * time.Minute,
		Params:    p,
	})
	if res.Errors != 0 {
		t.Fatalf("errors = %d", res.Errors)
	}
	// With a short T_home and ongoing imbalance churn, at least some
	// revocations typically occur; if none did, the ledger logic was at
	// least exercised without corrupting state (conservation holds).
	resolved := res.Connections + res.Drops + res.Redirects + res.Errors
	if resolved > res.Issued {
		t.Fatalf("conservation violated: %d > %d", resolved, res.Issued)
	}
}

func TestSimRevokeDropsHostedCopy(t *testing.T) {
	w, home := testServer(t)
	coop := newSimServer(w, "s2:80", w.params, w.cost)
	w.servers["s2:80"] = coop
	w.order = append(w.order, "s2:80")
	home.loadSite(dataset.HotImage())
	home.Migrate("/big.jpg", "s2:80")
	// Materialize the copy at the coop via the internal fetch path.
	gotReply := make(chan reply, 1)
	coop.admitCoop(target{Addr: "s2:80", Home: "s1:80", Name: "/big.jpg"},
		func(r reply) { gotReply <- r })
	w.drain(w.now.Add(time.Minute))
	select {
	case r := <-gotReply:
		if r.status != 200 {
			t.Fatalf("coop fetch = %d", r.status)
		}
	default:
		t.Fatal("coop fetch never completed")
	}
	if len(coop.hosted) != 1 {
		t.Fatalf("hosted = %d", len(coop.hosted))
	}
	home.Revoke("/big.jpg")
	if len(coop.hosted) != 0 {
		t.Fatal("revocation did not drop the hosted copy")
	}
	if d := home.docs["/big.jpg"]; d.location != "" {
		t.Fatalf("location after revoke = %q", d.location)
	}
}

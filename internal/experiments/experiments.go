package experiments

import (
	"fmt"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/sim"
)

// peakParams shortens the balancing intervals for peak-load measurements so
// warm-start runs settle within the measurement window; the paper's peak
// figures are steady-state numbers. The paper's system has no replication
// (§6 leaves it as future work), so the chain is off unless a row turns it
// on.
func peakParams() dcws.Params {
	return dcws.Params{
		StatsInterval:       2 * time.Second,
		PingerInterval:      4 * time.Second,
		ValidateInterval:    30 * time.Second,
		CoopMigrateInterval: 4 * time.Second,
		MigrationThreshold:  1,
		HotReplicateRate:    -1,
	}
}

// peakRun measures peak CPS/BPS for one configuration (warm-started).
func peakRun(site *dataset.Site, servers, clients int, dur time.Duration) *sim.Result {
	res, err := sim.Run(sim.Config{
		Site:      site,
		Servers:   servers,
		Clients:   clients,
		Duration:  dur,
		Params:    peakParams(),
		Seed:      1999,
		WarmStart: true,
	})
	if err != nil {
		panic(err) // configs are static; failure is a programming error
	}
	return res
}

// Table1 reports the server parameter settings (configuration, not a
// measurement): it shows that DefaultParams reproduces the paper's Table 1.
func Table1() *Report {
	p := dcws.DefaultParams()
	r := &Report{
		Title:  "Table 1: Setting of server parameters",
		Header: []string{"Description", "Paper", "This implementation"},
	}
	r.AddRow("Number of front-end threads (N_fe)", "1", "1")
	r.AddRow("Number of pinger threads (N_pi)", "1", "1")
	r.AddRow("Number of worker threads (N_wk)", "12", fmt.Sprint(p.Workers))
	r.AddRow("Socket queue length (L_sq)", "100", fmt.Sprint(p.QueueLength))
	r.AddRow("Statistics re-calculation interval (T_st)", "10 s", p.StatsInterval.String())
	r.AddRow("Pinger activation interval (T_pi)", "20 s", p.PingerInterval.String())
	r.AddRow("Co-op validation interval (T_val)", "120 s", p.ValidateInterval.String())
	r.AddRow("Home re-migration interval (T_home)", "300 s", p.HomeReMigrateInterval.String())
	r.AddRow("Min time between migrations to same co-op (T_coop)", "60 s", p.CoopMigrateInterval.String())
	return r
}

// Fig6 reproduces Figure 6: BPS and CPS versus the number of concurrent
// clients for 1-16 servers on the LOD data set. quick mode trims the sweep
// for use inside go test benchmarks.
func Fig6(quick bool) (bps, cps *Report) {
	serverCounts := []int{1, 2, 4, 8, 16}
	clientCounts := []int{16, 48, 96, 176, 240, 304, 368, 400}
	dur := 60 * time.Second
	if quick {
		serverCounts = []int{1, 4}
		clientCounts = []int{16, 96, 240}
		dur = 30 * time.Second
	}
	bps = &Report{Title: "Figure 6(a): LOD throughput (MB/s) vs concurrent clients"}
	cps = &Report{Title: "Figure 6(b): LOD connections/s vs concurrent clients"}
	header := []string{"clients"}
	for _, s := range serverCounts {
		header = append(header, fmt.Sprintf("%d srv", s))
	}
	bps.Header = header
	cps.Header = header
	site := dataset.LOD()
	for _, nc := range clientCounts {
		bRow := []string{fmt.Sprint(nc)}
		cRow := []string{fmt.Sprint(nc)}
		for _, ns := range serverCounts {
			res := peakRun(site, ns, nc, dur)
			bRow = append(bRow, mb(res.PeakBPS))
			cRow = append(cRow, f0(res.PeakCPS))
		}
		bps.AddRow(bRow...)
		cps.AddRow(cRow...)
	}
	note := "paper: rises ~linearly with clients, then plateaus at the server-count capacity; " +
		"peaks ~18.6 MB/s & 7150 CPS at 8 servers, ~39.4 MB/s & 15150 CPS at 16"
	bps.Notes = append(bps.Notes, note)
	cps.Notes = append(cps.Notes, note)
	return bps, cps
}

// Fig7 reproduces Figure 7: peak BPS and CPS versus the number of servers
// for all four data sets — near-linear for LOD and Sequoia, sub-linear for
// SBLog and MAPUG whose hot images saturate whichever co-op hosts them.
func Fig7(quick bool) (bps, cps *Report) {
	serverCounts := []int{1, 2, 4, 8, 16}
	// Sequoia's 1-2.8 MB transfers need a longer window to reach steady
	// state than the page-oriented sets.
	dur := 90 * time.Second
	if quick {
		serverCounts = []int{1, 4}
		dur = 60 * time.Second
	}
	bps = &Report{Title: "Figure 7(a): peak throughput (MB/s) vs number of servers"}
	cps = &Report{Title: "Figure 7(b): peak connections/s vs number of servers"}
	header := []string{"servers", "MAPUG", "SBLog", "LOD", "Sequoia"}
	bps.Header = header
	cps.Header = header
	sites := []*dataset.Site{dataset.MAPUG(), dataset.SBLog(), dataset.LOD(), dataset.Sequoia()}
	for _, ns := range serverCounts {
		bRow := []string{fmt.Sprint(ns)}
		cRow := []string{fmt.Sprint(ns)}
		for _, site := range sites {
			// The paper sized its client pool to saturate each
			// configuration (§5.2). Page-oriented sets saturate with ~60
			// clients per server; Sequoia's multi-second transfers are
			// latency-bound and need a much deeper client pipeline.
			clients := 60 * ns
			if site.Name == "Sequoia" {
				clients = 200 * ns
			}
			if clients < 96 {
				clients = 96
			}
			res := peakRun(site, ns, clients, dur)
			bRow = append(bRow, mb(res.PeakBPS))
			cRow = append(cRow, f0(res.PeakCPS))
		}
		bps.AddRow(bRow...)
		cps.AddRow(cRow...)
	}
	bps.Notes = append(bps.Notes,
		"paper: BPS order Sequoia > SBLog > MAPUG > LOD (decreasing average document size)",
		"paper: LOD & Sequoia scale ~linearly to 16; SBLog & MAPUG go sub-linear (hot images)")
	cps.Notes = append(cps.Notes,
		"paper: CPS order is the reverse of BPS; SBLog 8->16 servers improved only ~5%")
	return bps, cps
}

// Fig8 reproduces Figure 8: CPS and BPS sampled every 10 seconds for 30
// minutes from a cold start (one home server holds everything, 15 co-ops
// empty), showing the exponential warm-up as documents migrate out.
func Fig8(quick bool) *Report {
	servers, clients := 16, 368
	dur := 30 * time.Minute
	sample := 10 * time.Second
	// Table 1 intervals exactly, and no replication: Figure 8 is the
	// paper's system.
	params := dcws.Params{HotReplicateRate: -1}
	if quick {
		// Compress time five-fold for use inside tests/benches: intervals
		// and duration shrink together, preserving the curve's shape.
		servers, clients = 8, 176
		dur = 6 * time.Minute
		params = dcws.Params{
			StatsInterval:         2 * time.Second,
			PingerInterval:        4 * time.Second,
			ValidateInterval:      24 * time.Second,
			HomeReMigrateInterval: 60 * time.Second,
			CoopMigrateInterval:   12 * time.Second,
			MigrationThreshold:    1,
			HotReplicateRate:      -1,
		}
		sample = 5 * time.Second
	}
	res, err := sim.Run(sim.Config{
		Site:        dataset.LOD(),
		Servers:     servers,
		Clients:     clients,
		Duration:    dur,
		SampleEvery: sample,
		Params:      params,
		Seed:        1999,
	})
	if err != nil {
		panic(err)
	}
	r := &Report{
		Title:  fmt.Sprintf("Figure 8: warm-up from cold start (%d servers, %d clients, LOD)", servers, clients),
		Header: []string{"t (s)", "CPS", "MB/s"},
	}
	cpsSamples := res.CPS.Samples()
	bpsSamples := res.BPS.Samples()
	// Print every third sample to keep the table readable.
	stride := 3
	if quick {
		stride = 1
	}
	start := cpsSamples[0].At.Add(-sample)
	for i := 0; i < len(cpsSamples); i += stride {
		r.AddRow(
			f0(cpsSamples[i].At.Sub(start).Seconds()),
			f0(cpsSamples[i].Value),
			mb(bpsSamples[i].Value),
		)
	}
	r.Notes = append(r.Notes,
		fmt.Sprintf("migrations performed: %d; redirects followed: %d", res.Migrations, res.Redirects),
		"paper: performance grows slowly at first, then at a seemingly exponential rate as migrations compound")
	return r
}

// Table2 reproduces the parameter tuning trade-offs: each of the five
// interval parameters is run at a low, default, and high setting on a
// cold-start LOD system and the observable consequences recorded. The
// directions should match the qualitative claims of Table 2.
func Table2(quick bool) *Report {
	servers, clients := 8, 176
	dur := 6 * time.Minute
	if quick {
		servers, clients = 4, 96
		dur = 2 * time.Minute
	}
	type variant struct {
		name  string
		apply func(*dcws.Params, time.Duration)
		low   time.Duration
		high  time.Duration
		deflt time.Duration
	}
	base := dcws.DefaultParams()
	variants := []variant{
		{"T_st", func(p *dcws.Params, d time.Duration) { p.StatsInterval = d },
			2 * time.Second, 40 * time.Second, base.StatsInterval},
		{"T_pi", func(p *dcws.Params, d time.Duration) { p.PingerInterval = d },
			5 * time.Second, 80 * time.Second, base.PingerInterval},
		{"T_val", func(p *dcws.Params, d time.Duration) { p.ValidateInterval = d },
			30 * time.Second, 480 * time.Second, base.ValidateInterval},
		{"T_home", func(p *dcws.Params, d time.Duration) { p.HomeReMigrateInterval = d },
			60 * time.Second, 1200 * time.Second, base.HomeReMigrateInterval},
		{"T_coop", func(p *dcws.Params, d time.Duration) { p.CoopMigrateInterval = d },
			15 * time.Second, 240 * time.Second, base.CoopMigrateInterval},
	}
	r := &Report{
		Title: "Table 2: parameter tuning trade-offs (cold-start LOD)",
		Header: []string{"param", "setting", "value", "mean CPS", "peak CPS",
			"migrations", "fetch+valid", "drops"},
	}
	site := dataset.LOD()
	for _, v := range variants {
		for _, setting := range []struct {
			label string
			d     time.Duration
		}{{"low", v.low}, {"default", v.deflt}, {"high", v.high}} {
			p := dcws.DefaultParams()
			p.MigrationThreshold = 1
			v.apply(&p, setting.d)
			res, err := sim.Run(sim.Config{
				Site: site, Servers: servers, Clients: clients,
				Duration: dur, Params: p, Seed: 1999,
			})
			if err != nil {
				panic(err)
			}
			r.AddRow(v.name, setting.label, setting.d.String(),
				f0(res.CPS.Mean()), f0(res.PeakCPS),
				fmt.Sprint(res.Migrations), fmt.Sprint(res.Rebuilds),
				fmt.Sprint(res.Drops))
		}
	}
	r.Notes = append(r.Notes,
		"paper Table 2: higher T_st delays balancing; lower T_st adds migration/recalc overhead;",
		"higher T_val lowers consistency traffic; lower T_coop balances faster but risks over-migration")
	return r
}

// Ablations compares DCWS against the two related-work baselines and
// toggles the replication extension and the load-metric choice.
func Ablations(quick bool) *Report {
	serverCounts := []int{4, 8, 16}
	dur := 60 * time.Second
	if quick {
		serverCounts = []int{4}
		dur = 30 * time.Second
	}
	r := &Report{
		Title:  "Ablations: DCWS vs baselines, replication, load metric",
		Header: []string{"experiment", "servers", "peak CPS", "peak MB/s", "drops"},
	}
	lod := dataset.LOD()
	for _, ns := range serverCounts {
		clients := 30 * ns
		for _, mode := range []sim.Mode{sim.ModeDCWS, sim.ModeRRDNS, sim.ModeRouter} {
			res, err := sim.Run(sim.Config{
				Site: lod, Servers: ns, Clients: clients, Duration: dur,
				Params: peakParams(), Seed: 1999, Mode: mode,
				WarmStart: mode == sim.ModeDCWS,
			})
			if err != nil {
				panic(err)
			}
			r.AddRow("LOD/"+mode.String(), fmt.Sprint(ns),
				f0(res.PeakCPS), mb(res.PeakBPS), fmt.Sprint(res.Drops))
		}
	}
	// Replication extension on the hot-image workload: chain dissemination
	// with the trigger and fan-out examples/hotspot uses.
	for _, replicate := range []bool{false, true} {
		p := peakParams()
		if replicate {
			p.HotReplicateRate = 25
			p.HotReplicaCount = 4
		}
		res, err := sim.Run(sim.Config{
			Site: dataset.HotImage(), Servers: 8, Clients: 400,
			Duration: 90 * time.Second, Params: p, Seed: 1999, WarmStart: true,
		})
		if err != nil {
			panic(err)
		}
		label := "hot-image/replication=off"
		if replicate {
			label = "hot-image/replication=on"
		}
		r.AddRow(label, "8", f0(res.PeakCPS), mb(res.PeakBPS), fmt.Sprint(res.Drops))
	}
	// CPS vs BPS balancing metric (§5.3: "in a system which uses
	// significantly larger file sizes ... BPS may be a better load
	// balancing metric"). The distinction needs size heterogeneity, so the
	// workload mixes many small pages with a few huge downloads; the
	// interesting outcome is the byte balance across servers, measured as
	// max/min bytes served.
	metricDur := 5 * time.Minute
	if quick {
		metricDur = 3 * time.Minute
	}
	for _, useBPS := range []bool{false, true} {
		p := peakParams()
		p.UseBPSMetric = useBPS
		res, err := sim.Run(sim.Config{
			Site: mixedSizeSite(), Servers: 8, Clients: 400,
			Duration: metricDur, Params: p, Seed: 1999,
		})
		if err != nil {
			panic(err)
		}
		label := "mixed-cold/metric=CPS"
		if useBPS {
			label = "mixed-cold/metric=BPS"
		}
		r.AddRow(label, "8", f0(res.PeakCPS), mb(res.PeakBPS),
			fmt.Sprintf("imbal %.1fx", byteImbalance(res)))
	}
	r.Notes = append(r.Notes,
		"DCWS should match or beat RR-DNS (which needs full replicas) and beat the router at scale",
		"replication=on (chain dissemination, §6 extension via CDTP) should lift the hot-image peak; the BPS metric improves byte balance on size-mixed content (§5.3)")
	return r
}

// byteImbalance reports max/min bytes served across servers.
func byteImbalance(res *sim.Result) float64 {
	var min, max int64 = 1 << 62, 0
	for _, b := range res.PerServerBytes {
		if b < min {
			min = b
		}
		if b > max {
			max = b
		}
	}
	if min <= 0 {
		return float64(max)
	}
	return float64(max) / float64(min)
}

// mixedSizeSite mixes many small pages with a few very large downloads so
// the CPS and BPS load metrics rank servers differently.
func mixedSizeSite() *dataset.Site {
	var docs []dataset.Doc
	var idxLinks []dataset.Link
	for i := 0; i < 120; i++ {
		name := fmt.Sprintf("/pages/p%03d.html", i)
		links := []dataset.Link{
			{URL: fmt.Sprintf("/pages/p%03d.html", (i+1)%120)},
			{URL: "/index.html"},
		}
		if i%4 == 0 {
			links = append(links, dataset.Link{URL: fmt.Sprintf("/dl/big%02d.z", i/4)})
		}
		docs = append(docs, dataset.Doc{Name: name, Size: 4096, Links: links})
		idxLinks = append(idxLinks, dataset.Link{URL: name})
	}
	for i := 0; i < 30; i++ {
		docs = append(docs, dataset.Doc{Name: fmt.Sprintf("/dl/big%02d.z", i), Size: 2 << 20})
	}
	docs = append(docs, dataset.Doc{Name: "/index.html", Size: 4096, Links: idxLinks})
	return &dataset.Site{Name: "Mixed", Docs: docs, EntryPoints: []string{"/index.html"}}
}

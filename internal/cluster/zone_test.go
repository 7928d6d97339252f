package cluster

import (
	"fmt"
	"testing"
	"time"

	"dcws/internal/clock"
	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/httpx"
	"dcws/internal/memnet"
)

// zoneSite is a tiny site with enough non-entry pages that several rounds
// of migration always have a fresh candidate.
func zoneSite() *dataset.Site {
	site := &dataset.Site{Name: "zonetest", EntryPoints: []string{"/index.html"}}
	var links []dataset.Link
	for i := 1; i <= 8; i++ {
		name := fmt.Sprintf("/d%d.html", i)
		links = append(links, dataset.Link{URL: name})
		site.Docs = append(site.Docs, dataset.Doc{Name: name, Size: 4096})
	}
	site.Docs = append(site.Docs, dataset.Doc{Name: "/index.html", Size: 2048, Links: links})
	return site
}

// zoneParams shortens the control intervals so manual-clock phases of a few
// seconds cover a full gate + staleness cycle.
func zoneParams(zone string) dcws.Params {
	return dcws.Params{
		Zone:               zone,
		MigrationThreshold: 1,
		// The cluster runs on a manual clock; a real backoff sleep inside
		// a probe would block the tick forever.
		RetryBaseDelay:        -1,
		StatsInterval:         2 * time.Second,
		PingerInterval:        4 * time.Second,
		CoopMigrateInterval:   4 * time.Second,
		HomeReMigrateInterval: time.Hour,
		PlacementMaxStaleness: time.Hour,
	}
}

// TestClusterZoneSpilloverUnderPartition shows what only a cluster can:
// zone labels reach the home by gossip, a real partition turns into failed
// probes that make the same-zone co-op unusable so migrations spill to the
// other zone, and a healed link's first good probe brings them back. The
// policy itself (prefer the zone, spill, return) is pinned against a fake
// plant in dcws.TestControllerDecisions.
//
// The servers' own loops share the manual clock, so every Advance wakes
// them beside the explicit ticks below. The test therefore waits after
// each Advance until every loop is asleep on the clock again, and accepts
// a migration from either tick: what it asserts is where migrations made
// in a phase landed, not which tick made them.
func TestClusterZoneSpilloverUnderPartition(t *testing.T) {
	mc := clock.NewManual(time.Unix(0, 0))
	params := func(zone string) dcws.Params {
		p := zoneParams(zone)
		// Failed probes make the co-op suspect; declaring it down would
		// recall its documents and drop its table entry, a different path.
		p.MaxPingFailures = 100
		p.AntiEntropyInterval, p.SLOCheckInterval = -1, -1
		return p
	}
	c, err := New(Config{
		Clock: mc,
		Servers: []ServerSpec{
			{Host: "home", Port: 80, Site: zoneSite(), Params: params("east")},
			{Host: "east1", Port: 81, Params: params("east")},
			{Host: "west1", Port: 82, Params: params("west")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	home := c.Servers[0]
	client := httpx.NewClient(c.Dialer())

	loops := 3 * len(c.Servers) // statistics, pinger, validator on each
	advance := func(d time.Duration) {
		t.Helper()
		mc.Advance(d)
		for deadline := time.Now().Add(10 * time.Second); mc.Waiters() < loops; {
			if time.Now().After(deadline) {
				t.Fatalf("%d of %d maintenance loops back on the clock", mc.Waiters(), loops)
			}
			time.Sleep(time.Millisecond)
		}
	}
	advance(0)

	// Spread zone/capacity metadata before any placement decision.
	c.TickPingers()
	for addr, zone := range map[string]string{"east1:81": "east", "west1:82": "west"} {
		if e, ok := home.LoadTable().Get(addr); !ok || e.Zone != zone {
			t.Fatalf("home's entry for %s = %+v, want zone %s", addr, e, zone)
		}
	}

	// placements runs one load-then-stats round and returns where the
	// migrations it produced went.
	placements := func(phase string) []string {
		t.Helper()
		before := home.Graph().Migrated()
		for i := 1; i <= 8; i++ {
			if _, err := client.Get("home:80", fmt.Sprintf("/d%d.html", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		advance(8 * time.Second)
		home.TickStats()
		var locs []string
		for name, loc := range home.Graph().Migrated() {
			if before[name] != loc {
				locs = append(locs, loc)
			}
		}
		if len(locs) == 0 {
			t.Fatalf("%s: no new migration (have %d)", phase, len(before))
		}
		return locs
	}
	wantAll := func(phase, want string) {
		t.Helper()
		for _, loc := range placements(phase) {
			if loc != want {
				t.Fatalf("%s: a migration went to %s, want %s", phase, loc, want)
			}
		}
	}
	health := func() string { return home.Status().PeerHealth["east1:81"] }

	wantAll("baseline", "east1:81")

	// Cut the same-zone co-op off from everyone — were it only cut off from
	// the home, gossip relayed by west1 would keep its entry fresh and the
	// pinger, which probes stale entries only, would never try it. Its
	// entry goes stale, the probe fails, and placement spills over to the
	// healthy remote zone.
	c.Fabric().Partition(memnet.Wildcard, "east1:81")
	c.Fabric().ResetLink(memnet.Wildcard, "east1:81")
	advance(8 * time.Second)
	home.TickPinger()
	if h := health(); h != "suspect" {
		t.Fatalf("east1 health after failed probes = %q, want suspect", h)
	}
	wantAll("partitioned", "west1:82")

	// Heal. The entry is still stale, so the home's next probe goes out at
	// once — before any Advance lets east1's own pinger reach the home
	// first and freshen the entry — succeeds, and clears the suspicion;
	// placement returns to the local zone.
	c.Fabric().Heal(memnet.Wildcard, "east1:81")
	home.TickPinger()
	if h := health(); h != "ok" {
		t.Fatalf("east1 health after heal = %q, want ok", h)
	}
	wantAll("healed", "east1:81")
}

// TestCluster16NodeMigrationsLandByHeadroom boots a 16-node group with a
// 4x capacity spread (worker pools of 12 vs 3) and checks that the
// capacity-normalized placement sends every migration to the fast half of
// the co-op pool while it still has headroom.
func TestCluster16NodeMigrationsLandByHeadroom(t *testing.T) {
	mc := clock.NewManual(time.Unix(0, 0))
	specs := []ServerSpec{{Host: "home", Port: 80, Site: zoneSite(), Params: zoneParams("")}}
	fast := map[string]bool{}
	for i := 1; i < 16; i++ {
		p := zoneParams("")
		host := fmt.Sprintf("coop%02d", i)
		addr := fmt.Sprintf("%s:%d", host, 80+i)
		if i <= 7 {
			p.Workers = 12
			fast[addr] = true
		} else {
			p.Workers = 3
		}
		specs = append(specs, ServerSpec{Host: host, Port: 80 + i, Params: p})
	}
	c, err := New(Config{Clock: mc, Servers: specs})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	home := c.Servers[0]
	client := httpx.NewClient(c.Dialer())

	c.TickPingers()
	for round := 0; round < 6; round++ {
		for i := 1; i <= 8; i++ {
			if _, err := client.Get("home:80", fmt.Sprintf("/d%d.html", i), nil); err != nil {
				t.Fatal(err)
			}
		}
		mc.Advance(8 * time.Second)
		home.TickStats()
	}

	placed := home.Graph().Migrated()
	if len(placed) < 4 {
		t.Fatalf("only %d migrations in 6 rounds", len(placed))
	}
	onFast, onSlow := 0, 0
	for name, loc := range placed {
		if fast[loc] {
			onFast++
		} else {
			onSlow++
			t.Logf("migration %s -> %s landed on a slow node", name, loc)
		}
	}
	if onSlow > 0 {
		t.Fatalf("%d of %d migrations landed on 4x-slower nodes despite fast headroom (fast=%d)",
			onSlow, len(placed), onFast)
	}
}

package cluster

import (
	"fmt"
	"path/filepath"
	"testing"

	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/httpx"
	"dcws/internal/webclient"
)

// walCluster boots one LOD home server plus n-1 empty co-op servers, all
// with the durable tier enabled.
func walCluster(t *testing.T, n int, params dcws.Params) *Cluster {
	t.Helper()
	root := t.TempDir()
	specs := []ServerSpec{{
		Host: "home", Port: 80, Site: dataset.LOD(), Params: params,
		WALDir: filepath.Join(root, "home"),
	}}
	for i := 1; i < n; i++ {
		specs = append(specs, ServerSpec{
			Host: fmt.Sprintf("coop%02d", i), Port: 80 + i, Params: params,
			WALDir: filepath.Join(root, fmt.Sprintf("coop%02d", i)),
		})
	}
	c, err := New(Config{Servers: specs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// walk drives one full Algorithm 2 site traversal and fails the test on
// client-observed errors.
func walk(t *testing.T, c *Cluster, seed int64) *webclient.Stats {
	t.Helper()
	stats := &webclient.Stats{}
	cl, err := webclient.New(webclient.Config{
		Dialer:    c.Dialer(),
		EntryURLs: c.EntryURLs(),
		Seed:      seed,
		Stats:     stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.RunSequence(nil)
	return stats
}

// TestClusterCrashRecovery16Nodes is the acceptance scenario: a 16-node
// cluster with the durable tier on every node, documents migrated out
// under load, a co-op server killed without warning while the fabric
// carries injected faults — and after restart the node rejoins with its
// hosted documents still physically present and valid, before any
// revocation timer would fire, with zero home documents lost.
func TestClusterCrashRecovery16Nodes(t *testing.T) {
	c := walCluster(t, 16, dcws.Params{MigrationThreshold: 1})
	home := c.Servers[0]
	docsBefore := home.Graph().Len()
	if docsBefore == 0 {
		t.Fatal("home booted with no documents")
	}

	// Load the home server and let several statistics intervals migrate
	// documents across the co-ops; follow-up walks drive the lazy physical
	// fetches so co-ops end up with present copies.
	for round := 0; round < 6; round++ {
		for seed := int64(1); seed <= 4; seed++ {
			if st := walk(t, c, int64(round)*10+seed); st.Errors.Value() > 0 {
				t.Fatalf("client errors before crash: %s", st)
			}
		}
		c.TickStats()
	}
	if c.TotalMigrated() == 0 {
		t.Fatal("no documents migrated despite load imbalance")
	}
	victim := -1
	for i := 1; i < len(c.Servers); i++ {
		if c.Servers[i].CoopDocCount() > 0 {
			victim = i
			break
		}
	}
	if victim < 0 {
		t.Fatal("no co-op physically hosts a document")
	}
	victimAddr := c.Servers[victim].Addr()
	hostedBefore := c.Servers[victim].CoopDocCount()

	// Inject fabric faults around the crash: a flaky link between the home
	// and another co-op, and a total partition to the victim while it is
	// down (its listener is gone anyway; the partition models the switch
	// port going dark too).
	fab := c.Fabric()
	fab.SetSeed(42)
	fab.SetDialFailRate("home:80", c.Servers[2].Addr(), 0.3)
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	fab.Partition("home:80", victimAddr)

	// The home notices the victim failing probes but has not yet reached
	// MaxPingFailures: the revocation timer must not have fired when the
	// node comes back.
	for i := 0; i < dcws.DefaultParams().MaxPingFailures-1; i++ {
		c.TickPingers()
	}
	if n := len(home.Migrations().HostedBy(victimAddr)); n == 0 {
		t.Fatal("home already revoked the victim's documents before the timer expired")
	}

	fab.Heal("home:80", victimAddr)
	reborn, err := c.Restart(victim)
	if err != nil {
		t.Fatal(err)
	}
	info := reborn.Recovery()
	if !info.Recovered {
		t.Fatal("restarted node did not recover from its WAL")
	}
	if info.CoopRestored != hostedBefore {
		t.Fatalf("recovery restored %d of %d hosted documents", info.CoopRestored, hostedBefore)
	}
	if info.Seconds <= 0 || info.Seconds > 5 {
		t.Fatalf("recovery took %.3fs — not the seconds-scale rejoin the WAL promises", info.Seconds)
	}
	if reborn.CoopDocCount() != hostedBefore {
		t.Fatalf("reborn node hosts %d documents, want %d", reborn.CoopDocCount(), hostedBefore)
	}

	// The recovered copies serve without refetching from home.
	fetchesBefore := reborn.Stats().Fetches.Value()
	hc := httpx.NewClient(c.Dialer())
	for _, key := range reborn.Status().CoopHosted {
		resp, err := hc.Get(victimAddr, key, nil)
		if err != nil || resp.Status != 200 {
			t.Fatalf("recovered copy %s: %v, %v", key, resp, err)
		}
	}
	if got := reborn.Stats().Fetches.Value(); got != fetchesBefore {
		t.Fatalf("recovered copies refetched from home (%d fetches)", got-fetchesBefore)
	}

	// A probe round re-admits the peer; no revocation happened.
	c.TickPingers()
	if n := len(home.Migrations().HostedBy(victimAddr)); n == 0 {
		t.Fatal("migrations to the victim were revoked despite its fast rejoin")
	}

	// Zero lost home documents: the full site still walks clean with the
	// remaining fault healed.
	fab.HealAll()
	if home.Graph().Len() != docsBefore {
		t.Fatalf("home graph shrank: %d -> %d documents", docsBefore, home.Graph().Len())
	}
	if st := walk(t, c, 999); st.Errors.Value() > 0 {
		t.Fatalf("client errors after recovery: %s", st)
	}

	// Recovery time is exposed through the metrics registry.
	if v, _ := reborn.Telemetry().Value("dcws_recovery_last_seconds"); v <= 0 {
		t.Fatalf("dcws_recovery_last_seconds = %v, want > 0", v)
	}
	if v, _ := reborn.Telemetry().Value("dcws_wal_enabled"); v != 1 {
		t.Fatalf("dcws_wal_enabled = %v, want 1", v)
	}
}

// TestClusterCleanShutdownFastRestart: a clean Close writes a snapshot, so
// the next boot replays nothing.
func TestClusterCleanShutdownFastRestart(t *testing.T) {
	c := walCluster(t, 3, dcws.Params{MigrationThreshold: 1})
	for seed := int64(1); seed <= 3; seed++ {
		walk(t, c, seed)
	}
	c.TickStats()
	if err := c.Servers[0].Close(); err != nil {
		t.Fatal(err)
	}
	reborn, err := c.Restart(0)
	if err != nil {
		t.Fatal(err)
	}
	info := reborn.Recovery()
	if !info.Recovered || info.ReplayedRecs != 0 || info.SnapshotLSN == 0 {
		t.Fatalf("clean restart should load snapshot only: %+v", info)
	}
}

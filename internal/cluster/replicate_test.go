package cluster

import (
	"errors"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"dcws/internal/clock"
	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/httpx"
	"dcws/internal/resilience"
)

const hotKey = "/~migrate/home/80/hot.gif"

// hotLink finds the co-op a rewritten reference to the hot image points at.
var hotLink = regexp.MustCompile(`http://([^/"]+)` + regexp.QuoteMeta(hotKey))

// chainSite has one migratable document: an image embedded by two entry
// points. Entry points never migrate, so both referrers stay at home and
// their regenerated links can be read there.
func chainSite() *dataset.Site {
	img := []dataset.Link{{URL: "/hot.gif", Image: true}}
	return &dataset.Site{
		Name:        "chaintest",
		EntryPoints: []string{"/index.html", "/news.html"},
		Docs: []dataset.Doc{
			{Name: "/hot.gif", Size: 8192},
			{Name: "/index.html", Size: 2048, Links: img},
			{Name: "/news.html", Size: 2048, Links: img},
		},
	}
}

// TestClusterChainReplication drives a migrated image past the chain
// trigger on a four-node group and checks what the one-replica-per-tick
// path's tests used to check, of the chain: the replica set grows to
// HotReplicaCount and no further, referrers are re-dirtied so regenerated
// links rotate over the set, a suspect or stale peer is never chosen, and
// the set survives a crash through the WAL's replica records.
func TestClusterChainReplication(t *testing.T) {
	for _, tc := range []struct {
		name string
		// fault runs after the image is migrated to c1 and gossip has given
		// every entry a timestamp, before the image turns hot.
		fault   func(t *testing.T, c *Cluster, mc *clock.Manual)
		wantNew string // the replica the chain must add to c1
	}{
		{
			name:    "healthy peers: least loaded, ties by address",
			fault:   func(*testing.T, *Cluster, *clock.Manual) {},
			wantNew: "c2:82",
		},
		{
			name: "suspect peer skipped",
			fault: func(t *testing.T, c *Cluster, _ *clock.Manual) {
				// Five failed calls trip c2's breaker at the home.
				res := c.Servers[0].Resilience()
				for i := 0; i < 5; i++ {
					res.Execute(resilience.Policy{MaxAttempts: 1}, "c2:82",
						func() error { return errors.New("injected") })
				}
				if res.StateOf("c2:82") == resilience.Closed {
					t.Fatal("c2's breaker did not trip")
				}
			},
			wantNew: "c3:83",
		},
		{
			name: "stale peer skipped",
			fault: func(t *testing.T, c *Cluster, mc *clock.Manual) {
				// Nobody hears from c2 for longer than PlacementMaxStaleness,
				// and no pinger runs, so c2 is stale, not suspect. c3's fetch
				// (refused: it hosts nothing) carries its fresh entry home.
				for _, s := range c.Servers {
					if s.Addr() != "c2:82" {
						c.Fabric().Partition(s.Addr(), "c2:82")
					}
				}
				mc.Advance(30 * time.Second)
				if _, err := httpx.NewClient(c.Dialer()).Get("c3:83", hotKey, nil); err != nil {
					t.Fatal(err)
				}
			},
			wantNew: "c3:83",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc := clock.NewManual(time.Unix(0, 0))
			// The statistics and pinger loops never fire on their own (the
			// clock moves 30 s at most): every tick below is the test's.
			params := dcws.Params{
				RetryBaseDelay:        -1, // manual clock: a backoff sleep would never end
				StatsInterval:         time.Minute,
				PingerInterval:        time.Hour,
				HomeReMigrateInterval: time.Hour,
				PlacementMaxStaleness: 20 * time.Second,
				// Raw loads: measured capacities differ run to run, and would
				// decide between two idle co-ops at random.
				CapacitySmoothing: -1,
				HotReplicateRate:  0.1,
				HotReplicaCount:   2,
			}
			c, err := New(Config{
				Clock: mc,
				Servers: []ServerSpec{
					{Host: "home", Port: 80, Site: chainSite(), Params: params,
						WALDir: filepath.Join(t.TempDir(), "home")},
					{Host: "c1", Port: 81, Params: params},
					{Host: "c2", Port: 82, Params: params},
					{Host: "c3", Port: 83, Params: params},
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			home, c1 := c.Servers[0], c.Servers[1]
			client := httpx.NewClient(c.Dialer())
			get := func(addr, path string) *httpx.Response {
				t.Helper()
				resp, err := client.Get(addr, path, nil)
				if err != nil {
					t.Fatalf("GET %s%s: %v", addr, path, err)
				}
				return resp
			}
			// linkHosts reads both referrers at home and returns the co-op
			// each one's rewritten image reference points at.
			linkHosts := func() []string {
				t.Helper()
				var hosts []string
				for _, page := range []string{"/index.html", "/news.html"} {
					m := hotLink.FindSubmatch(get("home:80", page).Body)
					if m == nil {
						t.Fatalf("%s carries no rewritten link to the image", page)
					}
					hosts = append(hosts, string(m[1]))
				}
				return hosts
			}
			// heat serves the image 40 times at c1 (0.67 hits/s over the
			// one-minute window, 0.33 after the first EWMA step) and carries
			// the hot report home on c1's validation poll.
			heat := func() {
				t.Helper()
				for i := 0; i < 40; i++ {
					if resp := get("c1:81", hotKey); resp.Status != 200 {
						t.Fatalf("c1 serve = %d", resp.Status)
					}
				}
				c1.TickValidator()
				home.TickStats()
			}

			c.TickPingers() // every load entry gets a timestamp
			req := httpx.NewRequest("POST", "/~dcws/migrate")
			req.Header.Set("X-DCWS-Doc", "/hot.gif")
			req.Header.Set("X-DCWS-Fetch", "c1:81")
			if resp, err := client.Do("home:80", req); err != nil || resp.Status != 200 {
				t.Fatalf("operator migration: %v, %+v", err, resp)
			}
			if got := linkHosts(); !reflect.DeepEqual(got, []string{"c1:81", "c1:81"}) {
				t.Fatalf("links after migration = %v, want both at c1:81", got)
			}

			tc.fault(t, c, mc)
			heat()

			want := []string{"c1:81", tc.wantNew}
			if got := home.Replicas("/hot.gif"); !reflect.DeepEqual(got, want) {
				t.Fatalf("replicas = %v, want %v", got, want)
			}
			// Nothing touched the referrers but the chain: their links now
			// differ, one per replica.
			links := linkHosts()
			sort.Strings(links)
			if !reflect.DeepEqual(links, want) {
				t.Fatalf("regenerated links = %v, want one each of %v", links, want)
			}
			if resp := get(tc.wantNew, hotKey); resp.Status != 200 {
				t.Fatalf("new replica %s serves %d", tc.wantNew, resp.Status)
			}

			// Still hot, already at HotReplicaCount: no further growth.
			heat()
			if got := home.Replicas("/hot.gif"); !reflect.DeepEqual(got, want) {
				t.Fatalf("replicas after a second hot window = %v, want %v", got, want)
			}
			if pushes, _ := home.Telemetry().Value("dcws_replicate_pushes_total"); pushes != 1 {
				t.Fatalf("home pushed %v chains, want 1", pushes)
			}

			// kill -9 the home: the replica set comes back from the WAL.
			if err := c.Crash(0); err != nil {
				t.Fatal(err)
			}
			restarted, err := c.Restart(0)
			if err != nil {
				t.Fatal(err)
			}
			if got := restarted.Replicas("/hot.gif"); !reflect.DeepEqual(got, want) {
				t.Fatalf("replicas after crash recovery = %v, want %v", got, want)
			}
		})
	}
}

package dcws_test

import (
	"strings"
	"testing"
	"time"

	"dcws"
)

// TestFacadeQuickstart exercises the README quick-start path end to end
// through the public API only.
func TestFacadeQuickstart(t *testing.T) {
	st := dcws.NewMemStore()
	st.Put("/index.html", []byte(`<html><a href="/a.html">a</a></html>`))
	st.Put("/a.html", []byte(`<html>hello</html>`))
	fabric := dcws.NewFabric()
	srv, err := dcws.New(dcws.Config{
		Origin:      dcws.Origin{Host: "quick", Port: 80},
		Store:       st,
		Network:     fabric,
		EntryPoints: []string{"/index.html"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stats := &dcws.ClientStats{}
	cl, err := dcws.NewClient(dcws.ClientConfig{
		Dialer:    fabric, // *Fabric satisfies the Dialer interface
		EntryURLs: []string{"http://quick:80/index.html"},
		Seed:      1,
		Stats:     stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	body, _, ok := cl.Fetch("http://quick:80/index.html")
	if !ok || !strings.Contains(string(body), "a.html") {
		t.Fatalf("fetch via facade failed: %q %v", body, ok)
	}
	if n, _ := srv.Telemetry().Value("dcws_requests_total"); n == 0 {
		t.Fatal("server status shows no traffic")
	}
}

func TestFacadeCluster(t *testing.T) {
	c, err := dcws.NewCluster(dcws.ClusterConfig{
		Servers: []dcws.ServerSpec{
			{Host: "home", Port: 80, Site: dcws.LOD()},
			{Host: "coop", Port: 81},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if len(c.EntryURLs()) != 1 {
		t.Fatalf("entry URLs = %v", c.EntryURLs())
	}
	stats := &dcws.ClientStats{}
	cl, err := dcws.NewClient(dcws.ClientConfig{
		Dialer:    c.Dialer(),
		EntryURLs: c.EntryURLs(),
		Seed:      9,
		Stats:     stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	cl.RunSequence(nil)
	if stats.Connections.Value() == 0 {
		t.Fatalf("no traffic: %s", stats)
	}
}

func TestFacadeSimulate(t *testing.T) {
	res, err := dcws.Simulate(dcws.SimConfig{
		Site:     dcws.LOD(),
		Servers:  2,
		Clients:  8,
		Duration: 20 * time.Second,
		Seed:     3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Connections == 0 {
		t.Fatal("simulation produced no traffic")
	}
}

func TestFacadeDefaults(t *testing.T) {
	p := dcws.DefaultParams()
	if p.Workers != 12 || p.StatsInterval != 10*time.Second {
		t.Fatalf("defaults = %+v", p)
	}
	for _, name := range []string{"mapug", "sblog", "lod", "sequoia"} {
		if dcws.DatasetByName(name) == nil {
			t.Fatalf("DatasetByName(%q) = nil", name)
		}
	}
}

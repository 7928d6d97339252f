package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"

	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/naming"
	"dcws/internal/store"
	"dcws/internal/webclient"
)

// freePort reserves an ephemeral TCP port.
func freePort(t *testing.T) int {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP available: %v", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port
}

// TestRealTCPTwoNodeMigration runs the complete DCWS flow over the
// operating system's TCP stack: two dcwsd-equivalent servers, a forced
// migration, lazy fetch, link rewriting, and status inspection.
func TestRealTCPTwoNodeMigration(t *testing.T) {
	homePort := freePort(t)
	coopPort := freePort(t)
	homeAddr := fmt.Sprintf("127.0.0.1:%d", homePort)
	coopAddr := fmt.Sprintf("127.0.0.1:%d", coopPort)

	site := dataset.LOD()
	st := store.NewMem()
	if err := site.Materialize(st, 1.0); err != nil {
		t.Fatal(err)
	}
	params := dcws.Params{MigrationThreshold: 1}

	home, err := dcws.New(dcws.Config{
		Origin:      naming.Origin{Host: "127.0.0.1", Port: homePort},
		Store:       st,
		Network:     memnet.TCP{},
		EntryPoints: site.EntryPoints,
		Peers:       []string{coopAddr},
		Params:      params,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := home.Start(); err != nil {
		t.Skipf("cannot bind TCP: %v", err)
	}
	defer home.Close()

	coop, err := dcws.New(dcws.Config{
		Origin:  naming.Origin{Host: "127.0.0.1", Port: coopPort},
		Store:   store.NewMem(),
		Network: memnet.TCP{},
		Peers:   []string{homeAddr},
		Params:  params,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coop.Start(); err != nil {
		t.Skipf("cannot bind TCP: %v", err)
	}
	defer coop.Close()

	stats := &webclient.Stats{}
	cl, err := webclient.New(webclient.Config{
		Dialer:    httpx.DialerFunc(memnet.TCP{}.Dial),
		EntryURLs: []string{"http://" + homeAddr + "/index.html"},
		Seed:      11,
		Stats:     stats,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Drive real traffic, then trigger the migration decision.
	for i := 0; i < 3; i++ {
		cl.RunSequence(nil)
	}
	home.TickStats()
	migrated := home.Graph().Migrated()
	if len(migrated) == 0 {
		t.Fatal("no migration over real TCP")
	}
	// Every migrated document remains reachable end to end (fresh cache —
	// a new visitor).
	cl.ResetCache()
	for doc, loc := range migrated {
		if loc != coopAddr {
			t.Fatalf("doc %s migrated to %q, want %q", doc, loc, coopAddr)
		}
		body, finalURL, ok := cl.Fetch("http://" + homeAddr + doc)
		if !ok || len(body) == 0 {
			t.Fatalf("migrated doc %s unreachable", doc)
		}
		if !strings.Contains(finalURL, "~migrate") {
			t.Fatalf("doc %s not served via coop: %s", doc, finalURL)
		}
		break
	}
	// The status endpoint serves valid JSON over TCP.
	client := httpx.NewClient(httpx.DialerFunc(memnet.TCP{}.Dial))
	resp, err := client.Get(homeAddr, "/~dcws/status", nil)
	if err != nil || resp.Status != 200 {
		t.Fatalf("status endpoint: %v %v", err, resp)
	}
	var status dcws.Status
	if err := json.Unmarshal(resp.Body, &status); err != nil {
		t.Fatalf("status not JSON: %v\n%s", err, resp.Body)
	}
	if docs, _ := home.Telemetry().Value("dcws_documents"); docs != 349 {
		t.Fatalf("dcws_documents = %v, want 349 (LOD)", docs)
	}
	if len(status.MigratedOut) == 0 {
		t.Fatal("status shows no migrations")
	}
	if stats.Errors.Value() > 0 {
		t.Fatalf("client errors over TCP: %s", stats)
	}
}

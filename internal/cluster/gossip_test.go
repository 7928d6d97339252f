package cluster

import (
	"fmt"
	"testing"
	"time"

	"dcws/internal/clock"
	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/glt"
	"dcws/internal/memnet"
)

// TestClusterGossipConverges64UnderDrops is the live acceptance sweep: a
// 64-node cluster whose links to every fourth server drop 30% of dials
// must still converge every load table to every peer's freshest entry
// within a bounded number of anti-entropy rounds, while delta piggyback
// headers stay within the entry cap and under the 16-server full-table
// size.
func TestClusterGossipConverges64UnderDrops(t *testing.T) {
	const n = 64
	clk := clock.NewManual(time.Unix(2_000_000, 0))
	fabric := memnet.NewFabric()
	params := dcws.Params{
		Workers: 2,
		// Manual clock: a real backoff sleep would block forever.
		RetryBaseDelay: -1,
		// Drops are injected on purpose; failing probes must not get peers
		// declared down and removed from the tables under test.
		MaxPingFailures: 1 << 20,
	}
	specs := make([]ServerSpec, 0, n)
	specs = append(specs, ServerSpec{Host: "node00", Port: 80, Site: dataset.LOD(), Params: params})
	for i := 1; i < n; i++ {
		specs = append(specs, ServerSpec{Host: fmt.Sprintf("node%02d", i), Port: 80 + i, Params: params})
	}
	c, err := New(Config{Servers: specs, Clock: clk, Network: fabric})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// checkDialFaults consults {from,to}, {*,to}, {from,*} — never {*,*} —
	// so drops are declared per target: dials TO every fourth node fail 30%.
	for i := 0; i < n; i += 4 {
		fabric.SetDialFailRate(memnet.Wildcard, c.Servers[i].Addr(), 0.3)
	}

	// Churn: advance past the pinger staleness horizon so every probe round
	// exchanges delta piggybacks, with self-loads refreshed in between.
	defaults := dcws.DefaultParams()
	for round := 0; round < 4; round++ {
		clk.Advance(defaults.PingerInterval + time.Second)
		c.TickStats()
		c.TickPingers()
		c.TickAntiEntropy()
	}

	// Settle: the clock is frozen so self entries stop moving, and only the
	// anti-entropy safety net runs — drops stay active. Every table must
	// match every peer's own entry within a bounded number of rounds.
	converged := func() bool {
		for _, holder := range c.Servers {
			for _, subject := range c.Servers {
				if holder == subject {
					continue
				}
				own, ok := subject.LoadTable().Get(subject.Addr())
				if !ok {
					t.Fatalf("%s lost its own entry", subject.Addr())
				}
				got, ok := holder.LoadTable().Get(subject.Addr())
				if !ok || got.Load != own.Load || !got.Updated.Equal(own.Updated) {
					return false
				}
			}
		}
		return true
	}
	rounds := 0
	for ; !converged(); rounds++ {
		if rounds >= 25 {
			t.Fatalf("tables not converged after %d anti-entropy rounds", rounds)
		}
		c.TickAntiEntropy()
	}
	t.Logf("converged after %d settle anti-entropy rounds", rounds)

	// Bounded per-request overhead at cluster scale: a delta header from a
	// converged 64-node table carries at most the entry cap, and no more
	// bytes than a 16-server full-table header.
	maxEntries := dcws.MaxPiggybackEntries
	full16, _ := glt.HeaderSizes(16, maxEntries)
	for _, i := range []int{0, 1, n / 2, n - 1} {
		srv := c.Servers[i]
		peer := c.Servers[(i+1)%n].Addr()
		hdr := srv.LoadTable().EncodePiggybackTo(peer, clk.Now(), maxEntries, false)
		p := glt.DecodePiggyback(hdr)
		if len(p.Entries) > maxEntries {
			t.Fatalf("%s delta to %s carries %d entries, cap %d", srv.Addr(), peer, len(p.Entries), maxEntries)
		}
		if len(hdr) > full16 {
			t.Fatalf("%s delta header is %dB, above the 16-server full-table baseline %dB", srv.Addr(), len(hdr), full16)
		}
	}
}

package glt

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// gossipNet is an N-table cluster driven purely through the wire codec,
// with seeded random message drops — the table-level model of piggyback
// gossip under an unreliable network.
type gossipNet struct {
	tabs []*Table
	addr []string
	rng  *rand.Rand
	drop float64
	cap  int

	maxDeltaBytes   int
	maxDeltaEntries int
}

func newGossipNet(n int, seed int64, drop float64, cap_ int) *gossipNet {
	g := &gossipNet{rng: rand.New(rand.NewSource(seed)), drop: drop, cap: cap_}
	for i := 0; i < n; i++ {
		g.addr = append(g.addr, fmt.Sprintf("srv%03d.cluster:8080", i))
	}
	for i := 0; i < n; i++ {
		t := NewTable(g.addr[i])
		g.tabs = append(g.tabs, t)
	}
	return g
}

// exchange runs one request/response piggyback cycle from a to b, each
// leg dropped independently with probability drop, mirroring the live
// ordering: the request is encoded before b absorbs it, the response
// after.
func (g *gossipNet) exchange(a, b int, now time.Time, full bool) {
	hreq := g.tabs[a].EncodePiggybackTo(g.addr[b], now, g.cap, full)
	g.note(hreq, full)
	if g.rng.Float64() >= g.drop {
		g.tabs[b].Absorb(DecodePiggyback(hreq), now)
		hresp := g.tabs[b].EncodePiggybackTo(g.addr[a], now, g.cap, full)
		g.note(hresp, full)
		if g.rng.Float64() >= g.drop {
			g.tabs[a].Absorb(DecodePiggyback(hresp), now)
		}
	}
}

func (g *gossipNet) note(h string, full bool) {
	if full {
		return // anti-entropy payloads are O(cluster) by design
	}
	if len(h) > g.maxDeltaBytes {
		g.maxDeltaBytes = len(h)
	}
	if n := len(DecodeHeader(h)); n > g.maxDeltaEntries {
		g.maxDeltaEntries = n
	}
}

// round advances the cluster once: every server measures itself, runs
// delta exchanges with fanout random peers, and (when ae is true) one
// full anti-entropy exchange with a rotating partner.
func (g *gossipNet) round(r int, fanout int, ae bool, refresh bool) time.Time {
	now := time.UnixMilli(int64(1_000_000 + r*1000))
	n := len(g.tabs)
	for i := range g.tabs {
		if refresh {
			g.tabs[i].UpdateSelf(float64((i+r)%50)+0.5, now)
		}
		for k := 0; k < fanout; k++ {
			j := g.rng.Intn(n - 1)
			if j >= i {
				j++
			}
			g.exchange(i, j, now, false)
		}
		if ae {
			j := (i + 1 + r) % n
			if j != i {
				g.exchange(i, j, now, true)
			}
		}
	}
	return now
}

// converged reports the first pair (holder, subject) whose view of
// subject's load entry is not byte-identical to subject's own, or ok.
func (g *gossipNet) converged() (int, int, bool) {
	for j := range g.tabs {
		truth, _ := g.tabs[j].Get(g.addr[j])
		for i := range g.tabs {
			got, ok := g.tabs[i].Get(g.addr[j])
			if !ok || got != truth {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

func testGossipConvergence(t *testing.T, n, churnRounds, settleRounds int) {
	const drop = 0.3
	g := newGossipNet(n, int64(n)*7919, drop, 12)

	// Churn phase: loads keep changing while 30% of messages drop.
	for r := 0; r < churnRounds; r++ {
		g.round(r, 2, false, true)
	}
	// Settle phase: one final measurement per server, then the cluster
	// must converge on every server's freshest entry within one
	// anti-entropy sweep window — still dropping messages.
	g.round(churnRounds, 2, false, true)
	for r := 1; r <= settleRounds; r++ {
		g.round(churnRounds+r, 2, true, false)
		if _, _, ok := g.converged(); ok {
			t.Logf("n=%d converged after %d settle rounds (max delta: %d entries, %d bytes)",
				n, r, g.maxDeltaEntries, g.maxDeltaBytes)
			break
		}
	}
	if i, j, ok := g.converged(); !ok {
		truth, _ := g.tabs[j].Get(g.addr[j])
		got, _ := g.tabs[i].Get(g.addr[j])
		t.Fatalf("n=%d: %s never converged on %s: have %+v want %+v",
			n, g.addr[i], g.addr[j], got, truth)
	}

	// Delta headers must stay bounded by the cap, and — the scaling
	// headline — the biggest delta at this cluster size must not exceed
	// the full-table header of the paper's 16-server cluster.
	if g.maxDeltaEntries > 12 {
		t.Fatalf("delta carried %d entries, cap is 12", g.maxDeltaEntries)
	}
	full16, _ := HeaderSizes(16, 12)
	if g.maxDeltaBytes > full16 {
		t.Fatalf("max delta header %dB exceeds 16-server full-table header %dB", g.maxDeltaBytes, full16)
	}
}

func TestGossipConvergence64(t *testing.T)  { testGossipConvergence(t, 64, 6, 40) }
func TestGossipConvergence256(t *testing.T) { testGossipConvergence(t, 256, 4, 60) }

// TestConcurrentShardMerge hammers one table from many goroutines across
// every operation the serve and maintenance paths use — the -race soak
// for the sharded design.
func TestConcurrentShardMerge(t *testing.T) {
	tab := NewTable("self:80")
	const goroutines = 8
	const iters = 2000
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(gi)))
			for n := 0; n < iters; n++ {
				srv := fmt.Sprintf("srv%03d:80", rng.Intn(64))
				at := time.UnixMilli(int64(1_000_000 + n))
				switch n % 7 {
				case 0:
					tab.Observe(Entry{Server: srv, Load: rng.Float64() * 10, Updated: at})
				case 1:
					tab.Merge([]Entry{{Server: srv, Load: 1, Updated: at}, {Server: "x:80", Load: 2, Updated: at}})
				case 2:
					tab.Absorb(DecodePiggyback(tab.EncodePiggybackTo(srv, at, 12, false)), at)
				case 3:
					tab.Absorb(Piggyback{From: srv, Version: uint64(n), Ack: uint64(n % 100), HasAck: true,
						Entries: []Entry{{Server: srv, Load: 3, Updated: at}}}, at)
				case 4:
					tab.RefreshSelf(rng.Float64(), at, time.Second)
					_ = tab.EncodeClientHeader()
				case 5:
					_ = tab.EncodeHeader()
					_ = tab.Snapshot()
					_ = tab.RankedByHeadroom(nil, "")
				case 6:
					if n%70 == 6 {
						tab.Remove(srv)
					}
					_ = tab.GossipPeers()
					_ = tab.ShardSizes()
				}
			}
		}(gi)
	}
	wg.Wait()
	if !tab.Known("self:80") {
		t.Fatal("self entry lost under concurrent churn")
	}
	snap := tab.Snapshot()
	if len(snap) != tab.Len() {
		t.Fatalf("Snapshot len %d != Len %d after quiescence", len(snap), tab.Len())
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Server >= snap[i].Server {
			t.Fatal("Snapshot not sorted")
		}
	}
}

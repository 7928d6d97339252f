package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"dcws/internal/dcws"
	"dcws/internal/glt"
)

// gossipWorld builds an n-server world wired only for table gossip: the
// same simServer construction Run uses, without clients or document sites.
func gossipWorld(t *testing.T, n int) *World {
	t.Helper()
	w := &World{
		cfg:     Config{},
		params:  dcws.Params{}.WithDefaults(),
		cost:    DefaultCostModel(),
		now:     time.Unix(0, 0),
		servers: make(map[string]*simServer),
	}
	w.stopAt = w.now.Add(24 * time.Hour)
	for i := 0; i < n; i++ {
		addr := fmt.Sprintf("server%03d:80", i+1)
		w.servers[addr] = newSimServer(w, addr, w.params, w.cost)
		w.order = append(w.order, addr)
	}
	w.seedPeers()
	return w
}

// TestGossipSweepConverges64 is the simulator's cluster-scale sweep: 64
// servers exchanging capped delta piggybacks through the production wire
// codec must converge every table to every peer's freshest load entry
// within the anti-entropy schedule, and no delta header may ever carry
// more than MaxPiggybackEntries entries.
func TestGossipSweepConverges64(t *testing.T) {
	const n = 64
	w := gossipWorld(t, n)
	rng := rand.New(rand.NewSource(7))
	cap := dcws.MaxPiggybackEntries

	maxEntries := 0
	// Churn: every round each server refreshes its own load and runs two
	// random delta exchanges; every eighth round it also runs the
	// anti-entropy tick (full exchanges are O(cluster) by design, so they
	// are excluded from the delta bound).
	for round := 0; round < 40; round++ {
		w.now = w.now.Add(w.params.StatsInterval)
		for _, addr := range w.order {
			w.servers[addr].table.UpdateSelf(rng.Float64(), w.now)
		}
		for i, addr := range w.order {
			s := w.servers[addr]
			for k := 0; k < 2; k++ {
				peer := w.servers[w.order[rng.Intn(n)]]
				if peer == s {
					continue
				}
				exchangeTables(s, peer)
				for _, tbl := range []*glt.Table{s.table, peer.table} {
					if got := tbl.LastHeaderEntries(); got > maxEntries {
						maxEntries = got
					}
				}
			}
			if round%8 == 7 {
				_ = i
				s.antiEntropyTick()
			}
		}
	}
	if maxEntries > cap {
		t.Fatalf("a delta header carried %d entries, cap %d", maxEntries, cap)
	}

	// Quiesce: stop updating loads and let one full anti-entropy sweep
	// finish propagation, then every view must match the owner's own entry.
	for round := 0; round < 3; round++ {
		w.now = w.now.Add(w.params.AntiEntropyInterval)
		for _, addr := range w.order {
			w.servers[addr].antiEntropyTick()
		}
	}
	for _, holder := range w.order {
		ht := w.servers[holder].table
		for _, subject := range w.order {
			if subject == holder {
				continue
			}
			own, _ := w.servers[subject].table.Get(subject)
			got, ok := ht.Get(subject)
			if !ok {
				t.Fatalf("%s lost %s entirely", holder, subject)
			}
			if got.Load != own.Load || !got.Updated.Equal(own.Updated) {
				t.Fatalf("%s's view of %s = %+v, owner has %+v", holder, subject, got, own)
			}
		}
	}
}

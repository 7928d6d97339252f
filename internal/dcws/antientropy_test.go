package dcws

import (
	"testing"

	"dcws/internal/glt"
	"dcws/internal/telemetry"
)

// TestAntiEntropyExchangeRepairsTable drives one synchronous anti-entropy
// tick: the digest round over the ping path must teach the initiator
// entries it never saw in any delta (here a third server only the peer
// knows about), and both sides must record the exchange in their gossip
// state.
func TestAntiEntropyExchangeRepairsTable(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	coop := w.addServer("coop", 81, nil, nil, Params{})

	// Knowledge only the co-op holds: a relayed third-party load entry.
	ghost := glt.Entry{Server: "ghost:99", Load: 0.7, Updated: w.clock.Now()}
	coop.LoadTable().Observe(ghost)
	if _, ok := home.LoadTable().Get("ghost:99"); ok {
		t.Fatal("home already knows ghost:99")
	}

	home.TickAntiEntropy()

	got, ok := home.LoadTable().Get("ghost:99")
	if !ok || got.Load != 0.7 {
		t.Fatalf("after anti-entropy home's ghost:99 = %+v, %v", got, ok)
	}

	if shards := home.metric("dcws_glt_shards"); shards != glt.DefaultShards {
		t.Fatalf("shards = %v", shards)
	}
	if entries := home.metric("dcws_glt_entries"); entries != float64(home.LoadTable().Len()) || entries < 3 {
		t.Fatalf("entries = %v (table %d)", entries, home.LoadTable().Len())
	}
	if home.metric("dcws_glt_version") == 0 {
		t.Fatal("version = 0")
	}
	if rounds := home.metric("dcws_glt_anti_entropy_rounds_total"); rounds != 1 {
		t.Fatalf("anti-entropy rounds = %v", rounds)
	}
	if rounds := home.metric("dcws_glt_digest_rounds_total"); rounds != 1 {
		t.Fatalf("digest rounds = %v", rounds)
	}
	if full := home.metric("dcws_glt_emits_total", telemetry.Label{Key: "kind", Value: "full"}); full < 1 {
		t.Fatalf("full emits = %v", full)
	}
	toCoop := telemetry.Label{Key: "peer", Value: "coop:81"}
	if home.metric("dcws_glt_peer_last_full_seconds", toCoop) == 0 {
		t.Fatal("last_full not stamped after the digest round")
	}
	if home.metric("dcws_glt_peer_seen_version", toCoop) == 0 {
		t.Fatal("peer's advertised version not recorded")
	}

	// The responder answered the digests: its gossip state for home
	// carries the version it learned from home's header.
	if seen := coop.metric("dcws_glt_peer_seen_version", telemetry.Label{Key: "peer", Value: "home:80"}); seen == 0 {
		t.Fatalf("coop gossip row for home: seen = %v", seen)
	}
}

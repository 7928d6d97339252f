package dcws

import (
	"testing"
	"time"

	"dcws/internal/glt"
	"dcws/internal/telemetry"
)

// TestAntiEntropyExchangeRepairsTable drives one synchronous anti-entropy
// tick: a full-table ping exchange must teach the initiator entries it
// never saw in any delta (here a third server only the peer knows about),
// and both sides must record the full exchange in their gossip state.
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
	if full := home.metric("dcws_glt_emits_total", telemetry.Label{Key: "kind", Value: "full"}); full < 1 {
		t.Fatalf("full emits = %v", full)
	}
	toCoop := telemetry.Label{Key: "peer", Value: "coop:81"}
	if home.metric("dcws_glt_peer_last_full_seconds", toCoop) == 0 {
		t.Fatal("last_full not stamped after full exchange")
	}
	if home.metric("dcws_glt_peer_seen_version", toCoop) == 0 {
		t.Fatal("peer's advertised version not recorded")
	}

	// The responder saw the !g marker and answered full: its gossip state
	// for home carries the ack it learned from home's header.
	if seen := coop.metric("dcws_glt_peer_seen_version", telemetry.Label{Key: "peer", Value: "home:80"}); seen == 0 {
		t.Fatalf("coop gossip row for home: seen = %v", seen)
	}
}

// TestAdaptiveAntiEntropyCadence drives the aeSkip decision directly: the
// interval backs off (doubling, capped at 4x) while every peer's acked
// version is current, the full exchange is skipped during backoff, and
// any churn — here a suspect peer — snaps the cadence back to the floor
// and forces the next round.
func TestAdaptiveAntiEntropyCadence(t *testing.T) {
	w := newWorld(t)
	home := w.addServer("home", 80, siteAB(), []string{"/index.html"}, Params{})
	w.addServer("coop", 81, nil, nil, Params{})
	base := home.params.AntiEntropyInterval

	// First decision: the peer set is new (nil -> [coop]) — churn, forced.
	if home.aeSkip() {
		t.Fatal("first cadence decision skipped the round")
	}
	if forced := home.metric("dcws_glt_anti_entropy_forced_total"); forced != 1 {
		t.Fatalf("forced = %v, want 1", forced)
	}

	// A full exchange gets the peer's ack current.
	home.TickAntiEntropy()
	home.TickAntiEntropy()

	// Quiet rounds: skip and back off 2x, 4x, then stay capped at 4x.
	for i, want := range []time.Duration{2 * base, 4 * base, 4 * base} {
		if !home.aeSkip() {
			t.Fatalf("quiet round %d not skipped", i)
		}
		if got := home.metric("dcws_glt_anti_entropy_interval_seconds"); got != want.Seconds() {
			t.Fatalf("interval after quiet round %d = %vs, want %v", i, got, want)
		}
	}
	if skipped := home.metric("dcws_glt_anti_entropy_skipped_total"); skipped != 3 {
		t.Fatalf("skipped = %v, want 3", skipped)
	}

	// Churn: the peer starts failing probes; the cadence resets and the
	// round runs.
	home.peerMu.Lock()
	home.pingFail["coop:81"] = 1
	home.peerMu.Unlock()
	if home.aeSkip() {
		t.Fatal("churn round skipped")
	}
	if got := home.metric("dcws_glt_anti_entropy_interval_seconds"); got != base.Seconds() {
		t.Fatalf("interval after churn = %vs, want floor %v", got, base)
	}
	if forced := home.metric("dcws_glt_anti_entropy_forced_total"); forced != 2 {
		t.Fatalf("forced = %v, want 2", forced)
	}
}

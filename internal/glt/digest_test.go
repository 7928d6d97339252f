package glt

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// ---- capacity / zone wire format ----------------------------------------

func TestCapacityZoneRoundTrip(t *testing.T) {
	tab := NewTable("s1:80")
	tab.SetSelfInfo(120.5, "us-east")
	tab.UpdateSelf(0.25, at(10))
	tab.Observe(Entry{Server: "s2:80", Load: 0.5, Updated: at(9), Capacity: 30, Zone: "eu-west"})
	tab.Observe(Entry{Server: "s3:80", Load: 3, Updated: at(8)}) // legacy, no meta

	p := DecodePiggyback(tab.EncodeHeader())
	if len(p.Entries) != 3 {
		t.Fatalf("entries = %d, want 3: %+v", len(p.Entries), p.Entries)
	}
	byServer := map[string]Entry{}
	for _, e := range p.Entries {
		byServer[e.Server] = e
	}
	if e := byServer["s1:80"]; e.Capacity != 120.5 || e.Zone != "us-east" || e.Load != 0.25 {
		t.Fatalf("self entry lost meta: %+v", e)
	}
	if e := byServer["s2:80"]; e.Capacity != 30 || e.Zone != "eu-west" {
		t.Fatalf("s2 entry lost meta: %+v", e)
	}
	if e := byServer["s3:80"]; e.Capacity != 0 || e.Zone != "" || e.Load != 3 {
		t.Fatalf("legacy entry grew meta: %+v", e)
	}
}

func TestCapacityMetaDoesNotBreakLegacyEntryParse(t *testing.T) {
	// A legacy decoder sees the '!c' item as an unknown metadata key and
	// skips it; the plain entries around it must parse unchanged. The
	// modern decoder must not invent entries from unmatched meta either.
	h := "s1:80=0.25@10000,!c=s1:80@120.5@us-east,s2:80=3@8000,!c=ghost:80@5@z"
	entries := DecodeHeader(h)
	if len(entries) != 2 {
		t.Fatalf("entries = %+v, want s1 and s2 only", entries)
	}
	for _, e := range entries {
		switch e.Server {
		case "s1:80":
			if e.Load != 0.25 || e.Capacity != 120.5 || e.Zone != "us-east" {
				t.Fatalf("s1 = %+v", e)
			}
		case "s2:80":
			if e.Load != 3 || e.Capacity != 0 {
				t.Fatalf("s2 = %+v", e)
			}
		default:
			t.Fatalf("phantom entry %+v", e)
		}
	}
}

func TestSetSelfInfoAdvancesWireStamp(t *testing.T) {
	tab := NewTable("s1:80")
	tab.UpdateSelf(0.5, at(10))
	before, _ := tab.Get("s1:80")
	tab.SetSelfInfo(40, "z1")
	after, _ := tab.Get("s1:80")
	if !after.Updated.After(before.Updated) {
		t.Fatalf("stamp did not advance: %v -> %v", before.Updated, after.Updated)
	}
	if after.Capacity != 40 || after.Zone != "z1" || after.Load != 0.5 {
		t.Fatalf("self entry = %+v", after)
	}
	// Unchanged info is a no-op: no stamp churn, no version bump.
	v := tab.Version()
	tab.SetSelfInfo(40, "z1")
	again, _ := tab.Get("s1:80")
	if !again.Updated.Equal(after.Updated) || tab.Version() != v {
		t.Fatalf("no-op SetSelfInfo churned the entry")
	}
}

func TestSanitizedZoneSurvivesRoundTrip(t *testing.T) {
	tab := NewTable("s1:80")
	tab.SetSelfInfo(10, "rack a,=@1")
	tab.UpdateSelf(0.5, at(10))
	e, _ := tab.Get("s1:80")
	if e.Zone != "racka1" {
		t.Fatalf("stored zone = %q", e.Zone)
	}
	p := DecodePiggyback(tab.EncodeHeader())
	if len(p.Entries) != 1 || p.Entries[0].Zone != "racka1" {
		t.Fatalf("decoded = %+v", p.Entries)
	}
}

// ---- headroom / zone ranking --------------------------------------------

func TestRankedByHeadroom(t *testing.T) {
	self := map[string]bool{"self:80": true}
	for _, c := range []struct {
		name    string
		entries []Entry
		exclude map[string]bool
		want    []string
	}{
		{
			// big: 100 cap at 60% load -> headroom 40. small: 10 cap at 10%
			// load -> headroom 9. Raw-load ranking would pick small.
			name: "headroom beats raw load",
			entries: []Entry{
				{Server: "big:80", Load: 0.6, Updated: at(5), Capacity: 100},
				{Server: "small:80", Load: 0.1, Updated: at(5), Capacity: 10},
			},
			exclude: self,
			want:    []string{"big:80", "small:80"},
		},
		{
			// Capacity-less entries rank in the paper's ascending-load
			// order, ties broken by address.
			name: "no capacities: ascending load, ties by address",
			entries: []Entry{
				{Server: "c:80", Load: 3, Updated: at(5)},
				{Server: "a:80", Load: 1, Updated: at(5)},
				{Server: "b:80", Load: 1, Updated: at(5)},
			},
			exclude: self,
			want:    []string{"a:80", "b:80", "c:80"},
		},
		{
			name: "excluding the winner promotes the runner-up",
			entries: []Entry{
				{Server: "s2:80", Load: 20, Updated: at(1)},
				{Server: "s3:80", Load: 5, Updated: at(1)},
			},
			exclude: map[string]bool{"self:80": true, "s3:80": true},
			want:    []string{"s2:80"},
		},
		{
			name:    "everyone excluded",
			entries: []Entry{{Server: "s2:80", Load: 20, Updated: at(1)}},
			exclude: map[string]bool{"self:80": true, "s2:80": true},
		},
		{name: "empty table", exclude: self},
	} {
		tab := NewTable("self:80")
		for _, e := range c.entries {
			tab.Observe(e)
		}
		var got []string
		for _, e := range tab.RankedByHeadroom(c.exclude, "") {
			got = append(got, e.Server)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: ranked = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestRankedByHeadroomZoneFirst(t *testing.T) {
	tab := NewTable("self:80")
	tab.Observe(Entry{Server: "far-roomy:80", Load: 0.1, Updated: at(5), Capacity: 100, Zone: "z2"})
	tab.Observe(Entry{Server: "near-busy:80", Load: 0.8, Updated: at(5), Capacity: 10, Zone: "z1"})
	tab.Observe(Entry{Server: "near-ok:80", Load: 0.4, Updated: at(5), Capacity: 10, Zone: "z1"})
	ranked := tab.RankedByHeadroom(map[string]bool{"self:80": true}, "z1")
	want := []string{"near-ok:80", "near-busy:80", "far-roomy:80"}
	if len(ranked) != 3 {
		t.Fatalf("ranked = %+v", ranked)
	}
	for i, e := range ranked {
		if e.Server != want[i] {
			t.Fatalf("ranked[%d] = %q, want %q", i, e.Server, want[i])
		}
	}
	// Without a zone, pure headroom order puts the remote roomy box first.
	ranked = tab.RankedByHeadroom(map[string]bool{"self:80": true}, "")
	if ranked[0].Server != "far-roomy:80" {
		t.Fatalf("unzoned ranked[0] = %+v", ranked[0])
	}
}

// ---- digest wire format --------------------------------------------------

func TestDigestPlaceholderRoundTrip(t *testing.T) {
	p := DecodePiggyback("!f=a:80,!v=1,!d=-")
	if !p.HasDigests || len(p.Digests) != 0 {
		t.Fatalf("placeholder decode = %+v", p)
	}
	p = DecodePiggyback("!f=a:80,!v=1,!d=3.2.1a2b.deadbeef;7.1.0.1")
	if !p.HasDigests || len(p.Digests) != 2 {
		t.Fatalf("digest decode = %+v", p)
	}
	if d := p.Digests[0]; d.Shard != 3 || d.Count != 2 || d.MaxMs != 0x1a2b || d.Hash != 0xdeadbeef {
		t.Fatalf("digest[0] = %+v", d)
	}
}

func TestDigestRequestCarriesNoEntries(t *testing.T) {
	tab := seedSharded("a:80", 32)
	h := tab.EncodeDigestTo("b:80")
	p := DecodePiggyback(h)
	if len(p.Entries) != 0 {
		t.Fatalf("digest request carried entries: %+v", p.Entries)
	}
	if !p.HasDigests || len(p.Digests) == 0 || p.From != "a:80" {
		t.Fatalf("digest request = %+v", p)
	}
	if !strings.Contains(h, "!d=") {
		t.Fatalf("header missing !d item: %q", h)
	}
}

func TestDiffShardsBothDirections(t *testing.T) {
	a := seedSharded("a:80", 32)
	b := seedSharded("a:80", 32)
	if diff := a.DiffShards(b.Digests()); len(diff) != 0 {
		t.Fatalf("identical tables diverge: %v", diff)
	}
	// An entry only b has must surface as a divergence for a too.
	b.Observe(Entry{Server: "extra.cluster:80", Load: 1, Updated: benchBase.Add(time.Second)})
	if diff := a.DiffShards(b.Digests()); len(diff) != 1 {
		t.Fatalf("one-sided extra entry: diff = %v", diff)
	}
	if diff := b.DiffShards(a.Digests()); len(diff) != 1 {
		t.Fatalf("one-sided missing entry: diff = %v", diff)
	}
}

// TestDigestExchangeConverges runs the full three-leg push-pull protocol
// between two tables diverged in both directions and asserts they end up
// with identical stripe digests.
func TestDigestExchangeConverges(t *testing.T) {
	now := benchBase.Add(time.Minute)
	a := seedSharded(benchAddr(0), 64)
	b := seedSharded(benchAddr(1), 64)
	a.UpdateSelf(0.5, benchBase)
	b.UpdateSelf(1.5, benchBase)
	// b knows fresher facts about one server; a about another; and a
	// holds a server b has never heard of.
	b.Observe(Entry{Server: benchAddr(7), Load: 9.5, Updated: now})
	a.Observe(Entry{Server: benchAddr(11), Load: 8.5, Updated: now, Capacity: 44, Zone: "z1"})
	a.Observe(Entry{Server: "newcomer.cluster:80", Load: 0.5, Updated: now})

	req := a.EncodeDigestTo(b.Self())
	p := DecodePiggyback(req)
	b.Absorb(p, now)
	resp, diff := b.EncodeDigestResponse(a.Self(), p.Digests)
	if diff == 0 {
		t.Fatalf("responder saw no divergence")
	}
	rp := DecodePiggyback(resp)
	a.Absorb(rp, now)
	back := a.StillDiverged(rp.Digests)
	if len(back) == 0 {
		t.Fatalf("push-back leg empty; a's fresher facts would never reach b")
	}
	b.Absorb(DecodePiggyback(a.EncodeShardEntriesTo(b.Self(), back)), now)

	if d := a.DiffShards(b.Digests()); len(d) != 0 {
		t.Fatalf("tables still diverged after exchange: %v", d)
	}
	if e, ok := a.Get(benchAddr(7)); !ok || e.Load != 9.5 {
		t.Fatalf("a missed b's fresher entry: %+v", e)
	}
	if e, ok := b.Get(benchAddr(11)); !ok || e.Capacity != 44 || e.Zone != "z1" {
		t.Fatalf("b missed a's capacity meta: %+v", e)
	}
	if _, ok := b.Get("newcomer.cluster:80"); !ok {
		t.Fatalf("b missed a's new server")
	}
}

func TestDigestExchangeSkipsConvergedStripes(t *testing.T) {
	a := seedSharded(benchAddr(0), 64)
	b := seedSharded(benchAddr(1), 64)
	a.UpdateSelf(0.5, benchBase)
	b.UpdateSelf(1.5, benchBase)
	b.Observe(Entry{Server: benchAddr(9), Load: 20.5, Updated: benchBase.Add(time.Second)})

	p := DecodePiggyback(a.EncodeDigestTo(b.Self()))
	resp, diff := b.EncodeDigestResponse(a.Self(), p.Digests)
	if diff != 1 {
		t.Fatalf("diff = %d, want exactly the perturbed stripe", diff)
	}
	rp := DecodePiggyback(resp)
	// The response must carry only that stripe's entries, a small slice
	// of the 64-server table.
	if len(rp.Entries) == 0 || len(rp.Entries) >= 16 {
		t.Fatalf("response carried %d entries", len(rp.Entries))
	}
	found := false
	for _, e := range rp.Entries {
		if e.Server == benchAddr(9) && e.Load == 20.5 {
			found = true
		}
	}
	if !found {
		t.Fatalf("diverged entry missing from response: %+v", rp.Entries)
	}
}

func TestDigestAbsorbStampsAntiEntropy(t *testing.T) {
	now := benchBase.Add(time.Minute)
	tab := NewTable("a:80")
	tab.UpdateSelf(0.5, benchBase)
	p := Piggyback{From: "b:80", Version: 3, HasDigests: true}
	tab.Absorb(p, now)
	if got := tab.GossipPeers()["b:80"].LastFull; !got.Equal(now) {
		t.Fatalf("digest exchange did not stamp lastFull: %v", got)
	}
}

func TestDigestExchangeSizesGate(t *testing.T) {
	digestBytes, fullBytes, diverged := DigestExchangeSizes(64, 2)
	if diverged != 2 {
		t.Fatalf("diverged stripes = %d, want 2", diverged)
	}
	if digestBytes <= 0 || fullBytes <= 0 {
		t.Fatalf("sizes = %d, %d", digestBytes, fullBytes)
	}
	if digestBytes >= fullBytes {
		t.Fatalf("digest exchange (%dB) not smaller than full exchange (%dB)", digestBytes, fullBytes)
	}
}

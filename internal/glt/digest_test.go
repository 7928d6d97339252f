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
	tab.Observe(Entry{Server: "s2:80", Load: 0.5, Stamp: 9, Capacity: 30, Zone: "eu-west"})
	tab.Observe(Entry{Server: "s3:80", Load: 3, Stamp: 8}) // no capacity, no zone

	p := DecodePiggyback(encodeAll(tab))
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
		t.Fatalf("plain entry grew meta: %+v", e)
	}
}

// TestInlineEntryMeta: capacity and zone ride inside the entry, and an
// entry whose inline fields are malformed is skipped whole rather than
// half-read.
func TestInlineEntryMeta(t *testing.T) {
	h := "s1:80=0.25@10000@120.5@us-east,s2:80=3@8000,s3:80=1@9000@0@eu," +
		"bad1:80=1@2@3,bad2:80=1@2@3@z@5,bad3:80=1@2@NaN@z,bad4:80=1@2@-1@z," +
		"bad5:80=1@2@+Inf@z,bad6:80=1@2@5@a=b,bad7:80=1@2@5@a b"
	byServer := map[string]Entry{}
	for _, e := range entriesOf(h) {
		byServer[e.Server] = e
	}
	if len(byServer) != 3 {
		t.Fatalf("entries = %+v, want s1, s2 and s3 only", byServer)
	}
	if e := byServer["s1:80"]; e.Load != 0.25 || e.Capacity != 120.5 || e.Zone != "us-east" {
		t.Fatalf("s1 = %+v", e)
	}
	if e := byServer["s2:80"]; e.Load != 3 || e.Capacity != 0 || e.Zone != "" {
		t.Fatalf("s2 = %+v", e)
	}
	if e := byServer["s3:80"]; e.Capacity != 0 || e.Zone != "eu" {
		t.Fatalf("s3 = %+v", e)
	}
	// An entry without capacity or zone keeps the short form.
	tab := NewTable("s1:80")
	tab.UpdateSelf(2, at(10))
	if h := tab.EncodeClientHeader(); h != "s1:80=2@10000" {
		t.Fatalf("plain self entry encoded as %q", h)
	}
	tab.SetSelfInfo(0, "z")
	if h := tab.EncodeClientHeader(); !strings.HasSuffix(h, "@0@z") {
		t.Fatalf("zone-only self entry encoded as %q", h)
	}
}

func TestSetSelfInfoAdvancesWireStamp(t *testing.T) {
	tab := NewTable("s1:80")
	tab.UpdateSelf(0.5, at(10))
	before, _ := tab.Get("s1:80")
	tab.SetSelfInfo(40, "z1")
	after, _ := tab.Get("s1:80")
	if after.Stamp != before.Stamp+1 {
		t.Fatalf("stamp did not advance by one: %d -> %d", before.Stamp, after.Stamp)
	}
	if after.Capacity != 40 || after.Zone != "z1" || after.Load != 0.5 {
		t.Fatalf("self entry = %+v", after)
	}
	// Unchanged info is a no-op: no stamp churn, no version bump.
	v := tab.Version()
	tab.SetSelfInfo(40, "z1")
	again, _ := tab.Get("s1:80")
	if again != after || tab.Version() != v {
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
	p := DecodePiggyback(encodeAll(tab))
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
				{Server: "big:80", Load: 0.6, Stamp: 5, Capacity: 100},
				{Server: "small:80", Load: 0.1, Stamp: 5, Capacity: 10},
			},
			exclude: self,
			want:    []string{"big:80", "small:80"},
		},
		{
			// Capacity-less entries rank in the paper's ascending-load
			// order, ties broken by address.
			name: "no capacities: ascending load, ties by address",
			entries: []Entry{
				{Server: "c:80", Load: 3, Stamp: 5},
				{Server: "a:80", Load: 1, Stamp: 5},
				{Server: "b:80", Load: 1, Stamp: 5},
			},
			exclude: self,
			want:    []string{"a:80", "b:80", "c:80"},
		},
		{
			name: "excluding the winner promotes the runner-up",
			entries: []Entry{
				{Server: "s2:80", Load: 20, Stamp: 1},
				{Server: "s3:80", Load: 5, Stamp: 1},
			},
			exclude: map[string]bool{"self:80": true, "s3:80": true},
			want:    []string{"s2:80"},
		},
		{
			name:    "everyone excluded",
			entries: []Entry{{Server: "s2:80", Load: 20, Stamp: 1}},
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
	tab.Observe(Entry{Server: "far-roomy:80", Load: 0.1, Stamp: 5, Capacity: 100, Zone: "z2"})
	tab.Observe(Entry{Server: "near-busy:80", Load: 0.8, Stamp: 5, Capacity: 10, Zone: "z1"})
	tab.Observe(Entry{Server: "near-ok:80", Load: 0.4, Stamp: 5, Capacity: 10, Zone: "z1"})
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
	p = DecodePiggyback("!f=a:80,!v=1,!d=3.2.deadbeef;7.1.1;9.1.0.1")
	if !p.HasDigests || len(p.Digests) != 2 {
		t.Fatalf("digest decode = %+v (the four-field item must be skipped)", p)
	}
	if d := p.Digests[0]; d.Shard != 3 || d.Count != 2 || d.Hash != 0xdeadbeef {
		t.Fatalf("digest[0] = %+v", d)
	}
	if h := string(appendDigests(nil, p.Digests)); h != "!d=3.2.deadbeef;7.1.1" {
		t.Fatalf("digests re-encoded as %q", h)
	}
}

func TestDigestRequestCarriesNoEntries(t *testing.T) {
	tab := seedSharded("a:80", 32)
	h := tab.encodeDigestTo("b:80")
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
	b.Observe(Entry{Server: "extra.cluster:80", Load: 1, Stamp: benchBase.Add(time.Second).UnixMilli()})
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
	b.Observe(Entry{Server: benchAddr(7), Load: 9.5, Stamp: now.UnixMilli()})
	a.Observe(Entry{Server: benchAddr(11), Load: 8.5, Stamp: now.UnixMilli(), Capacity: 44, Zone: "z1"})
	a.Observe(Entry{Server: "newcomer.cluster:80", Load: 0.5, Stamp: now.UnixMilli()})

	req := a.encodeDigestTo(b.Self())
	p := DecodePiggyback(req)
	b.Absorb(p, now)
	resp, diff := b.Answer(p, liveDeltaCap)
	if diff == 0 {
		t.Fatalf("responder saw no divergence")
	}
	rp := DecodePiggyback(resp)
	a.Absorb(rp, now)
	back := a.stillDiverged(rp.Digests)
	if len(back) == 0 {
		t.Fatalf("push-back leg empty; a's fresher facts would never reach b")
	}
	b.Absorb(DecodePiggyback(a.encodeShardEntriesTo(b.Self(), back)), now)

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
	b.Observe(Entry{Server: benchAddr(9), Load: 20.5, Stamp: benchBase.Add(time.Second).UnixMilli()})

	p := DecodePiggyback(a.encodeDigestTo(b.Self()))
	resp, diff := b.Answer(p, liveDeltaCap)
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

// TestReconcile runs one Reconcile round from a to b, with b answering as
// the live handler does, over tables diverged in each way the safety net
// must repair.
func TestReconcile(t *testing.T) {
	now := benchBase.Add(time.Minute)
	fresh := func(addr string, load float64) Entry {
		return Entry{Server: addr, Load: load, Stamp: now.UnixMilli()}
	}
	// Two third-party servers in distinct stripes.
	probe := NewTable("")
	x, y := benchAddr(2), ""
	for i := 3; y == ""; i++ {
		if shardIndex(probe, benchAddr(i)) != shardIndex(probe, x) {
			y = benchAddr(i)
		}
	}
	for _, c := range []struct {
		name    string
		setup   func(a, b *Table)
		foreign bool // b answers with a plain delta, no digests
		legs    int
		pushed  int
		check   func(a, b *Table) bool
	}{
		{name: "converged", legs: 1},
		{
			name:  "requester behind",
			setup: func(a, b *Table) { b.Observe(fresh(x, 9.5)) },
			legs:  1,
			check: func(a, b *Table) bool { e, _ := a.Get(x); return e.Load == 9.5 },
		},
		{
			name:   "responder behind",
			setup:  func(a, b *Table) { a.Observe(fresh(x, 8.5)) },
			legs:   2,
			pushed: 1,
			check:  func(a, b *Table) bool { e, _ := b.Get(x); return e.Load == 8.5 },
		},
		{
			name:   "both behind in different stripes",
			setup:  func(a, b *Table) { a.Observe(fresh(x, 8.5)); b.Observe(fresh(y, 7.5)) },
			legs:   2,
			pushed: 1,
			check: func(a, b *Table) bool {
				ex, _ := b.Get(x)
				ey, _ := a.Get(y)
				return ex.Load == 8.5 && ey.Load == 7.5
			},
		},
		{
			name:    "reply without digests",
			setup:   func(a, b *Table) { a.Observe(fresh(x, 8.5)) },
			foreign: true,
			legs:    1,
		},
		{
			// The delta stream has drained (b acked everything a holds),
			// so only the digest round can restore an entry b lost.
			name: "entry no delta resends",
			setup: func(a, b *Table) {
				a.Observe(fresh(x, 8.5))
				b.Absorb(DecodePiggyback(a.EncodePiggybackTo(b.Self(), now, 0, false)), now)
				a.Absorb(DecodePiggyback(b.EncodePiggybackTo(a.Self(), now, 0, false)), now)
				b.Remove(x)
				if len(entriesOf(a.EncodePiggybackTo(b.Self(), now, 0, false))) != 0 {
					t.Fatal("precondition: delta should be drained")
				}
			},
			legs:   2,
			pushed: 1,
			check:  func(a, b *Table) bool { e, ok := b.Get(x); return ok && e.Load == 8.5 },
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			a := seedSharded(benchAddr(0), 16)
			b := seedSharded(benchAddr(1), 16)
			a.UpdateSelf(0.5, benchBase)
			b.UpdateSelf(1.5, benchBase)
			if c.setup != nil {
				c.setup(a, b)
			}
			legs := 0
			pushed, err := a.Reconcile(b.Self(), func(hdr string) (Piggyback, error) {
				legs++
				resp, _ := respond(b, hdr, now)
				if c.foreign {
					resp = b.EncodePiggybackTo(a.Self(), now, 12, false)
				}
				p := DecodePiggyback(resp)
				a.Absorb(p, now)
				return p, nil
			})
			if legs != c.legs || pushed != c.pushed {
				t.Fatalf("legs, pushed = %d, %d; want %d, %d", legs, pushed, c.legs, c.pushed)
			}
			if c.foreign {
				if err == nil {
					t.Fatal("a reply without digests was accepted")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if d := a.DiffShards(b.Digests()); len(d) != 0 {
				t.Fatalf("stripes %v still diverged", d)
			}
			if c.check != nil && !c.check(a, b) {
				t.Fatal("the diverged entry was not repaired")
			}
			if !a.GossipPeers()[b.Self()].LastFull.Equal(now) || !b.GossipPeers()[a.Self()].LastFull.Equal(now) {
				t.Fatal("the round did not stamp lastFull on both sides")
			}
		})
	}
}

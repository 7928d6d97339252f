package glt

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestDecodePiggybackMetadata(t *testing.T) {
	p := DecodePiggyback("!f=a:80,!v=42,!a=7,!d=3.2.ff,b:80=1.5@1000")
	if p.From != "a:80" || p.Version != 42 || !p.HasAck || p.Ack != 7 || !p.HasDigests ||
		len(p.Digests) != 1 || p.Digests[0] != (ShardDigest{Shard: 3, Count: 2, Hash: 0xff}) {
		t.Fatalf("metadata not decoded: %+v", p)
	}
	if len(p.Entries) != 1 || p.Entries[0].Server != "b:80" {
		t.Fatalf("entries not decoded alongside metadata: %+v", p.Entries)
	}
	// A client header decodes with zero metadata.
	p = DecodePiggyback("b:80=1.5@1000")
	if p.From != "" || p.HasAck || p.HasDigests || len(p.Entries) != 1 {
		t.Fatalf("client header grew metadata: %+v", p)
	}
}

func TestDeltaOmitsAckedEntries(t *testing.T) {
	a, b := NewTable("a:80"), NewTable("b:80")
	now := time.UnixMilli(1000)
	a.UpdateSelf(1, now)
	a.Observe(Entry{Server: "c:80", Load: 3, Stamp: 1000})

	// First exchange: b has acked nothing, so it gets everything.
	h1 := a.EncodePiggybackTo("b:80", now, 0, false)
	b.Absorb(DecodePiggyback(h1), now)
	if got := len(entriesOf(h1)); got != 2 {
		t.Fatalf("first delta carried %d entries (%q), want 2", got, h1)
	}
	// b's reply acks a's version; after a absorbs it, the next delta to
	// b is empty.
	a.Absorb(DecodePiggyback(b.EncodePiggybackTo("a:80", now, 0, false)), now)
	h2 := a.EncodePiggybackTo("b:80", now, 0, false)
	if got := len(entriesOf(h2)); got != 0 {
		t.Fatalf("post-ack delta carried %d entries (%q), want 0", got, h2)
	}
	// A new observation flows in the next delta, alone.
	a.Observe(Entry{Server: "d:80", Load: 4, Stamp: 2000})
	h3 := a.EncodePiggybackTo("b:80", now, 0, false)
	es := entriesOf(h3)
	if len(es) != 1 || es[0].Server != "d:80" {
		t.Fatalf("incremental delta = %q, want just d:80", h3)
	}
}

func TestDeltaCapAdvertisesOnlySentVersions(t *testing.T) {
	// When the cap truncates the delta, the advertised version must drop
	// to the last included entry so the peer cannot ack entries it never
	// received; the remainder must arrive in subsequent deltas.
	a, b := NewTable("a:80"), NewTable("b:80")
	now := time.UnixMilli(1000)
	for i := 0; i < 9; i++ {
		a.Observe(Entry{Server: fmt.Sprintf("s%02d:80", i), Load: float64(i), Stamp: 1000})
	}
	rounds := 0
	for ; rounds < 10; rounds++ {
		h := a.EncodePiggybackTo("b:80", now, 4, false)
		p := DecodePiggyback(h)
		if len(p.Entries) > 4 {
			t.Fatalf("delta exceeded cap: %d entries", len(p.Entries))
		}
		b.Absorb(p, now)
		a.Absorb(DecodePiggyback(b.EncodePiggybackTo("a:80", now, 4, false)), now)
		if len(entriesOf(a.EncodePiggybackTo("b:80", now, 4, false))) == 0 {
			break
		}
	}
	if rounds >= 10 {
		t.Fatal("capped delta never drained")
	}
	for i := 0; i < 9; i++ {
		if !b.Known(fmt.Sprintf("s%02d:80", i)) {
			t.Fatalf("entry s%02d:80 lost under capped delta", i)
		}
	}
}

func TestDeltaStalestFirst(t *testing.T) {
	a := NewTable("a:80")
	for i := 0; i < 6; i++ {
		a.Observe(Entry{Server: fmt.Sprintf("s%d:80", i), Load: 1, Stamp: int64(1000 + i)})
	}
	a.UpdateSelf(1, time.UnixMilli(2000))
	// Entries were written in order (self refreshed last), so the capped
	// delta must carry the earliest-written (stalest-known) ones first.
	p := DecodePiggyback(a.EncodePiggybackTo("b:80", time.UnixMilli(2000), 2, false))
	if len(p.Entries) != 2 || p.Entries[0].Server != "s0:80" || p.Entries[1].Server != "s1:80" {
		t.Fatalf("capped delta not stalest-first: %+v", p.Entries)
	}
}

func TestPeerRestartResetsGossip(t *testing.T) {
	now := time.UnixMilli(1000)
	a := NewTable("a:80")
	a.Observe(Entry{Server: "c:80", Load: 3, Stamp: 1000})
	b1 := NewTable("b:80")
	b1.Observe(Entry{Server: "d:80", Load: 1, Stamp: 1000})
	b1.Observe(Entry{Server: "e:80", Load: 1, Stamp: 1000})

	// Converge a <-> b1, then restart b as a fresh table.
	b1.Absorb(DecodePiggyback(a.EncodePiggybackTo("b:80", now, 0, false)), now)
	a.Absorb(DecodePiggyback(b1.EncodePiggybackTo("a:80", now, 0, false)), now)
	b2 := NewTable("b:80")
	// The restarted b advertises a tiny version and echoes no useful ack;
	// a must notice the regression and resend its table rather than
	// assuming b still holds everything it acked in its previous life.
	a.Absorb(DecodePiggyback(b2.EncodePiggybackTo("a:80", now, 0, false)), now)
	h := a.EncodePiggybackTo("b:80", now, 0, false)
	b2.Absorb(DecodePiggyback(h), now)
	if !b2.Known("c:80") {
		t.Fatalf("restarted peer never re-learned c:80 (header %q)", h)
	}
}

func TestAckFromPreviousLifeResets(t *testing.T) {
	// If WE restart, a peer may echo an ack far above our new version.
	// Trusting it would suppress every future delta below that mark.
	a := NewTable("a:80")
	now := time.UnixMilli(1000)
	a.UpdateSelf(1, now)
	a.Absorb(Piggyback{From: "b:80", Version: 9, Ack: 1 << 40, HasAck: true}, now)
	a.Observe(Entry{Server: "c:80", Load: 3, Stamp: 1000})
	h := a.EncodePiggybackTo("b:80", now, 0, false)
	if len(entriesOf(h)) == 0 {
		t.Fatalf("foreign-life ack suppressed the delta: %q", h)
	}
}

func TestClientHeaderSelfOnlyAndCached(t *testing.T) {
	tab := NewTable("a:80")
	now := time.UnixMilli(1000)
	tab.UpdateSelf(2.5, now)
	for i := 0; i < 100; i++ {
		tab.Observe(Entry{Server: fmt.Sprintf("s%03d:80", i), Load: 1, Stamp: 1000})
	}
	h := tab.EncodeClientHeader()
	es := entriesOf(h)
	if len(es) != 1 || es[0].Server != "a:80" || es[0].Load != 2.5 {
		t.Fatalf("client header = %q, want self entry only", h)
	}
	// Merging peer entries must not invalidate the client-header cache;
	// only a self change may.
	tab.Observe(Entry{Server: "zzz:80", Load: 9, Stamp: 2000})
	if h2 := tab.EncodeClientHeader(); h2 != h {
		t.Fatalf("client header churned on peer merge: %q -> %q", h, h2)
	}
	tab.UpdateSelf(3, now.Add(time.Second))
	if h3 := tab.EncodeClientHeader(); h3 == h {
		t.Fatal("client header did not follow a self update")
	}
}

func TestRemoveDropsGossipState(t *testing.T) {
	a := NewTable("a:80")
	now := time.UnixMilli(1000)
	a.Absorb(Piggyback{From: "b:80", Version: 5, Entries: []Entry{{Server: "b:80", Load: 1, Stamp: 1000}}}, now)
	if _, ok := a.GossipPeers()["b:80"]; !ok {
		t.Fatal("precondition: gossip state for b:80 missing")
	}
	a.Remove("b:80")
	if _, ok := a.GossipPeers()["b:80"]; ok {
		t.Fatal("Remove left gossip state behind")
	}
}

func TestShardSizesCoverTable(t *testing.T) {
	tab := NewTable("a:80")
	for i := 0; i < 63; i++ {
		tab.Observe(Entry{Server: fmt.Sprintf("s%03d:80", i), Load: 1, Stamp: 1000})
	}
	if tab.ShardCount() != DefaultShards {
		t.Fatalf("ShardCount = %d, want %d", tab.ShardCount(), DefaultShards)
	}
	total, nonEmpty := 0, 0
	for _, n := range tab.ShardSizes() {
		total += n
		if n > 0 {
			nonEmpty++
		}
	}
	if total != tab.Len() || total != 64 {
		t.Fatalf("shard sizes sum %d, Len %d, want 64", total, tab.Len())
	}
	// FNV should spread 64 addresses across most of 16 stripes.
	if nonEmpty < DefaultShards/2 {
		t.Fatalf("only %d of %d shards populated; hash is clumping", nonEmpty, DefaultShards)
	}
}

func TestEmitCountersByKind(t *testing.T) {
	tab := NewTable("a:80")
	now := time.UnixMilli(1000)
	tab.EncodeClientHeader()
	tab.EncodePiggybackTo("b:80", now, 0, false)
	tab.encodeDigestTo("b:80")
	if tab.ClientEmits() != 1 || tab.DeltaEmits() != 1 || tab.FullEmits() != 1 {
		t.Fatalf("emit counters client=%d delta=%d full=%d, want 1 each",
			tab.ClientEmits(), tab.DeltaEmits(), tab.FullEmits())
	}
	if tab.HeaderBytes() == 0 {
		t.Fatal("HeaderBytes not tracking emissions")
	}
}

func TestDeltaEncodingCached(t *testing.T) {
	tab := NewTable("a:80")
	now := time.UnixMilli(1000)
	tab.UpdateSelf(1, now)
	h1 := tab.EncodePiggybackTo("b:80", now, 8, false)
	before := tab.DeltaRegens()
	for i := 0; i < 5; i++ {
		if h := tab.EncodePiggybackTo("b:80", now, 8, false); h != h1 {
			t.Fatalf("unstable cached delta: %q vs %q", h, h1)
		}
	}
	if got := tab.DeltaRegens(); got != before {
		t.Fatalf("delta re-encoded %d times for an unchanged table", got-before)
	}
	tab.UpdateSelf(2, now.Add(time.Second))
	tab.EncodePiggybackTo("b:80", now, 8, false)
	if got := tab.DeltaRegens(); got != before+1 {
		t.Fatalf("delta regens after change = %d, want %d", got, before+1)
	}
}

func TestDecodePiggybackNeverPoisons(t *testing.T) {
	for _, v := range []string{
		"a:80=NaN@100", "a:80=+Inf@100", "a:80=Inf@100", "a:80=-1@100",
		"!f=bad addr,x=1@2", "!f=,", "!v=not-a-number,!a=-3",
	} {
		p := DecodePiggyback(v)
		for _, e := range p.Entries {
			if e.Load != e.Load || e.Load < 0 {
				t.Fatalf("decode of %q admitted poison load %v", v, e.Load)
			}
		}
		if strings.Contains(p.From, " ") {
			t.Fatalf("decode of %q admitted malformed sender %q", v, p.From)
		}
	}
}

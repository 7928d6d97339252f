package glt

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func at(sec int64) time.Time { return time.UnixMilli(sec * 1000) }

func TestUpdateSelfAndGet(t *testing.T) {
	tab := NewTable("s1:80")
	tab.UpdateSelf(42.5, at(10))
	e, ok := tab.Get("s1:80")
	if !ok || e.Load != 42.5 || e.Stamp != at(10).UnixMilli() || !e.Updated.Equal(at(10)) {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if tab.Self() != "s1:80" {
		t.Fatalf("Self = %q", tab.Self())
	}
}

func TestObserveHighestStampWins(t *testing.T) {
	tab := NewTable("s1:80")
	tab.Observe(Entry{Server: "s2:80", Load: 10, Stamp: 5})
	// A lower stamp loses even when its local receipt time is later.
	tab.Observe(Entry{Server: "s2:80", Load: 99, Stamp: 3, Updated: at(100)})
	e, _ := tab.Get("s2:80")
	if e.Load != 10 {
		t.Fatalf("stale entry overwrote fresh one: %+v", e)
	}
	tab.Observe(Entry{Server: "s2:80", Load: 7, Stamp: 8}) // fresher
	e, _ = tab.Get("s2:80")
	if e.Load != 7 {
		t.Fatalf("fresh entry ignored: %+v", e)
	}
}

func TestObserveEqualStampIgnored(t *testing.T) {
	tab := NewTable("s1:80")
	tab.Observe(Entry{Server: "s2:80", Load: 10, Stamp: 5})
	tab.Observe(Entry{Server: "s2:80", Load: 20, Stamp: 5})
	e, _ := tab.Get("s2:80")
	if e.Load != 10 {
		t.Fatalf("equal-stamp entry replaced original: %+v", e)
	}
}

func TestObserveEmptyServerIgnored(t *testing.T) {
	tab := NewTable("s1:80")
	tab.Observe(Entry{Server: "", Load: 5, Stamp: 1})
	if len(tab.Snapshot()) != 1 {
		t.Fatal("empty server name created an entry")
	}
}

func TestSelfEchoDoesNotRegress(t *testing.T) {
	tab := NewTable("s1:80")
	tab.UpdateSelf(50, at(10))
	before, _ := tab.Get("s1:80")
	// A peer echoes an old measurement of ourselves.
	tab.Observe(Entry{Server: "s1:80", Load: 5, Stamp: at(2).UnixMilli()})
	e, _ := tab.Get("s1:80")
	if e != before {
		t.Fatalf("peer echo regressed self entry: %+v", e)
	}
}

// An echo of the owner's entry at its own stamp but with other content
// (a relay holding an entry from before a restart that reused the stamp)
// is refuted: the owner keeps its load and jumps its stamp past the echo,
// so every relay prefers the owner's copy.
func TestEqualStampSelfEchoRefuted(t *testing.T) {
	tab := NewTable("s1:80")
	tab.UpdateSelf(50, at(10))
	own, _ := tab.Get("s1:80")
	v := tab.Version()
	tab.Observe(Entry{Server: "s1:80", Load: 5, Stamp: own.Stamp})
	e, _ := tab.Get("s1:80")
	if e.Load != 50 || e.Stamp != own.Stamp+1 || tab.Version() == v {
		t.Fatalf("equal-stamp echo not refuted: %+v (was %+v)", e, own)
	}
	// An exact echo of the owner's own entry is no news.
	v = tab.Version()
	tab.Observe(Entry{Server: "s1:80", Load: 50, Stamp: e.Stamp})
	if again, _ := tab.Get("s1:80"); again != e || tab.Version() != v {
		t.Fatalf("exact self echo churned the entry: %+v", again)
	}
	// A higher-stamped echo is jumped past too, and the next publication
	// continues from there rather than from the clock.
	tab.Observe(Entry{Server: "s1:80", Load: 50, Stamp: e.Stamp + 100})
	tab.UpdateSelf(60, at(10))
	if got, _ := tab.Get("s1:80"); got.Stamp != e.Stamp+102 || got.Load != 60 {
		t.Fatalf("stamp after refutation = %+v, want %d", got, e.Stamp+102)
	}
}

// A forged echo at the largest stamp the decoder accepts must neither
// wrap the owner's stamp negative nor panic. It can pin the relays' copy
// (a tie keeps the held entry), as a forged future timestamp could; the
// load table does not authenticate its senders.
func TestForgedTopStampSelfEchoSaturates(t *testing.T) {
	tab := NewTable("s1:80")
	tab.UpdateSelf(50, at(10))
	forged := DecodePiggyback(fmt.Sprintf("s1:80=9@%d", int64(math.MaxInt64)))
	if len(forged.Entries) != 1 {
		t.Fatalf("largest stamp rejected: %+v", forged)
	}
	tab.Absorb(forged, at(11))
	e, _ := tab.Get("s1:80")
	if e.Load != 50 || e.Stamp != math.MaxInt64 {
		t.Fatalf("after top-stamp echo: %+v", e)
	}
	v := tab.Version()
	tab.Absorb(forged, at(12))
	tab.UpdateSelf(70, at(13))
	e, _ = tab.Get("s1:80")
	if e.Load != 70 || e.Stamp != math.MaxInt64 || tab.Version() != v+1 {
		t.Fatalf("saturated stamp moved or churned: %+v (version %d -> %d)", e, v, tab.Version())
	}
}

func TestStaleServers(t *testing.T) {
	tab := NewTable("s1:80")
	tab.UpdateSelf(1, at(100))
	// Staleness reads the local receipt time, never the owner's stamp.
	tab.Absorb(Piggyback{Entries: []Entry{{Server: "s2:80", Load: 1, Stamp: 1}}}, at(115))
	tab.Absorb(Piggyback{Entries: []Entry{{Server: "s3:80", Load: 1, Stamp: at(1000).UnixMilli()}}}, at(10))
	stale := tab.StaleServers(at(130), 20*time.Second)
	if !reflect.DeepEqual(stale, []string{"s3:80"}) {
		t.Fatalf("stale = %v", stale)
	}
	// Self never reported stale even when old.
	stale = tab.StaleServers(at(1000), time.Second)
	for _, s := range stale {
		if s == "s1:80" {
			t.Fatal("self reported stale")
		}
	}
}

func TestRemove(t *testing.T) {
	tab := NewTable("s1:80")
	tab.Observe(Entry{Server: "s2:80", Load: 1, Stamp: 1})
	tab.Remove("s2:80")
	if _, ok := tab.Get("s2:80"); ok {
		t.Fatal("entry not removed")
	}
	tab.Remove("s1:80")
	if _, ok := tab.Get("s1:80"); !ok {
		t.Fatal("self entry removed")
	}
}

func TestServersSorted(t *testing.T) {
	tab := NewTable("zz:80")
	tab.Observe(Entry{Server: "aa:80", Load: 1, Stamp: 1})
	got := tab.Servers()
	if !reflect.DeepEqual(got, []string{"aa:80", "zz:80"}) {
		t.Fatalf("Servers = %v", got)
	}
}

// entriesOf decodes the load entries of a header value.
func entriesOf(v string) []Entry { return DecodePiggyback(v).Entries }

// encodeAll encodes every entry of the table: the delta to a peer that
// has acknowledged nothing.
func encodeAll(tab *Table) string {
	return tab.EncodePiggybackTo("unacked:0", time.Time{}, 0, false)
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tab := NewTable("s1:80")
	tab.UpdateSelf(12.5, at(1000))
	tab.Observe(Entry{Server: "s2:80", Load: 0, Stamp: 2000})
	tab.Observe(Entry{Server: "far.example.com:8080", Load: 1234.75, Stamp: 3000, Updated: at(1)})
	p := DecodePiggyback(encodeAll(tab))
	if len(p.Entries) != 3 {
		t.Fatalf("decoded %d entries: %v", len(p.Entries), p.Entries)
	}
	other := NewTable("s9:80")
	other.Absorb(p, at(5))
	e, ok := other.Get("far.example.com:8080")
	if !ok || e.Load != 1234.75 || e.Stamp != 3000 || !e.Updated.Equal(at(5)) {
		t.Fatalf("merged entry = %+v, %v", e, ok)
	}
}

func TestDecodeHeaderMalformed(t *testing.T) {
	cases := []string{
		"",
		"garbage",
		"a=b@c",
		"a=1.5",            // missing timestamp
		"=1@2",             // missing server
		"s=@2",             // missing load
		"s=1@",             // empty timestamp
		"s=-5@2",           // negative load
		"s=5@-2",           // negative stamp
		"s=1@2,t=2@3,bad,", // valid + invalid mixed
	}
	for _, v := range cases {
		got := entriesOf(v)
		for _, e := range got {
			if e.Server == "" || e.Load < 0 {
				t.Errorf("decoding %q produced invalid entry %+v", v, e)
			}
		}
	}
	if got := entriesOf("s=1@2,t=2@3,bad,"); len(got) != 2 {
		t.Fatalf("mixed decode = %v", got)
	}
}

// Property: merge is idempotent and order-insensitive (highest-stamp-wins
// CRDT).
func TestMergeCRDTProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{
				Server: string(rune('a'+rng.Intn(4))) + ":80",
				Load:   math.Trunc(rng.Float64() * 100),
				Stamp:  int64(rng.Intn(50)),
			}
		}
		merge := func(tab *Table, entries []Entry) {
			for _, e := range entries {
				tab.Observe(e)
			}
		}
		t1 := NewTable("me:1")
		merge(t1, entries)
		merge(t1, entries) // idempotent
		t2 := NewTable("me:1")
		shuffled := make([]Entry, n)
		copy(shuffled, entries)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		merge(t2, shuffled)
		s1, s2 := t1.Snapshot(), t2.Snapshot()
		if len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			// Equal-stamp conflicts may keep either load; compare server
			// and stamp.
			if s1[i].Server != s2[i].Server || s1[i].Stamp != s2[i].Stamp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: encode/decode round-trips every entry exactly.
func TestHeaderRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tab := NewTable("self:1")
		tab.UpdateSelf(rng.Float64()*1000, at(int64(rng.Intn(10000))))
		n := rng.Intn(8)
		for i := 0; i < n; i++ {
			tab.Observe(Entry{
				Server: string(rune('a'+i)) + ":80",
				Load:   rng.Float64() * 1e6,
				Stamp:  rng.Int63(),
			})
		}
		want := tab.Snapshot()
		got := entriesOf(encodeAll(tab))
		sort.Slice(got, func(i, j int) bool { return got[i].Server < got[j].Server })
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Server != want[i].Server ||
				got[i].Load != want[i].Load ||
				got[i].Stamp != want[i].Stamp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMergedCounter(t *testing.T) {
	tab := NewTable("a:80")
	now := time.Unix(1000, 0)
	tab.Observe(Entry{Server: "b:81", Load: 1, Stamp: 1, Updated: now})
	tab.Observe(Entry{Server: "b:81", Load: 1, Stamp: 1, Updated: now}) // stale: ignored
	tab.Observe(Entry{Server: "b:81", Load: 2, Stamp: 2, Updated: now.Add(time.Second)})
	tab.UpdateSelf(9, now) // self updates are not merges
	if got := tab.Merged(); got != 2 {
		t.Fatalf("Merged = %d, want 2", got)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if age := tab.OldestAge(now.Add(3 * time.Second)); age != 2*time.Second {
		t.Fatalf("OldestAge = %v, want 2s", age)
	}
}

package glt

import (
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
	if !ok || e.Load != 42.5 || !e.Updated.Equal(at(10)) {
		t.Fatalf("Get = %+v, %v", e, ok)
	}
	if tab.Self() != "s1:80" {
		t.Fatalf("Self = %q", tab.Self())
	}
}

func TestObserveFreshestWins(t *testing.T) {
	tab := NewTable("s1:80")
	tab.Observe(Entry{Server: "s2:80", Load: 10, Updated: at(5)})
	tab.Observe(Entry{Server: "s2:80", Load: 99, Updated: at(3)}) // stale
	e, _ := tab.Get("s2:80")
	if e.Load != 10 {
		t.Fatalf("stale entry overwrote fresh one: %+v", e)
	}
	tab.Observe(Entry{Server: "s2:80", Load: 7, Updated: at(8)}) // fresher
	e, _ = tab.Get("s2:80")
	if e.Load != 7 {
		t.Fatalf("fresh entry ignored: %+v", e)
	}
}

func TestObserveEqualTimestampIgnored(t *testing.T) {
	tab := NewTable("s1:80")
	tab.Observe(Entry{Server: "s2:80", Load: 10, Updated: at(5)})
	tab.Observe(Entry{Server: "s2:80", Load: 20, Updated: at(5)})
	e, _ := tab.Get("s2:80")
	if e.Load != 10 {
		t.Fatalf("equal-timestamp entry replaced original: %+v", e)
	}
}

func TestObserveEmptyServerIgnored(t *testing.T) {
	tab := NewTable("s1:80")
	tab.Observe(Entry{Server: "", Load: 5, Updated: at(1)})
	if len(tab.Snapshot()) != 1 {
		t.Fatal("empty server name created an entry")
	}
}

func TestSelfEchoDoesNotRegress(t *testing.T) {
	tab := NewTable("s1:80")
	tab.UpdateSelf(50, at(10))
	// A peer echoes an old measurement of ourselves.
	tab.Observe(Entry{Server: "s1:80", Load: 5, Updated: at(2)})
	e, _ := tab.Get("s1:80")
	if e.Load != 50 {
		t.Fatalf("peer echo regressed self entry: %+v", e)
	}
}

func TestStaleServers(t *testing.T) {
	tab := NewTable("s1:80")
	tab.UpdateSelf(1, at(100))
	tab.Observe(Entry{Server: "s2:80", Load: 1, Updated: at(115)})
	tab.Observe(Entry{Server: "s3:80", Load: 1, Updated: at(10)})
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
	tab.Observe(Entry{Server: "s2:80", Load: 1, Updated: at(1)})
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
	tab.Observe(Entry{Server: "aa:80", Load: 1, Updated: at(1)})
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
	tab.Observe(Entry{Server: "s2:80", Load: 0, Updated: at(2000)})
	tab.Observe(Entry{Server: "far.example.com:8080", Load: 1234.75, Updated: at(3000)})
	decoded := entriesOf(encodeAll(tab))
	if len(decoded) != 3 {
		t.Fatalf("decoded %d entries: %v", len(decoded), decoded)
	}
	other := NewTable("s9:80")
	other.Merge(decoded)
	e, ok := other.Get("far.example.com:8080")
	if !ok || e.Load != 1234.75 || !e.Updated.Equal(at(3000)) {
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

// Property: merge is idempotent and order-insensitive (freshest-wins CRDT).
func TestMergeCRDTProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = Entry{
				Server:  string(rune('a'+rng.Intn(4))) + ":80",
				Load:    math.Trunc(rng.Float64() * 100),
				Updated: at(int64(rng.Intn(50))),
			}
		}
		t1 := NewTable("me:1")
		t1.Merge(entries)
		t1.Merge(entries) // idempotent
		t2 := NewTable("me:1")
		shuffled := make([]Entry, n)
		copy(shuffled, entries)
		rng.Shuffle(n, func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		t2.Merge(shuffled)
		s1, s2 := t1.Snapshot(), t2.Snapshot()
		if len(s1) != len(s2) {
			return false
		}
		for i := range s1 {
			// Equal-timestamp conflicts may keep either load; compare
			// server and timestamp, and load only when timestamps are
			// unique within the input.
			if s1[i].Server != s2[i].Server || !s1[i].Updated.Equal(s2[i].Updated) {
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
				Server:  string(rune('a'+i)) + ":80",
				Load:    rng.Float64() * 1e6,
				Updated: at(int64(rng.Intn(10000))),
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
				!got[i].Updated.Equal(want[i].Updated) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRefreshSelfThrottles(t *testing.T) {
	tab := NewTable("a:80")
	now := time.Unix(1000, 0)
	if !tab.RefreshSelf(2, now, time.Second) {
		t.Fatal("first refresh must apply")
	}
	// Same load, within maxAge: no change, header cache stays valid.
	if tab.RefreshSelf(2, now.Add(100*time.Millisecond), time.Second) {
		t.Fatal("throttled refresh applied")
	}
	e, _ := tab.Get("a:80")
	if !e.Updated.Equal(now) {
		t.Fatalf("Updated moved forward under throttle: %v", e.Updated)
	}
	// Changed load applies immediately even within maxAge.
	if !tab.RefreshSelf(3, now.Add(200*time.Millisecond), time.Second) {
		t.Fatal("load change suppressed")
	}
	// Old load but maxAge elapsed: timestamp refresh applies.
	if !tab.RefreshSelf(3, now.Add(2*time.Second), time.Second) {
		t.Fatal("aged entry not refreshed")
	}
	// maxAge <= 0 forces the update.
	if !tab.RefreshSelf(3, now.Add(2*time.Second), 0) {
		t.Fatal("forced refresh suppressed")
	}
}

func TestMergedCounter(t *testing.T) {
	tab := NewTable("a:80")
	now := time.Unix(1000, 0)
	tab.Observe(Entry{Server: "b:81", Load: 1, Updated: now})
	tab.Observe(Entry{Server: "b:81", Load: 1, Updated: now}) // stale: ignored
	tab.Observe(Entry{Server: "b:81", Load: 2, Updated: now.Add(time.Second)})
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

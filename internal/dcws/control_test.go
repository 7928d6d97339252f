package dcws

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"dcws/internal/glt"
	"dcws/internal/policy"
)

// fakePlant is a recording Plant: no server, no fabric, no event queue. It
// applies each effect to its own placement state the way a real plant
// does (ledger, replica sets), so multi-tick scenarios evolve, and logs
// the effect as one line.
type fakePlant struct {
	ctl      *Controller
	now      time.Time
	docs     []DocStat
	replicas map[string][]string
	unusable map[string]bool
	// chainRoom, when set, is how many more chain pushes each peer can take
	// before it turns unusable — the "one target left" scenario.
	chainRoom map[string]int
	log       []string
}

func (p *fakePlant) Docs() []DocStat {
	out := append([]DocStat(nil), p.docs...)
	for i := range out {
		if reps := p.replicas[out[i].Name]; len(reps) > 0 {
			out[i].Location = reps[0]
		}
	}
	return out
}
func (p *fakePlant) Replicas(doc string) []string { return p.replicas[doc] }
func (p *fakePlant) Usable(e glt.Entry) bool      { return !p.unusable[e.Server] }

func (p *fakePlant) Migrate(doc, coop string) {
	p.log = append(p.log, fmt.Sprintf("migrate %s -> %s", doc, coop))
	p.replicas[doc] = []string{coop}
	p.ctl.Ledger.Record(doc, coop, p.now)
}

func (p *fakePlant) ChainReplicate(doc string, chain []string) {
	p.log = append(p.log, fmt.Sprintf("chain %s -> %v", doc, chain))
	if len(p.replicas[doc]) == 0 {
		p.ctl.Ledger.Record(doc, chain[0], p.now)
	}
	p.replicas[doc] = append(append([]string(nil), p.replicas[doc]...), chain...)
	for _, link := range chain {
		if room, ok := p.chainRoom[link]; ok {
			p.chainRoom[link] = room - 1
			p.unusable[link] = room <= 1
		}
	}
}

func (p *fakePlant) Shrink(doc string, keep int) {
	p.log = append(p.log, fmt.Sprintf("shrink %s %d", doc, keep))
	p.replicas[doc] = p.replicas[doc][:keep]
}

func (p *fakePlant) Revoke(doc string) {
	p.log = append(p.log, "revoke "+doc)
	delete(p.replicas, doc)
	p.ctl.Forget(doc)
}

// controlStep is one statistics tick of a scenario: what changes before
// it, the load the server reports, and the effects the tick must have.
type controlStep struct {
	after time.Duration    // clock advance before the tick
	prep  func(*fakePlant) // mutate plant, table or hints first
	load  float64
	want  []string           // effects, in order
	rates map[string]float64 // serve-rate EWMAs the tick must leave
}

func peer(addr string, load float64, zone string) glt.Entry {
	return glt.Entry{Server: addr, Load: load, Zone: zone}
}

func hits(doc string, n int64) DocStat { return DocStat{Name: doc, WindowHits: n, Size: 4096} }

func report(doc string, n int64) func(*fakePlant) {
	return func(p *fakePlant) { p.ctl.AbsorbHot(map[string]int64{doc: n}) }
}

func setUsable(addr string, ok bool) func(*fakePlant) {
	return func(p *fakePlant) { p.unusable[addr] = !ok }
}

func rate(doc string, ewma float64) map[string]float64 { return map[string]float64{doc: ewma} }

// TestControllerDecisions drives the control core against the recording
// plant, one scenario per rule. The three cases marked "drift" are the
// behaviours the simulator's hand-written copy of this policy had got
// wrong; they are pinned here where both drivers now get them from.
func TestControllerDecisions(t *testing.T) {
	// Table 1 pacing (T_st 10 s, T_coop 60 s, T_home 300 s); replication
	// off unless a scenario switches it on.
	base := Params{MigrationThreshold: 1, HotReplicateRate: -1}
	chain := func(rate float64, k int) Params {
		p := base
		p.HotReplicateRate, p.HotReplicaCount = rate, k
		return p
	}
	zoned := base
	zoned.Zone = "east"

	cases := []struct {
		name   string
		params Params
		docs   []DocStat
		peers  []glt.Entry
		placed map[string][]string // replica sets at the start, recorded at t0
		room   map[string]int
		steps  []controlStep
	}{
		{
			name:  "trigger not met: nothing moves",
			docs:  []DocStat{hits("/x.html", 50)},
			peers: []glt.Entry{peer("a:80", 10, "")},
			steps: []controlStep{
				{load: 12}, // 12 <= 10 x 1.2
				{load: 0},  // an idle server never migrates
				{load: 12.5, want: []string{"migrate /x.html -> a:80"}}, // busier by the ratio
			},
		},
		{
			name:  "unusable peer skipped",
			docs:  []DocStat{hits("/x.html", 50)},
			peers: []glt.Entry{peer("a:80", 0, ""), peer("b:80", 5, "")},
			steps: []controlStep{
				{prep: setUsable("a:80", false), load: 100, want: []string{"migrate /x.html -> b:80"}},
			},
		},
		{
			name:  "rate gates: one per T_st out, one per T_coop in",
			docs:  []DocStat{hits("/x.html", 50), hits("/y.html", 40), hits("/z.html", 30)},
			peers: []glt.Entry{peer("a:80", 0, ""), peer("b:80", 5, "")},
			steps: []controlStep{
				{load: 100, want: []string{"migrate /x.html -> a:80"}},
				{after: 5 * time.Second, load: 100},                                             // home gate shut
				{after: 5 * time.Second, load: 100, want: []string{"migrate /y.html -> b:80"}},  // a gated, b open
				{after: 10 * time.Second, load: 100},                                            // both co-ops gated
				{after: 40 * time.Second, load: 100, want: []string{"migrate /z.html -> a:80"}}, // a's T_coop passed
			},
		},
		{
			name:   "zone: local first, spill when it is unusable, return when it heals",
			params: zoned,
			docs:   []DocStat{hits("/1.html", 9), hits("/2.html", 8), hits("/3.html", 7)},
			peers:  []glt.Entry{peer("east1:80", 5, "east"), peer("west1:80", 0, "west")},
			steps: []controlStep{
				{load: 100, want: []string{"migrate /1.html -> east1:80"}},
				{after: 70 * time.Second, prep: setUsable("east1:80", false), load: 100,
					want: []string{"migrate /2.html -> west1:80"}},
				{after: 70 * time.Second, prep: setUsable("east1:80", true), load: 100,
					want: []string{"migrate /3.html -> east1:80"}},
			},
		},
		{
			name:   "entry points neither migrate nor replicate",
			params: chain(1, 2),
			docs:   []DocStat{{Name: "/index.html", WindowHits: 5000, Size: 1 << 20, EntryPoint: true}},
			peers:  []glt.Entry{peer("a:80", 0, ""), peer("b:80", 0, "")},
			steps:  []controlStep{{load: 100}, {after: 10 * time.Second, load: 100}},
		},
		{
			name:   "chain grows to HotReplicaCount and no further",
			params: chain(1, 3),
			docs:   []DocStat{hits("/hot.html", 100), hits("/moved.html", 100)},
			peers:  []glt.Entry{peer("a:80", 0, ""), peer("b:80", 1, ""), peer("c:80", 2, ""), peer("d:80", 3, "")},
			placed: map[string][]string{"/moved.html": {"d:80"}},
			steps: []controlStep{
				// Equal EWMAs tie-break by name; /moved.html keeps its primary.
				{load: 100, want: []string{"chain /hot.html -> [a:80 b:80 c:80]", "chain /moved.html -> [a:80 b:80]"}},
				{after: 10 * time.Second, load: 100},
			},
		},
		{
			name:   "drift 2: the hottest document gets the chain when one target is left",
			params: chain(1, 2),
			docs:   []DocStat{hits("/a-warm.html", 30), hits("/z-hot.html", 90)},
			peers:  []glt.Entry{peer("only:80", 0, "")},
			room:   map[string]int{"only:80": 1},
			steps: []controlStep{
				{load: 100, want: []string{"chain /z-hot.html -> [only:80]"}},
			},
		},
		{
			name:   "drift 1: hints are gone after the tick that read them",
			params: chain(100, 2),
			docs:   []DocStat{hits("/page.html", 0)},
			peers:  []glt.Entry{peer("a:80", 0, ""), peer("b:80", 0, "")},
			placed: map[string][]string{"/page.html": {"a:80"}},
			steps: []controlStep{
				// 1000 hits / 10 s = 100/s, folded at weight one half.
				{prep: report("/page.html", 1000), load: 1, rates: rate("/page.html", 50)},
				// No new report: the rate decays; a hint kept past its window
				// would pull it up to 75, then past the trigger.
				{after: 10 * time.Second, load: 1, rates: rate("/page.html", 25)},
				{after: 10 * time.Second, load: 1, rates: rate("/page.html", 12.5)},
			},
		},
		{
			name:   "drift 3: at T_home a hot chain is kept, a warm one shrinks, then loads decide",
			params: chain(10, 3),
			docs:   []DocStat{hits("/hot.html", 0)},
			peers:  []glt.Entry{peer("a:80", 100, ""), peer("b:80", 100, ""), peer("c:80", 100, "")},
			placed: map[string][]string{"/hot.html": {"a:80", "b:80", "c:80"}},
			steps: []controlStep{
				{prep: report("/hot.html", 400), load: 1, rates: rate("/hot.html", 20)},
				// Past T_home with the primary 100x busier than home: the
				// chain still earns its keep while the EWMA is over the trigger.
				{after: 301 * time.Second, load: 1, rates: rate("/hot.html", 10)},
				{after: 10 * time.Second, load: 1, rates: rate("/hot.html", 5)},
				{after: 10 * time.Second, load: 1, want: []string{"shrink /hot.html 2"}},
				{after: 10 * time.Second, load: 1, want: []string{"revoke /hot.html"}},
			},
		},
		{
			name:   "T_home, cold chain: revoked only once the co-op is busier by the ratio",
			params: chain(10, 3),
			docs:   []DocStat{hits("/cold.html", 0)},
			peers:  []glt.Entry{peer("a:80", 12, ""), peer("b:80", 50, ""), peer("c:80", 50, "")},
			placed: map[string][]string{"/cold.html": {"a:80", "b:80", "c:80"}},
			steps: []controlStep{
				{after: 299 * time.Second, load: 1}, // not expired yet
				{after: 2 * time.Second, load: 10},  // 12 <= 10 x 1.2
				{after: 10 * time.Second, load: 9.9, want: []string{"revoke /cold.html"}},
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			now := time.Unix(1000, 0)
			params := c.params
			if params == (Params{}) {
				params = base
			}
			params = params.WithDefaults()
			plant := &fakePlant{now: now, docs: c.docs, replicas: map[string][]string{},
				unusable: map[string]bool{}, chainRoom: c.room}
			ctl := &Controller{
				Self:   "home:80",
				Params: params,
				Plant:  plant,
				Table:  glt.NewTable("home:80"),
				Ledger: policy.NewLedger(),
				Gate:   policy.NewRateGate(params.StatsInterval, params.CoopMigrateInterval),
			}
			plant.ctl = ctl
			for _, e := range c.peers {
				ctl.Table.Observe(e)
			}
			for doc, reps := range c.placed {
				plant.replicas[doc] = reps
				ctl.Ledger.Record(doc, reps[0], now)
			}
			for i, st := range c.steps {
				now = now.Add(st.after)
				plant.now, plant.log = now, nil
				if st.prep != nil {
					st.prep(plant)
				}
				ctl.Tick(now, st.load)
				if !reflect.DeepEqual(plant.log, st.want) {
					t.Fatalf("tick %d: effects %q, want %q", i, plant.log, st.want)
				}
				for doc, want := range st.rates {
					if got := ctl.HotRate(doc); got != want {
						t.Fatalf("tick %d: HotRate(%s) = %v, want %v", i, doc, got, want)
					}
				}
			}
		})
	}
}

// TestControllerPlacementAndPeerChoice covers the two decisions made
// outside the tick: the operator's "auto" placement and the anti-entropy
// peer.
func TestControllerPlacementAndPeerChoice(t *testing.T) {
	now := time.Unix(1000, 0)
	plant := &fakePlant{replicas: map[string][]string{}, unusable: map[string]bool{}}
	tab := glt.NewTable("home:80")
	ctl := &Controller{Self: "home:80", Params: Params{}.WithDefaults(), Plant: plant, Table: tab,
		Ledger: policy.NewLedger(), Gate: policy.NewRateGate(time.Second, time.Second)}
	if got := ctl.PickPlacement(); got != "" {
		t.Fatalf("placement with no peers = %q", got)
	}
	if got := ctl.AntiEntropyPeer(); got != "" {
		t.Fatalf("anti-entropy peer with no peers = %q", got)
	}
	for _, e := range []glt.Entry{peer("a:80", 9, ""), peer("b:80", 3, ""), peer("c:80", 6, "")} {
		tab.Observe(e)
	}
	// Placement ignores the imbalance trigger: least loaded usable peer.
	if got := ctl.PickPlacement(); got != "b:80" {
		t.Fatalf("placement = %q, want b:80", got)
	}
	plant.unusable["b:80"] = true
	if got := ctl.PickPlacement(); got != "c:80" {
		t.Fatalf("placement with b unusable = %q, want c:80", got)
	}
	// Never-exchanged peers first, by address; unusable ones never.
	if got := ctl.AntiEntropyPeer(); got != "a:80" {
		t.Fatalf("anti-entropy peer = %q, want a:80", got)
	}
	tab.EncodePiggybackTo("a:80", now, MaxPiggybackEntries, true) // a full exchange with a
	if got := ctl.AntiEntropyPeer(); got != "c:80" {
		t.Fatalf("anti-entropy peer after exchanging with a = %q, want c:80 (b is unusable)", got)
	}
	tab.EncodePiggybackTo("c:80", now.Add(time.Second), MaxPiggybackEntries, true)
	if got := ctl.AntiEntropyPeer(); got != "a:80" {
		t.Fatalf("anti-entropy peer = %q, want a:80 (oldest exchange)", got)
	}
}

package dcws

import (
	"sort"
	"sync"
	"time"

	"dcws/internal/glt"
	"dcws/internal/policy"
)

// imbalanceRatio is the migration trigger: a home server migrates only
// while its load exceeds the target's by this factor, and recalls an
// expired placement only once the co-op is busier than the home by the
// same factor.
const imbalanceRatio = 1.2

// DocStat is what the control plane reads of one home document.
type DocStat struct {
	Name       string
	WindowHits int64 // home serves in the current statistics window
	Size       int64
	EntryPoint bool
	Location   string // primary co-op, "" while at home
	// RemoteLinkFrom counts LinkFrom documents that are themselves
	// migrated; LinkTo counts outgoing links (Algorithm 1 steps 4 and 5).
	RemoteLinkFrom int
	LinkTo         int
}

// Plant is the host a Controller steers: three readings of its state and
// the four effects a decision can have. dcws.Server implements it over the
// LDG and inter-server RPCs, the simulator over its document model and
// event queue; neither decides anything.
type Plant interface {
	// Docs snapshots every home document.
	Docs() []DocStat
	// Replicas lists the co-ops hosting doc, primary first; empty at home.
	Replicas(doc string) []string
	// Usable reports whether the peer behind a load-table entry may be
	// handed documents. Live: not suspect and the entry not stale — a
	// document sent to a server about to be declared down is stranded, and
	// a load nobody refreshed may be a long-gone idle reading. Simulated
	// peers never fail, so there it only asks that the server exists.
	Usable(e glt.Entry) bool

	// Migrate moves doc to coop logically (§4.2); the copy travels lazily.
	Migrate(doc, coop string)
	// ChainReplicate pushes doc down chain, one upload from the home, and
	// adds the links that acked to its replica set.
	ChainReplicate(doc string, chain []string)
	// Shrink drops all but the first keep replicas of doc.
	Shrink(doc string, keep int)
	// Revoke returns doc to its home and discards every hosted copy.
	Revoke(doc string)
}

// Controller is the control plane of one home server: every decision to
// migrate, replicate, shrink or revoke, written once for the live server
// and the simulator. It is transport-free — it reads the load table and
// the Plant, and acts only through the Plant's effects. Fill the exported
// fields before first use; Params must already be resolved (WithDefaults).
type Controller struct {
	Self   string
	Params Params
	Plant  Plant
	Table  *glt.Table
	Ledger *policy.Ledger
	Gate   *policy.RateGate

	// hotMu guards the hot-document state. hotHints holds the hits co-ops
	// reported since the last tick; hotRate the per-document serve-rate
	// EWMA (hits/s, home plus co-op hits) that triggers chain replication.
	hotMu    sync.Mutex
	hotHints map[string]int64
	hotRate  map[string]float64
}

// Tick runs one statistics interval's decisions for a server whose load is
// load, in the same unit peers advertise. Expired placements go first so a
// recalled document can be placed again in the same tick; replication
// precedes migration so a hot document gets its chain rather than one lazy
// copy.
func (c *Controller) Tick(now time.Time, load float64) {
	c.expire(now, load)
	c.replicate()
	c.migrate(now, load)
}

// expire walks placements older than T_home and recalls any whose co-op is
// now busier than this server by the imbalance ratio (§4.5 case 2: the
// workload shifted and the placement no longer helps). A chain of more
// than two replicas gets a middle path: while still hot it is left alone
// whatever the co-op's load, and a merely warm one — cooled below the
// trigger but not to zero — shrinks to two replicas instead of losing the
// whole chain, so the next warm-up re-disseminates one copy, not k.
func (c *Controller) expire(now time.Time, load float64) {
	rate := c.Params.HotReplicateRate
	for _, mig := range c.Ledger.Expired(now, c.Params.HomeReMigrateInterval) {
		if rate > 0 && len(c.Plant.Replicas(mig.Doc)) > 2 {
			ewma := c.HotRate(mig.Doc)
			if ewma >= rate {
				continue
			}
			if ewma > 0 {
				c.Plant.Shrink(mig.Doc, 2)
				continue
			}
		}
		if e, ok := c.Table.Get(mig.Coop); ok && e.Load > load*imbalanceRatio {
			c.Plant.Revoke(mig.Doc)
		}
	}
}

// place walks peers in placement order — most headroom first, same-zone
// before the rest — and returns the first n that are usable, not already
// taken, and accepted. A zone-local peer that fails a test is merely
// skipped, which is the cross-zone spillover: a distant peer with real
// headroom can still take the document.
func (c *Controller) place(n int, taken []string, accept func(glt.Entry) bool) []string {
	exclude := map[string]bool{c.Self: true}
	for _, t := range taken {
		exclude[t] = true
	}
	var out []string
	for _, e := range c.Table.RankedByHeadroom(exclude, c.Params.Zone) {
		if len(out) >= n {
			break
		}
		if c.Plant.Usable(e) && (accept == nil || accept(e)) {
			out = append(out, e.Server)
		}
	}
	return out
}

// PickPlacement picks the best target regardless of the imbalance trigger,
// "" when none is usable: an operator who asks for a migration has already
// decided the document should move, only the destination is open.
func (c *Controller) PickPlacement() string {
	if peers := c.place(1, nil, nil); len(peers) > 0 {
		return peers[0]
	}
	return ""
}

// migrate implements the lazy migration trigger of §4.2: when this server
// is busier than the best-placed peer by the imbalance ratio and both rate
// gates of Table 1 are open, Algorithm 1 selects one document to move.
func (c *Controller) migrate(now time.Time, load float64) {
	if load <= 0 {
		return
	}
	coops := c.place(1, nil, func(e glt.Entry) bool {
		return load > e.Load*imbalanceRatio && c.Gate.Eligible(e.Server, now)
	})
	if len(coops) == 0 {
		return
	}
	docs := c.Plant.Docs()
	cands := make([]policy.Candidate, len(docs))
	for i, d := range docs {
		cands[i] = policy.Candidate{
			Name:           d.Name,
			Load:           d.WindowHits,
			EntryPoint:     d.EntryPoint,
			Migrated:       d.Location != "",
			RemoteLinkFrom: d.RemoteLinkFrom,
			LinkTo:         d.LinkTo,
		}
	}
	doc, ok := policy.SelectForMigration(cands, c.Params.MigrationThreshold)
	if ok && c.Gate.Allow(coops[0], now) {
		c.Plant.Migrate(doc, coops[0])
	}
}

// sizeWeight scales a document's serve rate by its rendered size before
// the EWMA, so a large document at a modest hit rate still replicates —
// its egress dominates the home's uplink long before its request count
// looks hot. The weight is linear in size above a 64 KiB pivot, capped at
// 2 so size nudges the trigger rather than dominating it — a huge
// lukewarm file must still earn half the hit-rate threshold. Below the
// pivot the weight stays 1: small documents are cheap to replicate and
// their pressure is per-connection overhead, not bytes, so down-weighting
// them would only delay relief the raw hit rate already justifies.
func sizeWeight(size int64) float64 {
	w := float64(size) / float64(64<<10)
	if w <= 1 {
		return 1
	}
	if w > 2 {
		return 2
	}
	return w
}

// replicate folds this window's hits — home serves plus what co-ops
// reported — into the serve-rate EWMAs and brings every non-entry document
// over the trigger up to HotReplicaCount replicas, hottest first, so that
// when usable peers are scarce the hottest document gets them. The hint
// table is drained whole: a report describes one window, and a hint kept
// past it would feed a stale peak into every later EWMA.
func (c *Controller) replicate() {
	c.hotMu.Lock()
	hints := c.hotHints
	c.hotHints = nil
	c.hotMu.Unlock()
	rate := c.Params.HotReplicateRate
	if rate <= 0 {
		return
	}
	type hotDoc struct {
		name string
		ewma float64
	}
	var hot []hotDoc
	docs := c.Plant.Docs()
	interval := c.Params.StatsInterval.Seconds()
	c.hotMu.Lock()
	rates := make(map[string]float64, len(c.hotRate))
	for _, d := range docs {
		r := float64(d.WindowHits+hints[d.Name]) / interval
		r *= sizeWeight(d.Size)
		ewma := 0.5*c.hotRate[d.Name] + 0.5*r
		if ewma < 0.01 {
			continue
		}
		rates[d.Name] = ewma
		if ewma >= rate && !d.EntryPoint {
			hot = append(hot, hotDoc{d.Name, ewma})
		}
	}
	// Rates that decayed to nothing, and documents that left the graph,
	// are simply not carried over.
	c.hotRate = rates
	c.hotMu.Unlock()
	sort.Slice(hot, func(i, j int) bool {
		if hot[i].ewma != hot[j].ewma {
			return hot[i].ewma > hot[j].ewma
		}
		return hot[i].name < hot[j].name
	})
	for _, h := range hot {
		existing := c.Plant.Replicas(h.name)
		chain := c.place(c.Params.HotReplicaCount-len(existing), existing, nil)
		if len(chain) > 0 {
			c.Plant.ChainReplicate(h.name, chain)
		}
	}
}

// AbsorbHot merges one co-op's report of window hits on documents it hosts
// for this home. Reports from several hosts of one document keep the
// largest.
func (c *Controller) AbsorbHot(report map[string]int64) {
	c.hotMu.Lock()
	defer c.hotMu.Unlock()
	if c.hotHints == nil {
		c.hotHints = make(map[string]int64, len(report))
	}
	for doc, hits := range report {
		if hits > c.hotHints[doc] {
			c.hotHints[doc] = hits
		}
	}
}

// HotRate reports a document's current serve-rate EWMA.
func (c *Controller) HotRate(doc string) float64 {
	c.hotMu.Lock()
	defer c.hotMu.Unlock()
	return c.hotRate[doc]
}

// Forget drops everything the control plane remembers about doc's
// placement: its ledger entry and its hot state. Plants call it when the
// document comes home or leaves the graph.
func (c *Controller) Forget(doc string) {
	c.Ledger.Forget(doc)
	c.hotMu.Lock()
	delete(c.hotHints, doc)
	delete(c.hotRate, doc)
	c.hotMu.Unlock()
}

// AntiEntropyPeer selects the usable peer whose last full exchange is
// oldest (never-exchanged peers first, then by address for determinism),
// "" when there is none. Usable is asked about the address alone: staleness
// is a property of a load reading, and refreshing readings is what the
// exchange is for.
func (c *Controller) AntiEntropyPeer() string {
	gossip := c.Table.GossipPeers()
	var best string
	var bestAt time.Time
	for _, p := range c.Table.Servers() {
		if p == c.Self || !c.Plant.Usable(glt.Entry{Server: p}) {
			continue
		}
		if at := gossip[p].LastFull; best == "" || at.Before(bestAt) {
			best, bestAt = p, at
		}
	}
	return best
}

package dcws

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dcws/internal/glt"
	"dcws/internal/graph"
	"dcws/internal/policy"
)

// imbalanceRatio is the migration trigger: a home server migrates only
// while its load exceeds the target's by this factor, and recalls an
// expired placement only once the co-op is busier than the home by the
// same factor.
const imbalanceRatio = 1.2

// DocStat is what the control plane reads of one home document: Algorithm
// 1's inputs (its Load being this window's home serves) and the size the
// replication trigger weighs them by. Controller.docStats computes them.
type DocStat struct {
	policy.Candidate
	Size int64
}

// Plant is the host a Controller steers: two readings of its state and
// the four effects a decision can have. dcws.Server implements it over
// inter-server RPCs, the simulator over its event queue; neither decides
// anything. The documents themselves are read from Controller.Graph.
type Plant interface {
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
// and the simulator. It is transport-free — it reads the document graph,
// the load table and the Plant, and acts only through the Plant's effects.
// Fill the exported fields before first use; Params must already be
// resolved (WithDefaults).
type Controller struct {
	Self   string
	Params Params
	Plant  Plant
	Graph  *graph.LDG
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

// expire walks placements older than T_home and recalls the first whose
// co-op is now busier than this server by the imbalance ratio (§4.5 case
// 2: the workload shifted and the placement no longer helps). Like
// migrate, it moves at most one document per tick: every expired
// placement is compared with the same one-window load figure, so
// recalling all of them at once would let a single low window undo the
// whole placement and drop the cluster back to its cold-start
// throughput. A chain of more than two replicas gets a middle path: while
// still hot it is left alone whatever the co-op's load, and a merely warm
// one — cooled below the trigger but not to zero — shrinks to two
// replicas instead of losing the whole chain, so the next warm-up
// re-disseminates one copy, not k.
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
			return
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
	docs := c.docStats()
	cands := make([]policy.Candidate, len(docs))
	for i, d := range docs {
		cands[i] = d.Candidate
	}
	doc, ok := policy.SelectForMigration(cands, c.Params.MigrationThreshold)
	if ok && c.Gate.Allow(coops[0], now) {
		c.Plant.Migrate(doc, coops[0])
	}
}

// docStats reads Algorithm 1's inputs off a snapshot of the graph, one row
// per document in name order.
func (c *Controller) docStats() []DocStat {
	docs := c.Graph.Snapshot()
	remote := make(map[string]int)
	for _, d := range docs {
		if d.Location != "" {
			for _, to := range d.LinkTo {
				remote[to]++
			}
		}
	}
	out := make([]DocStat, len(docs))
	for i, d := range docs {
		out[i] = DocStat{Size: d.Size, Candidate: policy.Candidate{
			Name:           d.Name,
			Load:           d.WindowHits,
			EntryPoint:     d.EntryPoint,
			Migrated:       d.Location != "",
			RemoteLinkFrom: remote[d.Name],
			LinkTo:         len(d.LinkTo),
		}}
	}
	return out
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
	docs := c.docStats()
	interval := c.Params.StatsInterval.Seconds()
	c.hotMu.Lock()
	rates := make(map[string]float64, len(c.hotRate))
	for _, d := range docs {
		r := float64(d.Load+hints[d.Name]) / interval
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

// AntiEntropyPeer selects the usable peer whose last anti-entropy round is
// oldest (never-exchanged peers first), "" when there is none. Ties go to
// the first peer after this server in address order, wrapping around: a
// plain address tie-break would send every server of a group to the same
// peer in the same round, and a server that only meets equally stale
// peers stays stale. Usable is asked about the address alone: staleness
// is a property of a load reading, and refreshing readings is what the
// exchange is for.
func (c *Controller) AntiEntropyPeer() string {
	gossip := c.Table.GossipPeers()
	servers := c.Table.Servers()
	i := sort.SearchStrings(servers, c.Self)
	var best string
	var bestAt time.Time
	for _, p := range append(servers[i:], servers[:i]...) {
		if p == c.Self || !c.Plant.Usable(glt.Entry{Server: p}) {
			continue
		}
		if at := gossip[p].LastFull; best == "" || at.Before(bestAt) {
			best, bestAt = p, at
		}
	}
	return best
}

// ReplicaTable is a home's replica sets — for each migrated document the
// co-ops hosting it, primary first — and the rotation its rewritten links
// and redirects spread over them. Both drivers keep theirs here. Sets are
// installed whole and never mutated in place, and each document's rotation
// counter advances atomically, so concurrent pickers on the render path
// never serialize on a write lock.
type ReplicaTable struct {
	zone  string
	table *glt.Table

	mu   sync.RWMutex
	sets map[string][]string
	rr   map[string]*atomic.Uint32
}

// NewReplicaTable returns an empty table for a server in zone ("" for
// none) whose load table, holding the peers' gossiped zones, is table.
func NewReplicaTable(zone string, table *glt.Table) *ReplicaTable {
	return &ReplicaTable{zone: zone, table: table, sets: make(map[string][]string), rr: make(map[string]*atomic.Uint32)}
}

// Get returns doc's replica set, primary first; nil at home. Callers must
// not modify it.
func (r *ReplicaTable) Get(doc string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.sets[doc]
}

// Set installs doc's replica set; an empty one returns doc home and
// forgets its rotation.
func (r *ReplicaTable) Set(doc string, reps []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(reps) == 0 {
		delete(r.sets, doc)
		delete(r.rr, doc)
		return
	}
	r.sets[doc] = reps
	if r.rr[doc] == nil {
		r.rr[doc] = new(atomic.Uint32)
	}
}

// All returns a copy of every replica set.
func (r *ReplicaTable) All() map[string][]string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string][]string, len(r.sets))
	for doc, reps := range r.sets {
		out[doc] = append([]string(nil), reps...)
	}
	return out
}

// Pick returns the co-op the next reference to doc goes to, "" when doc
// has no replicas: successive calls rotate round-robin across the replica
// set (§6 future work). When this server has a zone and some replicas share
// it, rotation is confined to that same-zone subset, so rewritten links
// point clients at the topologically close copy; the full set is the
// fallback when no replica is known to be local.
func (r *ReplicaTable) Pick(doc string) string {
	r.mu.RLock()
	reps, ctr := r.sets[doc], r.rr[doc]
	r.mu.RUnlock()
	if len(reps) == 0 {
		return ""
	}
	if local := r.sameZone(reps); len(local) > 0 {
		reps = local
	}
	if len(reps) == 1 {
		return reps[0]
	}
	return reps[int(ctr.Add(1)-1)%len(reps)]
}

// PickFor returns the co-op a copy of referrer rendered for another server
// references doc at, "" when doc has no replicas: the same replica for the
// same referrer, chosen by a hash of its name from the set Pick rotates
// over. A co-op copy is rendered again for each fetch, and only its hash
// is kept (DESIGN §15), so its links must not rotate between renderings.
func (r *ReplicaTable) PickFor(doc, referrer string) string {
	r.mu.RLock()
	reps := r.sets[doc]
	r.mu.RUnlock()
	if len(reps) == 0 {
		return ""
	}
	if local := r.sameZone(reps); len(local) > 0 {
		reps = local
	}
	h := uint32(2166136261) // FNV-1a
	for i := 0; i < len(referrer); i++ {
		h = (h ^ uint32(referrer[i])) * 16777619
	}
	return reps[h%uint32(len(reps))]
}

// sameZone filters a replica list to the members whose gossiped zone
// matches this server's, preserving order. Nil when this server is unzoned
// or no replica's zone is known to match.
func (r *ReplicaTable) sameZone(reps []string) []string {
	if r.zone == "" {
		return nil
	}
	var local []string
	for _, rep := range reps {
		if e, ok := r.table.Get(rep); ok && e.Zone == r.zone {
			local = append(local, rep)
		}
	}
	return local
}

package sim

import (
	"sort"
	"time"

	"dcws/internal/dcws"
	"dcws/internal/glt"
	"dcws/internal/policy"
)

// internalFetch performs a home-to-coop document transfer: the co-op server
// requests the prepared copy from the document's home server. Load-table
// entries travel piggybacked on the exchange, in both directions, exactly
// as the extension headers do in the live system (§3.3).
func (w *World) internalFetch(coop *simServer, t target, done func(reply)) {
	home := w.servers[t.Home]
	if home == nil {
		w.schedule(coop.cost.RTT, func() { done(reply{status: 404}) })
		return
	}
	w.schedule(coop.cost.RTT/2, func() {
		// Piggyback: both tables merge (the request carried the coop's
		// view; the response will carry the home's).
		exchangeTables(home, coop)
		home.absorbHotReport(coop)

		d, ok := home.docs[t.Name]
		authorized := false
		if ok && d.location != "" {
			if d.location == coop.addr {
				authorized = true
			}
			for _, r := range home.replicas[t.Name] {
				if r == coop.addr {
					authorized = true
				}
			}
		}
		if !authorized {
			home.finish(reply{status: 301, bytes: home.cost.RedirectBytes}, 0, done)
			return
		}
		if d.snapshot == nil || d.dirty {
			home.rebuildSnapshot(d)
		}
		home.fetches++
		home.finish(reply{status: 200, bytes: d.spec.Size, doc: d.snapshot}, home.cost.ParseCost, done)
	})
}

// exchangeTables runs one wire-format gossip exchange — the simulated form
// of the X-DCWS-Load piggyback pair. b's request header carries its delta
// to a, a's response carries its delta back, and both sides absorb through
// the same codec the live system uses, so entry caps, per-peer acks, and
// epidemic relay of third-party entries behave identically to production.
func exchangeTables(a, b *simServer) {
	w := a.w
	max := dcws.MaxPiggybackEntries
	req := glt.DecodePiggyback(b.table.EncodePiggybackTo(a.addr, w.now, max, false))
	a.table.Absorb(req, w.now)
	resp := glt.DecodePiggyback(a.table.EncodePiggybackTo(b.addr, w.now, max, false))
	b.table.Absorb(resp, w.now)
}

// absorbHotReport pulls the coop's per-document window hits for documents
// this home owns into the replication hint table (X-DCWS-Hot equivalent).
func (home *simServer) absorbHotReport(coop *simServer) {
	for key, h := range coop.hosted {
		if !h.present || h.windowHits == 0 {
			continue
		}
		// key = home|name
		if len(key) <= len(home.addr)+1 || key[:len(home.addr)] != home.addr {
			continue
		}
		name := key[len(home.addr)+1:]
		if h.windowHits > home.hotHints[name] {
			home.hotHints[name] = h.windowHits
		}
	}
}

// statsTick is one statistics interval (T_st) on one server: refresh the
// load entry, revoke expired placements, replicate hot spots, attempt one
// migration, and roll the hit windows. It mirrors dcws.Server.runStatsTick.
func (s *simServer) statsTick() {
	w := s.w
	// The published load metric is CPS by default; BPS suits large-file
	// workloads (§5.3). With capacity normalization on, the gossiped (and
	// locally compared) figure is utilization — load over this machine's
	// analytic capacity — so the imbalance trigger compares like units
	// across heterogeneous workstations, exactly as in the live server.
	load := float64(s.windowConns) / w.params.StatsInterval.Seconds()
	if w.params.UseBPSMetric {
		load = float64(s.windowBytes) / w.params.StatsInterval.Seconds()
	}
	if s.capacity > 0 {
		load /= s.capacity
	}
	s.table.UpdateSelf(load, w.now)

	s.revokeExpired(load)
	if w.params.HotReplicateRate > 0 {
		s.chainReplicateHot()
	}
	s.maybeMigrate(load)

	s.windowConns = 0
	s.windowBytes = 0
	for _, d := range s.docs {
		d.windowHits = 0
	}
	for _, h := range s.hosted {
		h.windowHits = 0
	}
}

// maybeMigrate runs the migration trigger and Algorithm 1 (via the
// production policy package).
func (s *simServer) maybeMigrate(selfLoad float64) {
	w := s.w
	coop, ok := s.chooseCoop(selfLoad)
	if !ok {
		return
	}
	candidates := make([]policy.Candidate, 0, len(s.docNames))
	for _, name := range s.docNames {
		d := s.docs[name]
		remote := 0
		for _, from := range d.linkFrom {
			if fd, ok := s.docs[from]; ok && fd.location != "" {
				remote++
			}
		}
		candidates = append(candidates, policy.Candidate{
			Name:           name,
			Load:           d.windowHits,
			EntryPoint:     d.entry,
			Migrated:       d.location != "",
			RemoteLinkFrom: remote,
			LinkTo:         len(d.spec.Links),
		})
	}
	doc, ok := policy.SelectForMigration(candidates, w.params.MigrationThreshold)
	if !ok {
		return
	}
	if !s.gate.Allow(coop, w.now) {
		return
	}
	s.migrate(doc, coop)
}

// chooseCoop walks peers in placement-preference order — headroom-ranked,
// same-zone first — and picks the first one that satisfies the imbalance
// trigger and the rate gate (identical logic to dcws.Server.chooseCoop).
// With capacities absent the ranking degenerates to ascending load, which
// reproduces the legacy least-loaded choice exactly.
func (s *simServer) chooseCoop(selfLoad float64) (string, bool) {
	if selfLoad <= 0 {
		return "", false
	}
	exclude := map[string]bool{s.addr: true}
	for _, e := range s.table.RankedByHeadroom(exclude, s.w.params.Zone) {
		if selfLoad <= e.Load*dcws.ImbalanceRatio {
			continue
		}
		if s.w.servers[e.Server] == nil {
			continue
		}
		if s.gate.Eligible(e.Server, s.w.now) {
			return e.Server, true
		}
	}
	return "", false
}

// migrate performs the logical migration: location update, dirty
// propagation over LinkFrom, ledger entry.
func (s *simServer) migrate(name, coop string) {
	d, ok := s.docs[name]
	if !ok {
		return
	}
	d.location = coop
	d.version++
	for _, from := range d.linkFrom {
		if fd, ok := s.docs[from]; ok {
			fd.dirty = true
		}
	}
	s.ledger.Record(name, coop, s.w.now)
	s.replicas[name] = []string{coop}
	s.migrations++
	s.pushDirtied(d.linkFrom)
}

// pushDirtied mirrors the live server's invalidation push on link
// rewrites: when leases are on, every hosted copy of a just-dirtied
// document gets the re-rendered form immediately instead of waiting for
// its host's next validator poll.
func (s *simServer) pushDirtied(names []string) {
	if s.w.params.LeaseDuration <= 0 {
		return
	}
	for _, name := range names {
		d, ok := s.docs[name]
		if !ok {
			continue
		}
		hosts := s.replicas[name]
		if len(hosts) == 0 && d.location != "" {
			hosts = []string{d.location}
		}
		if len(hosts) == 0 {
			continue
		}
		if d.snapshot == nil || d.dirty {
			s.rebuildSnapshot(d)
		}
		for _, hAddr := range hosts {
			host := s.w.servers[hAddr]
			if host == nil {
				continue
			}
			if h, ok := host.hosted[s.addr+"|"+name]; ok && h.present && h.version != d.version {
				h.doc = d.snapshot
				h.version = d.snapshot.version
				s.invalPushes++
			}
		}
	}
}

// revoke returns a document home and tells its hosts to drop their copies.
func (s *simServer) revoke(name string) {
	d, ok := s.docs[name]
	if !ok {
		return
	}
	hosts := s.replicas[name]
	if len(hosts) == 0 && d.location != "" {
		hosts = []string{d.location}
	}
	d.location = ""
	d.version++
	for _, from := range d.linkFrom {
		if fd, ok := s.docs[from]; ok {
			fd.dirty = true
		}
	}
	s.ledger.Forget(name)
	delete(s.replicas, name)
	delete(s.rr, name)
	delete(s.hotHints, name)
	delete(s.hotRate, name)
	for _, hAddr := range hosts {
		if host := s.w.servers[hAddr]; host != nil {
			host.dropHosted(s.addr, name)
			if s.w.params.LeaseDuration > 0 {
				s.invalPushes++
			}
		}
	}
	s.revocations++
	s.pushDirtied(d.linkFrom)
}

// revokeExpired recalls placements older than T_home whose co-op is now
// substantially busier than the home (§4.5 case 2).
func (s *simServer) revokeExpired(selfLoad float64) {
	for _, mig := range s.ledger.Expired(s.w.now, s.w.params.HomeReMigrateInterval) {
		e, ok := s.table.Get(mig.Coop)
		if !ok {
			continue
		}
		if e.Load > selfLoad*dcws.ImbalanceRatio {
			s.revoke(mig.Doc)
		}
	}
}

// simSizeWeight mirrors the live server's size-aware replication weight
// (dcws.sizeWeight): serve rates scale linearly with rendered size above
// a 64 KiB pivot, capped at 2, and stay neutral below it — large
// documents replicate earlier, small ones are never delayed.
func simSizeWeight(size int64) float64 {
	w := float64(size) / float64(64<<10)
	if w <= 1 {
		return 1
	}
	if w > 2 {
		return 2
	}
	return w
}

// chainReplicateHot mirrors dcws.Server.maybeChainReplicate: fold this
// window's serve rate (home hits plus the hottest co-op report) into a
// per-document EWMA, and when a document crosses HotReplicateRate bring it
// up to HotReplicaCount replicas in ONE dissemination — the home uploads
// once to the chain head and each link relays to its successor, so the
// home's egress stays one document transfer regardless of the fan-out.
func (s *simServer) chainReplicateHot() {
	w := s.w
	dt := w.params.StatsInterval.Seconds()
	for name, d := range s.docs {
		rate := float64(d.windowHits+s.hotHints[name]) / dt
		rate *= simSizeWeight(d.spec.Size)
		next := 0.5*s.hotRate[name] + 0.5*rate
		if next < 0.01 {
			delete(s.hotRate, name)
			continue
		}
		s.hotRate[name] = next
	}
	names := make([]string, 0, len(s.hotRate))
	for name := range s.hotRate {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d := s.docs[name]
		if d == nil || d.entry || s.hotRate[name] < w.params.HotReplicateRate {
			continue
		}
		existing := s.replicas[name]
		if len(existing) == 0 && d.location != "" {
			existing = []string{d.location}
		}
		want := w.params.HotReplicaCount - len(existing)
		if want <= 0 {
			continue
		}
		exclude := map[string]bool{s.addr: true}
		for _, r := range existing {
			exclude[r] = true
		}
		var chain []string
		for _, e := range s.table.RankedByHeadroom(exclude, w.params.Zone) {
			if w.servers[e.Server] == nil {
				continue
			}
			chain = append(chain, e.Server)
			if len(chain) == want {
				break
			}
		}
		if len(chain) == 0 {
			continue
		}
		// The home renders once and uploads once; every chain link but the
		// last relays that same payload downstream.
		if d.snapshot == nil || d.dirty {
			s.rebuildSnapshot(d)
		}
		pushed := d.snapshot
		for i, addr := range chain {
			host := w.servers[addr]
			host.hosted[s.addr+"|"+name] = &hostedDoc{
				present: true,
				doc:     pushed,
				version: pushed.version,
			}
			if i < len(chain)-1 {
				host.finish(reply{status: 200, bytes: d.spec.Size}, 0, func(reply) {})
			}
		}
		s.chainPushes++
		s.chainPushBytes += d.spec.Size
		s.finish(reply{status: 200, bytes: d.spec.Size}, s.cost.ParseCost, func(reply) {})
		newReps := append(append([]string(nil), existing...), chain...)
		wasHome := d.location == ""
		d.location = newReps[0]
		d.version++
		for _, from := range d.linkFrom {
			if fd, ok := s.docs[from]; ok {
				fd.dirty = true
			}
		}
		if wasHome {
			s.ledger.Record(name, newReps[0], w.now)
			s.migrations++
		}
		s.replicas[name] = newReps
		delete(s.hotHints, name)
		s.pushDirtied(d.linkFrom)
	}
}

// pingerTick refreshes stale load-table entries by probing peers — a tiny
// request charged to the peer, with tables exchanged on success (§4.5).
func (s *simServer) pingerTick() {
	w := s.w
	for _, peer := range s.table.StaleServers(w.now, w.params.PingerInterval) {
		p := w.servers[peer]
		if p == nil {
			s.table.Remove(peer)
			continue
		}
		// Charge the ping to the peer's worker pool.
		p.finish(reply{status: 200, bytes: 64}, 0, func(reply) {
			exchangeTables(s, p)
			p.absorbHotReport(s)
		})
	}
}

// validatorTick re-requests every hosted copy from its home (T_val): a
// cheap conditional exchange when unchanged, a full transfer when the home
// copy moved on (§4.5 case 1).
func (s *simServer) validatorTick() {
	w := s.w
	keys := make([]string, 0, len(s.hosted))
	for key := range s.hosted {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		h := s.hosted[key]
		if !h.present {
			continue
		}
		sep := -1
		for i := 0; i < len(key); i++ {
			if key[i] == '|' {
				sep = i
				break
			}
		}
		if sep < 0 {
			continue
		}
		homeAddr, name := key[:sep], key[sep+1:]
		home := w.servers[homeAddr]
		if home == nil {
			continue
		}
		// With leases on, a live home pushes invalidations itself, so the
		// polled validation round is skipped entirely — the traffic collapse
		// the live system's dcws_validate_polls_total counter measures.
		if w.params.LeaseDuration > 0 {
			s.leaseSkips++
			continue
		}
		s.validations++
		d, ok := home.docs[name]
		if !ok {
			continue
		}
		exchangeTables(home, s)
		home.absorbHotReport(s)
		stillOurs := d.location == s.addr
		for _, r := range home.replicas[name] {
			if r == s.addr {
				stillOurs = true
			}
		}
		if !stillOurs {
			s.dropHosted(homeAddr, name)
			continue
		}
		// The live validator re-renders a dirty document before answering
		// (its hyperlinks re-rotate over current replica sets), so the
		// version comparison must see the post-render version.
		if d.snapshot == nil || d.dirty {
			home.rebuildSnapshot(d)
		}
		if d.version == h.version {
			// 304: conditional check only.
			home.finish(reply{status: 200, bytes: 256}, 0, func(reply) {})
			continue
		}
		hh := h
		doc := d.snapshot
		home.finish(reply{status: 200, bytes: d.spec.Size, doc: doc}, 0, func(rep reply) {
			hh.doc = rep.doc
			hh.version = rep.doc.version
		})
	}
}

// antiEntropyTick is the simulated form of the live anti-entropy safety
// net: one full-table exchange with the peer whose last full exchange is
// oldest, so entries capped out of every delta still reconverge.
func (s *simServer) antiEntropyTick() {
	w := s.w
	gossip := s.table.GossipPeers()
	var best string
	var bestAt time.Time
	for _, p := range s.table.Servers() {
		if p == s.addr || w.servers[p] == nil {
			continue
		}
		at := gossip[p].LastFull
		if best == "" || at.Before(bestAt) {
			best, bestAt = p, at
		}
	}
	if best == "" {
		return
	}
	peer := w.servers[best]
	max := dcws.MaxPiggybackEntries
	req := glt.DecodePiggyback(s.table.EncodePiggybackTo(peer.addr, w.now, max, true))
	peer.table.Absorb(req, w.now)
	// The live responder sees the !g marker and answers with its own full
	// table.
	resp := glt.DecodePiggyback(peer.table.EncodePiggybackTo(s.addr, w.now, max, true))
	s.table.Absorb(resp, w.now)
}

// seedPeers initializes every server's load table with every other server,
// matching the Peers configuration of the live system.
func (w *World) seedPeers() {
	for _, a := range w.order {
		for _, b := range w.order {
			if a != b {
				w.servers[a].table.Observe(glt.Entry{Server: b})
			}
		}
	}
}

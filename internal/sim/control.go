package sim

import (
	"sort"
	"strings"

	"dcws/internal/dcws"
	"dcws/internal/glt"
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

// absorbHotReport hands the home's control plane the coop's per-document
// window hits for documents this home owns (X-DCWS-Hot equivalent).
func (home *simServer) absorbHotReport(coop *simServer) {
	var report map[string]int64
	prefix := home.addr + "|"
	for key, h := range coop.hosted {
		if !h.present || h.windowHits == 0 || !strings.HasPrefix(key, prefix) {
			continue
		}
		if report == nil {
			report = make(map[string]int64)
		}
		report[key[len(prefix):]] = h.windowHits
	}
	if report != nil {
		home.ctl.AbsorbHot(report)
	}
}

// statsTick is one statistics interval (T_st) on one server: refresh the
// load entry, give the control plane its tick, and roll the hit windows.
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

	s.ctl.Tick(w.now, load)

	s.windowConns = 0
	s.windowBytes = 0
	for _, d := range s.docs {
		d.windowHits = 0
	}
	for _, h := range s.hosted {
		h.windowHits = 0
	}
}

// relocate points a document at its new primary location ("" is home) and
// dirties every page that links to it.
func (s *simServer) relocate(d *simDoc, location string) {
	d.location = location
	d.version++
	for _, from := range d.linkFrom {
		if fd, ok := s.docs[from]; ok {
			fd.dirty = true
		}
	}
}

// Migrate performs the logical migration: location update, dirty
// propagation over LinkFrom, ledger entry.
func (s *simServer) Migrate(name, coop string) {
	d, ok := s.docs[name]
	if !ok {
		return
	}
	s.relocate(d, coop)
	s.ledger.Record(name, coop, s.w.now)
	s.replicas[name] = []string{coop}
	s.migrations++
	s.pushDirtied(d.linkFrom)
}

// pushDirtied models the live server's invalidation push on link
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
		hosts := s.Replicas(name)
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

// dropCopies makes hosts discard their copies of a document; with leases
// on, each is told by a pushed revoke frame.
func (s *simServer) dropCopies(name string, hosts []string) {
	for _, hAddr := range hosts {
		if host := s.w.servers[hAddr]; host != nil {
			host.dropHosted(s.addr, name)
			if s.w.params.LeaseDuration > 0 {
				s.invalPushes++
			}
		}
	}
}

// Revoke returns a document home and tells its hosts to drop their copies.
func (s *simServer) Revoke(name string) {
	d, ok := s.docs[name]
	if !ok {
		return
	}
	hosts := s.Replicas(name)
	s.relocate(d, "")
	s.ctl.Forget(name)
	delete(s.replicas, name)
	delete(s.rr, name)
	s.dropCopies(name, hosts)
	s.revocations++
	s.pushDirtied(d.linkFrom)
}

// Shrink drops the tail of a document's replica chain: the dropped hosts
// discard their copies and pages linking to the document re-rotate over
// the replicas kept.
func (s *simServer) Shrink(name string, keep int) {
	d, reps := s.docs[name], s.replicas[name]
	if d == nil || len(reps) <= keep {
		return
	}
	s.replicas[name] = reps[:keep:keep]
	s.dropCopies(name, reps[keep:])
	s.relocate(d, reps[0])
	s.pushDirtied(d.linkFrom)
}

// ChainReplicate installs a document on every link of the chain in ONE
// dissemination — the home renders once and uploads once to the chain
// head, and every link but the last relays that same payload downstream,
// so the home's egress stays one document transfer regardless of the
// fan-out. Simulated links never fail, so the whole chain acks.
func (s *simServer) ChainReplicate(name string, chain []string) {
	d, ok := s.docs[name]
	if !ok {
		return
	}
	if d.snapshot == nil || d.dirty {
		s.rebuildSnapshot(d)
	}
	pushed := d.snapshot
	for i, addr := range chain {
		host := s.w.servers[addr]
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
	newReps := append(append([]string(nil), s.Replicas(name)...), chain...)
	if d.location == "" {
		s.ledger.Record(name, newReps[0], s.w.now)
		s.migrations++
	}
	s.relocate(d, newReps[0])
	s.replicas[name] = newReps
	s.pushDirtied(d.linkFrom)
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
		homeAddr, name, _ := strings.Cut(key, "|")
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
// net: one full-table exchange with the peer the control plane picks (the
// one whose last full exchange is oldest), so entries capped out of every
// delta still reconverge.
func (s *simServer) antiEntropyTick() {
	w := s.w
	peer := w.servers[s.ctl.AntiEntropyPeer()]
	if peer == nil {
		return
	}
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

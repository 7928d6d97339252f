package sim

import (
	"slices"

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
		home.ctl.AbsorbHot(coop.coop.HotReport(home.addr))

		d, ok := home.docs[t.Name]
		if !ok || !slices.Contains(home.Replicas(t.Name), coop.addr) {
			home.finish(reply{status: 301, bytes: home.cost.RedirectBytes}, 0, done)
			return
		}
		home.finish(reply{status: 200, bytes: d.spec.Size, doc: home.rendered(t.Name, d)}, home.cost.ParseCost, done)
	})
}

// exchangeTables runs one wire-format gossip exchange — the simulated form
// of the X-DCWS-Load piggyback pair. b's request header carries its delta
// to a, a's response carries its delta back, and both sides absorb through
// the same codec the live system uses, so entry caps, per-peer acks, and
// epidemic relay of third-party entries behave identically to production.
// Each side absorbs through its co-op core, which notes the direct contact.
func exchangeTables(a, b *simServer) {
	w := a.w
	max := dcws.MaxPiggybackEntries
	req := glt.DecodePiggyback(b.table.EncodePiggybackTo(a.addr, w.now, max, false))
	a.coop.Absorb(req, w.now)
	hdr, _ := a.table.Answer(req, max)
	b.coop.Absorb(glt.DecodePiggyback(hdr), w.now)
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
	s.ldg.RollWindow()
	s.coop.RollWindows()
}

// relocate points a document at its new primary location ("" is home),
// dirtying every page that links to it; hosted copies of those pages learn
// of their new renderings at their next validation.
func (s *simServer) relocate(name, location string) {
	s.ldg.MarkMigrated(name, location)
}

// Migrate performs the logical migration: location update, dirty
// propagation over LinkFrom, ledger entry.
func (s *simServer) Migrate(name, coop string) {
	if s.docs[name] == nil {
		return
	}
	s.ledger.Record(name, coop, s.w.now)
	s.replicas.Set(name, []string{coop})
	s.migrations++
	s.relocate(name, coop)
}

// dropCopies makes hosts discard their copies of a document.
func (s *simServer) dropCopies(name string, hosts []string) {
	key := s.hostKey(s.addr, name)
	for _, hAddr := range hosts {
		if host := s.w.servers[hAddr]; host != nil {
			host.dropCopy(key)
		}
	}
}

// Revoke returns a document home and tells its hosts to drop their copies.
func (s *simServer) Revoke(name string) {
	if s.docs[name] == nil {
		return
	}
	hosts := s.Replicas(name)
	s.ctl.Forget(name)
	s.replicas.Set(name, nil)
	s.dropCopies(name, hosts)
	s.revocations++
	s.relocate(name, "")
}

// Shrink drops the tail of a document's replica chain: the dropped hosts
// discard their copies and pages linking to the document re-rotate over
// the replicas kept.
func (s *simServer) Shrink(name string, keep int) {
	reps := s.Replicas(name)
	if len(reps) <= keep {
		return
	}
	s.replicas.Set(name, reps[:keep:keep])
	s.dropCopies(name, reps[keep:])
	s.relocate(name, reps[0])
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
	pushed := s.rendered(name, d)
	key := s.hostKey(s.addr, name)
	for i, addr := range chain {
		host := s.w.servers[addr]
		host.coop.Host(key)
		host.admitCopy(key, pushed)
		if i < len(chain)-1 {
			host.finish(reply{status: 200, bytes: d.spec.Size}, 0, func(reply) {})
		}
	}
	s.chainPushes++
	s.chainPushBytes += d.spec.Size
	s.finish(reply{status: 200, bytes: d.spec.Size}, s.cost.ParseCost, func(reply) {})
	existing := s.Replicas(name)
	newReps := append(append([]string(nil), existing...), chain...)
	if len(existing) == 0 {
		s.ledger.Record(name, newReps[0], s.w.now)
		s.migrations++
	}
	s.replicas.Set(name, newReps)
	s.relocate(name, newReps[0])
}

// pingerTick probes the peers the co-op core names — a tiny request
// charged to the peer, with tables exchanged on success (§4.5) — and
// reports each outcome to the core. A peer missing from the world is
// unreachable: its probe fails, and a peer the core declares down has its
// documents recalled.
func (s *simServer) pingerTick() {
	w := s.w
	for _, peer := range s.coop.ProbeTargets(w.now) {
		p := w.servers[peer]
		if p == nil {
			if _, down := s.coop.ProbeFailed(peer); down {
				for _, mig := range s.ledger.HostedBy(peer) {
					s.Revoke(mig.Doc)
				}
				s.table.Remove(peer)
			}
			continue
		}
		p.finish(reply{status: 200, bytes: 64}, 0, func(reply) {
			s.coop.ProbeOK(peer)
			exchangeTables(s, p)
		})
	}
}

// validatorTick polls the hosted copies the co-op core names (T_val).
func (s *simServer) validatorTick() {
	poll, _ := s.coop.Sweep(s.w.now, nil)
	for _, key := range poll {
		s.validate(key, nil)
	}
}

// validate re-requests one hosted copy from its home: a cheap conditional
// exchange when the home's rendering is unchanged, a full transfer when it
// moved on (§4.5 case 1), a 301 when the home no longer places the
// document here. The co-op core reads the answer. The live validator
// re-renders a dirty document before answering (its hyperlinks re-rotate
// over current replica sets) and compares content, so an unchanged
// rendering is a 304. then, when set, runs once the answer has arrived.
func (s *simServer) validate(key string, then func()) {
	w := s.w
	v, _ := s.coop.View(key)
	home := w.servers[v.Home]
	done := func(reply) {
		if then != nil {
			then()
		}
	}
	if home == nil {
		done(reply{})
		return
	}
	exchangeTables(home, s)
	home.ctl.AbsorbHot(s.coop.HotReport(home.addr))
	status, d := 301, home.docs[v.Name]
	var cur *servedDoc
	if d != nil && slices.Contains(home.Replicas(v.Name), s.addr) {
		status, cur = 200, home.rendered(v.Name, d)
		if s.copies[key].current(cur) {
			status = 304
		}
	}
	switch s.coop.Validated(key, status, w.now) {
	case dcws.ValidCurrent:
		home.finish(reply{status: 200, bytes: 256}, 0, done)
	case dcws.ValidRefreshed:
		home.finish(reply{status: 200, bytes: d.spec.Size, doc: cur}, 0, func(rep reply) {
			s.admitCopy(key, rep.doc)
			done(rep)
		})
	default:
		s.dropCopy(key)
		done(reply{})
	}
}

// antiEntropyTick is the simulated form of the live anti-entropy safety
// net: the live server's push-pull digest round (glt.Table.Reconcile) with
// the peer the control plane picks (the one whose last exchange is
// oldest), so entries capped out of every delta still reconverge. The
// peer answers through the live handler's responder, glt.Table.Answer.
func (s *simServer) antiEntropyTick() {
	w := s.w
	peer := w.servers[s.ctl.AntiEntropyPeer()]
	if peer == nil {
		return
	}
	_, _ = s.table.Reconcile(peer.addr, func(hdr string) (glt.Piggyback, error) {
		req := glt.DecodePiggyback(hdr)
		peer.coop.Absorb(req, w.now)
		resp, _ := peer.table.Answer(req, dcws.MaxPiggybackEntries)
		p := glt.DecodePiggyback(resp)
		s.coop.Absorb(p, w.now)
		return p, nil
	})
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

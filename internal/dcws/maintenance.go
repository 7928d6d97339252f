package dcws

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcws/internal/glt"
	"dcws/internal/httpx"
	"dcws/internal/naming"
	"dcws/internal/telemetry"
)

// runStatsTick is one activation of the statistics module (§5.1): every
// T_st it refreshes this server's load entry, hands the control plane its
// tick (expired placements, hot-document replication, migration), and rolls
// the hit windows. Tests and the cluster harness call it directly to drive
// the server deterministically.
func (s *Server) runStatsTick() {
	now := s.now()
	// Fold this interval's achieved serve latency into the capacity
	// estimate first, so the load advertised below is normalized by the
	// freshest figure.
	s.updateCapacity()
	// With capacity normalization on, every load figure this tick — the
	// gossiped entry and the migration/revocation comparisons — is a
	// fraction of capacity, the same unit peers advertise, so the
	// imbalance trigger compares like with like.
	load := s.normalizeLoad(s.loadMetric(now))
	// Forced (maxAge 0) so the self entry's timestamp advances every tick
	// even when the quantized load is unchanged: peers re-admit a
	// recovered server only on entries measured after its down
	// declaration. The control plane decides on the raw load.
	s.table.RefreshSelf(s.advertisedLoad(now), now, 0)

	s.ctl.Tick(now, load)
	s.ldg.RollWindow()
	// Hosted copies' hit counters feed the hot-spot reports piggybacked to
	// their home servers; they describe one window too.
	s.coops.rollWindows()
}

// plant is the live server as the control plane sees it (Plant): readings
// come from the LDG, the replica table and the failure detector; effects
// are the LDG/WAL updates and inter-server RPCs below and in replicate.go.
type plant struct{ s *Server }

func (p plant) Docs() []DocStat              { return p.s.docStats() }
func (p plant) Replicas(doc string) []string { return p.s.Replicas(doc) }
func (p plant) Usable(e glt.Entry) bool {
	return !p.s.peerSuspect(e.Server) && !p.s.entryStale(e)
}
func (p plant) Migrate(doc, coop string)                  { p.s.migrate(doc, coop) }
func (p plant) ChainReplicate(doc string, chain []string) { p.s.chainReplicate(doc, chain) }
func (p plant) Shrink(doc string, keep int)               { p.s.shrinkReplicas(doc, keep) }
func (p plant) Revoke(doc string)                         { p.s.revoke(doc) }

// entryStale reports whether a load-table entry is too old to justify
// placing documents on its server. Entries with no timestamp are exempt:
// they are statically configured peers never heard from, and first
// contact has to start somewhere.
func (s *Server) entryStale(e glt.Entry) bool {
	max := s.params.PlacementMaxStaleness
	if max <= 0 || e.Updated.IsZero() {
		return false
	}
	return s.now().Sub(e.Updated) > max
}

// docStats converts the LDG snapshot into the control plane's view.
func (s *Server) docStats() []DocStat {
	docs := s.ldg.Snapshot()
	migrated := make(map[string]bool, len(docs))
	for _, d := range docs {
		if d.Location != "" {
			migrated[d.Name] = true
		}
	}
	out := make([]DocStat, 0, len(docs))
	for _, d := range docs {
		remote := 0
		for _, from := range d.LinkFrom {
			if migrated[from] {
				remote++
			}
		}
		out = append(out, DocStat{
			Name:           d.Name,
			WindowHits:     d.WindowHits,
			Size:           d.Size,
			EntryPoint:     d.EntryPoint,
			Location:       d.Location,
			RemoteLinkFrom: remote,
			LinkTo:         len(d.LinkTo),
		})
	}
	return out
}

// migrate performs the logical migration of §4.2: update the tuple's
// Location, dirty the LinkFrom documents, and record the migration. The
// physical copy moves lazily when the co-op server first needs it.
func (s *Server) migrate(doc, coop string) {
	dirtied, err := s.ldg.MarkMigrated(doc, coop)
	if err != nil {
		s.log.Printf("dcws %s: migrate %s: %v", s.Addr(), doc, err)
		return
	}
	at := s.now()
	s.ledger.Record(doc, coop, at)
	s.repMu.Lock()
	s.replicas[doc] = []string{coop}
	s.rrCounter[doc] = new(uint32)
	s.repMu.Unlock()
	s.rcache.invalidate(doc)
	s.walAppend(recMigrate, encodeMigrate(doc, coop, at))
	s.tel.migrations.Inc()
	// Link-rewritten referrers changed content: push so subscribed co-ops
	// hosting them refresh now instead of waiting out their lease.
	s.pushDirtied(dirtied)
	s.log.Printf("dcws %s: migrated %s -> %s (dirtied %d)", s.Addr(), doc, coop, len(dirtied))
}

// pushDirtied fans update invalidations out for documents whose rendered
// content changed as a side effect (link rewrites on migrate / revoke /
// replicate), batching each subscriber's share into one frame.
func (s *Server) pushDirtied(dirtied []string) {
	s.hub.pushBatch(invalUpdate, dirtied)
}

// shrinkReplicas trims a document's replica set down to keep hosts (the
// primary co-op stays; the chain tail goes), revoking the dropped copies
// and re-dirtying referrers so regenerated links rotate over the smaller
// set.
func (s *Server) shrinkReplicas(doc string, keep int) {
	s.repMu.Lock()
	reps := s.replicas[doc]
	if len(reps) <= keep {
		s.repMu.Unlock()
		return
	}
	kept := append([]string(nil), reps[:keep]...)
	droppedHosts := append([]string(nil), reps[keep:]...)
	s.replicas[doc] = kept
	s.repMu.Unlock()
	s.rcache.invalidate(doc)
	s.walAppend(recReplicas, encodeReplicas(doc, kept))
	dirtied, err := s.ldg.MarkMigrated(doc, kept[0])
	if err != nil {
		s.log.Printf("dcws %s: shrink %s: %v", s.Addr(), doc, err)
	}
	s.revokeHosts(doc, droppedHosts)
	// Pushed revoke frames cover subscribed hosts the RPC path missed.
	s.hub.pushRevokeTo(doc, droppedHosts)
	s.pushDirtied(dirtied)
	s.tel.replicateShrinks.Inc()
	s.log.Printf("dcws %s: shrank %s to %v (dropped %v)", s.Addr(), doc, kept, droppedHosts)
}

// revoke returns a document to this home server: the LDG is updated (the
// LinkFrom documents become dirty and will be regenerated pointing home),
// the control plane forgets the placement, and each hosting co-op is asked
// to discard its copy.
func (s *Server) revoke(doc string) {
	s.repMu.Lock()
	hosts := append([]string(nil), s.replicas[doc]...)
	delete(s.replicas, doc)
	delete(s.rrCounter, doc)
	s.repMu.Unlock()
	s.rcache.invalidate(doc)
	if len(hosts) == 0 {
		if mig, ok := s.ledger.Get(doc); ok {
			hosts = []string{mig.Coop}
		}
	}
	dirtied, err := s.ldg.MarkRevoked(doc)
	if err != nil {
		s.log.Printf("dcws %s: revoke %s: %v", s.Addr(), doc, err)
	}
	s.ctl.Forget(doc)
	s.walAppend(recRevoke, encodeNameRecord(doc))
	s.revokeHosts(doc, hosts)
	// Subscribed hosts drop the copy on the pushed frame even when the
	// revoke RPC path missed them; referrers with rewritten links refresh.
	s.hub.push(invalRevoke, doc)
	s.pushDirtied(dirtied)
	s.tel.revokes.Inc()
	s.log.Printf("dcws %s: revoked %s from %v", s.Addr(), doc, hosts)
}

// revokeHosts asks hosts to discard their copies of doc. Several hosts are
// revoked along the dissemination chain: one RPC to the head, relayed host
// to host, acks aggregated back up. Hosts the chain missed (dead links)
// fall back to per-peer revokes, whose failures the validator eventually
// cleans up anyway.
func (s *Server) revokeHosts(doc string, hosts []string) {
	remaining := hosts
	if len(hosts) > 1 {
		s.tel.replicateRevokeChains.Inc()
		ackSet := make(map[string]bool)
		for _, a := range s.sendChainRevoke(hosts, doc) {
			ackSet[a] = true
		}
		remaining = nil
		for _, h := range hosts {
			if !ackSet[h] {
				remaining = append(remaining, h)
			}
		}
		s.tel.replicateRevokeFallbacks.Add(int64(len(remaining)))
	}
	for _, coop := range remaining {
		s.sendRevoke(coop, doc)
	}
}

// traced runs one maintenance exchange with span.Peer under a client-side
// span: every such RPC carries the trace and parent IDs and the load-table
// piggyback, and records its span with the outcome. The caller names
// span.Op, Target and Peer — plus TraceID and ParentID when relaying inside
// someone else's trace — and stamps hdr onto whatever call sends. A load
// header the caller already set (the digest round's) is left in place.
// Absorbing the reply stays with the caller: the pinger folds replies in
// only after every probe has returned, and the digest round needs the
// decoded piggyback.
func (s *Server) traced(span telemetry.Span, hdr httpx.Header, call func(*telemetry.Span) (*httpx.Response, error)) (*httpx.Response, error) {
	if span.TraceID == "" {
		span.TraceID = telemetry.NewTraceID()
	}
	span.ID, span.Server, span.Start = telemetry.NewSpanID(), s.addr, s.now()
	hdr.Set(telemetry.TraceHeader, span.TraceID)
	hdr.Set(telemetry.ParentHeader, span.ID)
	if hdr.Get(glt.HeaderName) == "" {
		s.piggybackTo(hdr, span.Peer)
	}
	start := time.Now()
	resp, err := call(&span)
	span.Duration = time.Since(start)
	if err != nil {
		span.Err = err.Error()
	} else {
		span.Status = resp.Status
	}
	s.tel.record(span)
	return resp, err
}

// rpc is traced for the common case of one request with one deadline.
func (s *Server) rpc(span telemetry.Span, req *httpx.Request, timeout time.Duration) (*httpx.Response, error) {
	return s.traced(span, req.Header, func(*telemetry.Span) (*httpx.Response, error) {
		return s.client.DoTimeout(span.Peer, req, timeout)
	})
}

// sendRevoke tells one co-op server to discard its copy of doc. Failure is
// tolerable: the copy simply ages out at the next validation.
func (s *Server) sendRevoke(coop, doc string) {
	key, err := naming.Encode(s.cfg.Origin, doc)
	if err != nil {
		return
	}
	req := httpx.NewRequest("POST", revokePath)
	req.Header.Set(headerRevokeDoc, key)
	resp, err := s.rpc(telemetry.Span{Op: "revoke-rpc", Target: doc, Peer: coop}, req, s.params.MaintenanceTimeout)
	if err != nil {
		s.log.Printf("dcws %s: revoke %s at %s: %v", s.Addr(), doc, coop, err)
		return
	}
	s.absorbPiggyback(resp.Header)
}

// RecallFrom revokes every document currently migrated to the given co-op
// server (crash recovery, §4.5 case 3). Exposed for operational tooling.
func (s *Server) RecallFrom(coop string) int {
	s.tel.recalls.Inc()
	migs := s.ledger.HostedBy(coop)
	for _, mig := range migs {
		s.revoke(mig.Doc)
	}
	return len(migs)
}

// Replicas reports the replica set of a migrated document (primary co-op
// first). Empty when the document is at home. A placement the replica
// table has no entry for (recorded in the ledger alone) is its one co-op.
func (s *Server) Replicas(doc string) []string {
	s.repMu.RLock()
	reps := append([]string(nil), s.replicas[doc]...)
	s.repMu.RUnlock()
	if len(reps) == 0 {
		if mig, ok := s.ledger.Get(doc); ok {
			reps = []string{mig.Coop}
		}
	}
	return reps
}

// runPingerTick performs one activation of the pinger thread of §4.5: every
// T_pi it probes servers whose load entries have gone stale, and declares
// a peer down after repeated failures, recalling its documents. Probes fan
// out concurrently, each bounded by MaintenanceTimeout and retried up to
// ProbeAttempts times, so one stalled peer can no longer consume the
// whole pinger interval serially. Results are folded in sequentially
// after every probe returns, keeping declare-down decisions
// deterministic. Probes bypass the circuit-breaker gate (the pinger IS
// the failure detector) but still record outcomes, so a recovering
// peer's first successful probe closes its breaker.
func (s *Server) runPingerTick() {
	now := s.now()
	stale := s.table.StaleServers(now, s.params.PingerInterval)
	if len(stale) == 0 {
		return
	}
	type probeResult struct {
		resp *httpx.Response
		err  error
	}
	results := make([]probeResult, len(stale))
	var wg sync.WaitGroup
	for i, peer := range stale {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			extra := make(httpx.Header)
			resp, err := s.traced(telemetry.Span{Op: "probe", Target: pingPath, Peer: peer}, extra,
				func(span *telemetry.Span) (resp *httpx.Response, err error) {
					err = s.res.Probe(s.probePolicy, peer, func() error {
						span.Attempts++
						r, err := s.client.GetTimeout(peer, pingPath, extra, s.params.MaintenanceTimeout)
						if err != nil {
							return err
						}
						if r.Status != 200 {
							return fmt.Errorf("ping status %d", r.Status)
						}
						resp = r
						return nil
					})
					return resp, err
				})
			results[i] = probeResult{resp: resp, err: err}
		}(i, peer)
	}
	wg.Wait()
	for i, peer := range stale {
		pr := results[i]
		if pr.err != nil {
			s.peerMu.Lock()
			s.pingFail[peer]++
			failures := s.pingFail[peer]
			s.peerMu.Unlock()
			s.log.Printf("dcws %s: ping %s failed (%d): %v", s.Addr(), peer, failures, pr.err)
			if failures >= s.params.MaxPingFailures {
				s.declareDown(peer)
			}
			continue
		}
		s.recoverPeer(peer)
		s.absorbPiggyback(pr.resp.Header)
	}
}

// declareDown marks a peer dead: its documents are recalled and its load
// table entry removed so it is never chosen as a migration target. The
// declaration time is recorded; only a load entry measured after it can
// re-admit the peer (see reconcileDownPeers).
func (s *Server) declareDown(peer string) {
	s.peerMu.Lock()
	if _, already := s.downAt[peer]; already {
		s.peerMu.Unlock()
		return
	}
	s.downAt[peer] = s.now()
	delete(s.pingFail, peer)
	s.peerMu.Unlock()
	s.tel.declaredDown.Inc()
	n := s.RecallFrom(peer)
	s.table.Remove(peer)
	// A dead peer must stop appearing as a hedge target: purge it from
	// every hosted document's sibling list so no fetch races toward it.
	if evicted := s.coops.evictSibling(peer); evicted > 0 {
		s.log.Printf("dcws %s: dropped %s from %d sibling lists", s.Addr(), peer, evicted)
	}
	s.log.Printf("dcws %s: declared %s down, recalled %d documents", s.Addr(), peer, n)
}

// The anti-entropy loop is the safety net under delta piggybacking: it
// reconciles load tables with the peer whose last exchange is oldest, so
// entries lost to dropped responses, capped deltas, or peer restarts
// reconverge within one sweep of the cluster even if no delta ever
// carries them again. The cadence adapts: while the piggyback
// channel alone keeps every healthy peer's acked version current, each
// quiet round doubles the wait (capped at 4x AntiEntropyInterval) and the
// exchange is skipped; any churn — a suspect or down peer, a
// peer-set change — snaps the interval back to the floor and forces the
// next round. antiEntropyWait is the wait before the next round.
func (s *Server) antiEntropyWait() time.Duration {
	s.aeMu.Lock()
	defer s.aeMu.Unlock()
	return s.aeInterval
}

// aeSkip decides one adaptive-cadence round: it reports whether the
// exchange can be skipped, and adjusts the interval for the
// next round (backing off while deltas suffice, resetting under churn).
func (s *Server) aeSkip() bool {
	base := s.params.AntiEntropyInterval
	var peers []string
	for _, p := range s.table.Servers() {
		if p != s.addr {
			peers = append(peers, p)
		}
	}
	churn := false
	for _, p := range peers {
		if s.peerSuspect(p) {
			churn = true
			break
		}
	}
	s.peerMu.Lock()
	if len(s.downAt) > 0 {
		churn = true
	}
	s.peerMu.Unlock()
	ver := s.table.Version()
	gossip := s.table.GossipPeers()

	s.aeMu.Lock()
	defer s.aeMu.Unlock()
	if !churn && !equalStrings(peers, s.aeLastPeers) {
		churn = true
	}
	prevVer := s.aeLastVer
	s.aeLastPeers = peers
	s.aeLastVer = ver
	if churn {
		s.aeInterval = base
		s.tel.aeForced.Inc()
		return false
	}
	// Quiet only counts when every peer acked everything that existed at
	// the LAST cadence decision: a version bumped mid-interval gets one
	// more interval to propagate through deltas before it forces a round.
	current := prevVer > 0 && len(peers) > 0
	for _, p := range peers {
		if gossip[p].Acked < prevVer {
			current = false
			break
		}
	}
	if current {
		s.aeInterval = min(s.aeInterval*2, 4*base)
		s.tel.aeSkipped.Inc()
		return true
	}
	s.aeInterval = base
	return false
}

// equalStrings reports whether two sorted string slices are equal.
func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// runAntiEntropyTick performs one anti-entropy exchange with the push-pull
// digest protocol: the request carries per-shard version-vector digests of
// this table (no entries), the peer answers with only the stripes whose
// vectors differ, and a third leg pushes back any stripes where this side
// was the fresher one.
func (s *Server) runAntiEntropyTick() {
	peer := s.ctl.AntiEntropyPeer()
	if peer == "" {
		return
	}
	s.tel.antiEntropyRounds.Inc()
	extra := make(httpx.Header)
	extra.Set(glt.HeaderName, s.table.EncodeDigestTo(peer))
	_, err := s.traced(telemetry.Span{Op: "anti-entropy-digest", Target: pingPath, Peer: peer}, extra,
		func(span *telemetry.Span) (*httpx.Response, error) {
			resp, err := s.client.GetTimeout(peer, pingPath, extra, s.params.MaintenanceTimeout)
			if err != nil {
				return nil, err
			}
			p := s.absorbPiggyback(resp.Header)
			if !p.HasDigests {
				// Every server in a group runs this binary, so a reply
				// without digests is a malformed or foreign answer: whatever
				// entries it carried are merged, and the round ends.
				s.log.Printf("dcws %s: anti-entropy with %s: reply carried no digests", s.Addr(), peer)
				return resp, nil
			}
			s.tel.digestRounds.Inc()
			// Third leg: ship the stripes where our vector is still ahead
			// of the peer's (it told us its digests precisely so we can
			// tell).
			if back := s.table.StillDiverged(p.Digests); len(back) > 0 {
				s.tel.digestPushbacks.Inc()
				s.tel.digestShardsSent.Add(int64(len(back)))
				push := make(httpx.Header)
				push.Set(telemetry.TraceHeader, span.TraceID)
				push.Set(telemetry.ParentHeader, span.ID)
				push.Set(glt.HeaderName, s.table.EncodeShardEntriesTo(peer, back))
				if resp2, err := s.client.GetTimeout(peer, pingPath, push, s.params.MaintenanceTimeout); err == nil {
					s.absorbPiggyback(resp2.Header)
				}
			}
			return resp, nil
		})
	if err != nil {
		s.log.Printf("dcws %s: anti-entropy with %s: %v", s.Addr(), peer, err)
	}
}

// runValidatorTick is one pass of the co-op consistency thread of §4.5:
// every T_val it re-requests hosted documents from their home servers so
// content changes propagate within the validation interval. It revalidates
// every physically present co-op copy.
// With push invalidation active, copies whose lease is unexpired and
// whose home subscription channel is live are skipped: the home promises
// to push changes, so polling them is pure waste — the collapse this
// extension exists for. Copies without that cover (never leased, channel
// down, lease run out) fall back to the paper's conditional GET.
func (s *Server) runValidatorTick() {
	s.tel.validatorPasses.Inc()
	leases := s.params.LeaseDuration > 0
	now := s.now()
	for _, key := range s.coops.presentKeys() {
		if leases {
			if v, ok := s.coops.view(key); ok && v.leased && v.leaseUntil.After(now) &&
				s.subs.subscriptionLive(v.home.Addr()) {
				s.tel.invalLeaseSkips.Inc()
				continue
			}
		}
		s.tel.validatePolls.Inc()
		s.validateOne(key)
	}
}

// validateOne re-requests one hosted document conditionally. It returns
// the outcome — "current", "refreshed", "dropped", or "error" — so the
// lease paths (expiry re-validation, pushed invalidations) can branch on
// it; "" means the key is no longer hosted.
func (s *Server) validateOne(key string) string {
	v, ok := s.coops.view(key)
	if !ok {
		return ""
	}

	req := httpx.NewRequest("GET", v.name)
	req.Header.Set(headerFetch, s.Addr())
	req.Header.Set(headerValidate, strconv.FormatUint(v.hash, 16))
	s.attachHotReport(req.Header, v.home.Addr())
	resp, err := s.rpc(telemetry.Span{Op: "validate", Target: v.name, Peer: v.home.Addr()}, req, s.params.MaintenanceTimeout)
	if err != nil {
		s.tel.validation("error")
		s.log.Printf("dcws %s: validate %s: %v", s.Addr(), v.name, err)
		return "error"
	}
	s.absorbPiggyback(resp.Header)
	// Validation responses carry the document's replica set too, keeping the
	// hedge-sibling list fresh between fetches.
	s.absorbReplicas(key, resp.Header)
	switch resp.Status {
	case 304:
		// Copy is current.
		s.renewAfterValidate(key)
		s.tel.validation("current")
		return "current"
	case 200:
		if err := s.cfg.Store.Put(key, resp.Body); err != nil {
			s.log.Printf("dcws %s: refresh %s: %v", s.Addr(), key, err)
			return "error"
		}
		var h uint64
		if val := resp.Header.Get(headerValidate); val != "" {
			h, _ = strconv.ParseUint(val, 16, 64)
		} else {
			h = contentHash(resp.Body)
		}
		s.coops.refresh(key, int64(len(resp.Body)), h, s.now())
		s.walCoopAdmit(key)
		s.enforceCoopBudget(key)
		s.renewAfterValidate(key)
		s.tel.validation("refreshed")
		return "refreshed"
	default:
		// Revoked or re-migrated behind our back: stop hosting.
		if s.coops.remove(key) {
			s.walAppend(recCoopForget, encodeNameRecord(key))
		}
		s.cfg.Store.Delete(key)
		s.tel.validation("dropped")
		return "dropped"
	}
}

// renewAfterValidate re-leases a copy the home just vouched for: a
// successful conditional GET proves the home reachable and the copy
// fresh, which is exactly what a pushed frame proves.
func (s *Server) renewAfterValidate(key string) {
	if s.params.LeaseDuration > 0 {
		s.coops.renewLease(key, s.now().Add(s.params.LeaseDuration))
	}
}

// attachHotReport piggybacks this coop's hottest hosted documents for the
// given home server onto an outgoing request (replication extension).
func (s *Server) attachHotReport(h httpx.Header, homeAddr string) {
	if parts := s.coops.hotReport(homeAddr); len(parts) > 0 {
		h.Set(headerHot, strings.Join(parts, ","))
	}
}

// absorbHot hands a piggybacked hot-document report to the control plane.
func (s *Server) absorbHot(h httpx.Header) {
	v := h.Get(headerHot)
	if v == "" {
		return
	}
	report := make(map[string]int64)
	for _, part := range strings.Split(v, ",") {
		eq := strings.LastIndexByte(part, '=')
		if eq <= 0 {
			continue
		}
		hits, err := strconv.ParseInt(part[eq+1:], 10, 64)
		if err != nil || hits < 0 {
			continue
		}
		if doc := part[:eq]; hits > report[doc] {
			report[doc] = hits
		}
	}
	s.ctl.AbsorbHot(report)
}

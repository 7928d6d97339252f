package dcws

import (
	"fmt"
	"slices"
	"strconv"
	"sync"
	"time"

	"dcws/internal/glt"
	"dcws/internal/httpx"
	"dcws/internal/naming"
	"dcws/internal/telemetry"
)

// TickStats is one activation of the statistics module (§5.1): every
// T_st it publishes this server's load entry, hands the control plane its
// tick (expired placements, hot-document replication, migration), and rolls
// the hit windows. Tests and the cluster harness call it directly to drive
// the server deterministically.
func (s *Server) TickStats() {
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
	// The tick is the one publisher of the self entry, and it publishes
	// the figure the control plane decides on. Every tick is a new stamp
	// (the heartbeat peers' staleness checks hear).
	s.table.UpdateSelf(load, now)

	s.ctl.Tick(now, load)
	s.ldg.RollWindow()
	// Hosted copies' hit counters feed the hot-spot reports piggybacked to
	// their home servers; they describe one window too.
	s.coops.RollWindows()
}

// plant is the live server as the control plane sees it (Plant): readings
// come from the replica table and the failure detector; effects are the
// LDG/WAL updates and inter-server RPCs below and in replicate.go.
type plant struct{ s *Server }

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

// migrate performs the logical migration of §4.2: the document moves to
// coop and the migration is recorded. The physical copy moves lazily when
// the co-op server first needs it.
func (s *Server) migrate(doc, coop string) {
	if err := s.relocate(doc, []string{coop}); err != nil {
		s.log.Printf("dcws %s: migrate %s: %v", s.Addr(), doc, err)
		return
	}
	at := s.now()
	s.ledger.Record(doc, coop, at)
	s.walAppend(recMigrate, encodeMigrate(doc, coop, at))
	s.tel.migrations.Inc()
	s.log.Printf("dcws %s: migrated %s -> %s", s.Addr(), doc, coop)
}

// shrinkReplicas trims a document's replica set down to keep hosts (the
// primary co-op stays; the chain tail goes) and revokes the dropped copies.
func (s *Server) shrinkReplicas(doc string, keep int) {
	reps := s.Replicas(doc)
	if len(reps) <= keep {
		return
	}
	kept, dropped := reps[:keep:keep], reps[keep:]
	if err := s.relocate(doc, kept); err != nil {
		s.log.Printf("dcws %s: shrink %s: %v", s.Addr(), doc, err)
		return
	}
	s.walAppend(recReplicas, encodeReplicas(doc, kept))
	s.revokeHosts(doc, dropped)
	// Pushed revoke frames cover subscribed hosts the RPC path missed.
	s.hub.push(invalRevoke, []string{doc}, dropped)
	s.tel.replicateShrinks.Inc()
	s.log.Printf("dcws %s: shrank %s to %v (dropped %v)", s.Addr(), doc, kept, dropped)
}

// revoke returns a document to this home server: the control plane
// forgets the placement, and each hosting co-op is asked to discard its
// copy.
func (s *Server) revoke(doc string) {
	hosts := s.Replicas(doc)
	if err := s.relocate(doc, nil); err != nil {
		s.log.Printf("dcws %s: revoke %s: %v", s.Addr(), doc, err)
	}
	s.ctl.Forget(doc)
	s.walAppend(recRevoke, encodeNameRecord(doc))
	s.revokeHosts(doc, hosts)
	// Subscribed hosts drop the copy on the pushed frame even when the
	// revoke RPC path missed them.
	s.hub.push(invalRevoke, []string{doc}, nil)
	s.tel.revokes.Inc()
	s.log.Printf("dcws %s: revoked %s from %v", s.Addr(), doc, hosts)
}

// relocate is the one re-placement step at the home: reps becomes doc's
// replica set (primary first; none returns it home), its rendered copies
// are dropped, the LDG moves it, and the referrers whose links that
// rewrote are pushed to subscribed co-ops so they refresh now instead of
// waiting out their lease. An unknown document is an error; one being
// placed is then left alone.
func (s *Server) relocate(doc string, reps []string) error {
	var dirtied []string
	var err error
	if len(reps) == 0 {
		dirtied, err = s.ldg.MarkRevoked(doc)
	} else if dirtied, err = s.ldg.MarkMigrated(doc, reps[0]); err != nil {
		return err
	}
	s.replicas.Set(doc, reps)
	s.rcache.invalidate(doc)
	s.hub.push(invalUpdate, dirtied, nil)
	return err
}

// revokeHosts asks hosts to discard their copies of doc. Several hosts are
// revoked along the dissemination chain: one RPC to the head, relayed host
// to host, acks aggregated back up. The home does not promote past a dead
// head: every host the chain missed gets a revoke of its own instead,
// whose failures the validator eventually cleans up anyway.
func (s *Server) revokeHosts(doc string, hosts []string) {
	key, err := naming.Encode(s.cfg.Origin, doc)
	if err != nil {
		return
	}
	revoke := func(int) *httpx.Request {
		req := httpx.NewRequest("POST", revokePath)
		req.Header.Set(headerRevokeDoc, key)
		return req
	}
	span := telemetry.Span{Op: "revoke-chain", Target: doc}
	remaining := hosts
	if len(hosts) > 1 {
		s.tel.replicateRevokeChains.Inc()
		acked := s.walkChain(span, hosts, s.params.MaintenanceTimeout, func(i int) *httpx.Request {
			if i > 0 {
				return nil
			}
			return revoke(i)
		})
		remaining = nil
		for _, h := range hosts {
			if !slices.Contains(acked, h) {
				remaining = append(remaining, h)
			}
		}
		s.tel.replicateRevokeFallbacks.Add(int64(len(remaining)))
	}
	for _, host := range remaining {
		s.walkChain(span, []string{host}, s.params.MaintenanceTimeout, revoke)
	}
}

// traced runs one maintenance exchange with span.Peer under a client-side
// span: every such RPC carries the trace and parent IDs, and records its
// span with the outcome. The caller names span.Op, Target and Peer — plus
// TraceID and ParentID when relaying inside someone else's trace — and
// stamps hdr onto whatever call sends. The load header and absorbing the
// reply stay with the caller: the pinger folds replies in only after every
// probe has returned, and the digest round sends its own load headers.
func (s *Server) traced(span telemetry.Span, hdr httpx.Header, call func(*telemetry.Span) (*httpx.Response, error)) (*httpx.Response, error) {
	if span.TraceID == "" {
		span.TraceID = telemetry.NewTraceID()
	}
	span.ID, span.Server, span.Start = telemetry.NewSpanID(), s.addr, s.now()
	hdr.Set(telemetry.TraceHeader, span.TraceID)
	hdr.Set(telemetry.ParentHeader, span.ID)
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

// rpc is traced for the common case of one request with one deadline,
// carrying the load-table delta.
func (s *Server) rpc(span telemetry.Span, req *httpx.Request, timeout time.Duration) (*httpx.Response, error) {
	s.piggybackTo(req.Header, span.Peer)
	return s.traced(span, req.Header, func(*telemetry.Span) (*httpx.Response, error) {
		return s.client.DoTimeout(span.Peer, req, timeout)
	})
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
	reps := append([]string(nil), s.replicas.Get(doc)...)
	if len(reps) == 0 {
		if mig, ok := s.ledger.Get(doc); ok {
			reps = []string{mig.Coop}
		}
	}
	return reps
}

// TickPinger performs one activation of the pinger thread of §4.5:
// every T_pi it probes the peers the co-op core names (Coop.ProbeTargets)
// and reports each outcome back to it; a peer the core declares down has
// its documents recalled. Probes fan out concurrently, each bounded by
// MaintenanceTimeout and retried up to ProbeAttempts times, so one stalled
// peer can no longer consume the whole pinger interval serially. Results
// are folded in sequentially after every probe returns, keeping
// declare-down decisions deterministic. Probes bypass the circuit-breaker
// gate (the pinger IS the failure detector) but still record outcomes, so
// a recovering peer's first successful probe closes its breaker.
func (s *Server) TickPinger() {
	targets := s.coops.ProbeTargets(s.now())
	if len(targets) == 0 {
		return
	}
	type probeResult struct {
		resp *httpx.Response
		err  error
	}
	results := make([]probeResult, len(targets))
	var wg sync.WaitGroup
	for i, peer := range targets {
		wg.Add(1)
		go func(i int, peer string) {
			defer wg.Done()
			extra := make(httpx.Header)
			s.piggybackTo(extra, peer)
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
	for i, peer := range targets {
		pr := results[i]
		if pr.err != nil {
			failures, down := s.coops.ProbeFailed(peer)
			s.log.Printf("dcws %s: ping %s failed (%d): %v", s.Addr(), peer, failures, pr.err)
			if down {
				s.tel.declaredDown.Inc()
				n := s.RecallFrom(peer)
				s.table.Remove(peer)
				s.log.Printf("dcws %s: declared %s down, recalled %d documents", s.Addr(), peer, n)
			}
			continue
		}
		if s.coops.ProbeOK(peer) {
			s.log.Printf("dcws %s: peer %s healthy again", s.Addr(), peer)
		}
		s.res.Reset(peer)
		s.absorbPiggyback(pr.resp.Header)
	}
}

// TickAntiEntropy is the safety net under delta piggybacking: one
// push-pull digest round (glt.Table.Reconcile) with the peer whose last
// exchange is oldest, so entries lost to dropped responses, capped deltas,
// or peer restarts reconverge within one sweep of the cluster even if no
// delta ever carries them again. Both legs ride the ping path under one
// span.
func (s *Server) TickAntiEntropy() {
	peer := s.ctl.AntiEntropyPeer()
	if peer == "" {
		return
	}
	s.tel.antiEntropyRounds.Inc()
	hdr := make(httpx.Header)
	var pushed int
	_, err := s.traced(telemetry.Span{Op: "anti-entropy-digest", Target: pingPath, Peer: peer}, hdr,
		func(*telemetry.Span) (last *httpx.Response, err error) {
			pushed, err = s.table.Reconcile(peer, func(v string) (glt.Piggyback, error) {
				hdr.Set(glt.HeaderName, v)
				resp, err := s.client.GetTimeout(peer, pingPath, hdr, s.params.MaintenanceTimeout)
				if err != nil {
					return glt.Piggyback{}, err
				}
				last = resp
				return s.absorbPiggyback(resp.Header), nil
			})
			return last, err
		})
	// A failed push-back leg still completed the digest round.
	if err == nil || pushed > 0 {
		s.tel.digestRounds.Inc()
	}
	if pushed > 0 {
		s.tel.digestPushbacks.Inc()
		s.tel.digestShardsSent.Add(int64(pushed))
	}
	if err != nil {
		s.log.Printf("dcws %s: anti-entropy with %s: %v", s.Addr(), peer, err)
	}
}

// TickValidator is one pass of the co-op consistency thread of §4.5:
// every T_val it re-requests the hosted copies the co-op core names
// (Coop.Sweep) from their home servers, so content changes propagate
// within the validation interval. Under push invalidation the core skips
// copies with lease cover and a live subscription channel.
func (s *Server) TickValidator() {
	s.tel.validatorPasses.Inc()
	var live func(string) bool
	if s.params.LeaseDuration > 0 {
		live = s.subs.subscriptionLive
	}
	poll, skipped := s.coops.Sweep(s.now(), live)
	s.tel.invalLeaseSkips.Add(int64(skipped))
	for _, key := range poll {
		s.tel.validatePolls.Inc()
		s.validateOne(key)
	}
}

// validateOne re-requests one hosted document conditionally and applies
// the co-op core's reading of the answer (Coop.Validated). It returns the
// outcome — current, refreshed, dropped, or "error" — so the lease paths
// (expiry re-validation, pushed invalidations) can branch on it; "" means
// the key is no longer hosted.
func (s *Server) validateOne(key string) string {
	v, ok := s.coops.View(key)
	if !ok {
		return ""
	}
	req := httpx.NewRequest("GET", v.Name)
	req.Header.Set(headerFetch, s.Addr())
	req.Header.Set(headerValidate, strconv.FormatUint(v.Hash, 16))
	s.attachHotReport(req.Header, v.Home)
	resp, err := s.rpc(telemetry.Span{Op: "validate", Target: v.Name, Peer: v.Home}, req, s.params.MaintenanceTimeout)
	if err != nil {
		s.tel.validation("error")
		s.log.Printf("dcws %s: validate %s: %v", s.Addr(), v.Name, err)
		return "error"
	}
	s.absorbPiggyback(resp.Header)
	outcome := s.coops.Validated(key, resp.Status, s.now())
	switch outcome {
	case ValidCurrent:
		// Validation responses carry the document's replica set too,
		// keeping the hedge-sibling list fresh between fetches.
		s.absorbReplicas(key, resp.Header)
	case ValidRefreshed:
		if err := s.admitCopy(key, resp.Body, headerHash(resp.Header), resp.Header); err != nil {
			s.log.Printf("dcws %s: refresh %s: %v", s.Addr(), key, err)
			return "error"
		}
	case ValidDropped:
		// Revoked or re-migrated behind our back.
		s.dropCopy(key)
	}
	s.tel.validation(outcome)
	return outcome
}

// attachHotReport piggybacks this coop's hottest hosted documents for the
// given home server onto an outgoing request (replication extension).
func (s *Server) attachHotReport(h httpx.Header, homeAddr string) {
	if hits := s.coops.HotReport(homeAddr); hits != nil {
		h.Set(headerHot, encodeHot(hits))
	}
}

// absorbHot hands a piggybacked hot-document report to the control plane.
func (s *Server) absorbHot(h httpx.Header) {
	if v := h.Get(headerHot); v != "" {
		s.ctl.AbsorbHot(decodeHot(v))
	}
}

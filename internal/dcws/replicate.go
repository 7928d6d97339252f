package dcws

import (
	"strconv"
	"strings"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/naming"
	"dcws/internal/store"
	"dcws/internal/telemetry"
)

// Proactive hot-document replication with CDTP-style chain dissemination.
//
// The paper's lazy migration copies a document only after a co-op takes a
// request for it, so under a flash crowd the home server still uploads the
// bytes once per co-op and its egress link becomes the bottleneck. Here
// the home notices a hot document itself — the control plane (control.go)
// sees its serve-rate EWMA cross Params.HotReplicateRate and picks a chain
// of usable peers in placement order — and uploads the rendered bytes ONCE
// to the chain head; each link stores its copy and relays the remainder of
// the chain to its successor, so home egress is ~one upload per hot
// document regardless of k.

// replicateTimeout bounds each link of a chain push — the home's upload
// to the chain head, and each relay hop — so one slow link cannot stall
// the whole dissemination.
const replicateTimeout = 10 * time.Second

// chainReplicate pushes one hot document down the chain of co-op servers
// the control plane picked, over a single upload, and installs whichever
// links acked beside the replicas it already has.
func (s *Server) chainReplicate(doc string, chain []string) {
	s.tel.replicateTriggers.Inc()
	loc, known := s.ldg.Location(doc)
	if !known {
		return
	}
	existing := s.Replicas(doc)
	payload, err := s.prepareForMigration(doc)
	if err != nil {
		s.log.Printf("dcws %s: chain replicate %s: render: %v", s.Addr(), doc, err)
		return
	}
	key, err := naming.Encode(s.cfg.Origin, doc)
	if err != nil {
		return
	}
	intended := append(append(make([]string, 0, len(existing)+len(chain)), existing...), chain...)
	acked := s.pushChain(key, doc, payload, contentHash(payload), chain, intended)
	if len(acked) == 0 {
		return
	}
	// Install the replica set from the acks only: a chain member that was
	// skipped (link failure) holds no copy and must not receive 301s.
	newReps := append(append(make([]string, 0, len(existing)+len(acked)), existing...), acked...)
	now := s.now()
	wasHome := loc == ""
	var dirtied []string
	if wasHome {
		if dirtied, err = s.ldg.MarkMigrated(doc, newReps[0]); err != nil {
			s.log.Printf("dcws %s: chain replicate %s: %v", s.Addr(), doc, err)
			return
		}
		s.ledger.Record(doc, newReps[0], now)
	} else if dirtied, err = s.ldg.MarkMigrated(doc, loc); err != nil {
		// Re-dirty the LinkFrom set so regenerated links rotate across the
		// enlarged replica set.
		s.log.Printf("dcws %s: chain replicate %s: %v", s.Addr(), doc, err)
		return
	}
	s.repMu.Lock()
	s.replicas[doc] = newReps
	if s.rrCounter[doc] == nil {
		s.rrCounter[doc] = new(uint32)
	}
	s.repMu.Unlock()
	s.rcache.invalidate(doc)
	if wasHome {
		s.walAppend(recMigrate, encodeMigrate(doc, newReps[0], now))
		s.tel.migrations.Inc()
	}
	s.walAppend(recReplicas, encodeReplicas(doc, newReps))
	s.hub.push(invalUpdate, dirtied, nil)
	s.log.Printf("dcws %s: chain-replicated %s -> %v (%d of %d links acked, %d bytes uploaded once)",
		s.Addr(), doc, acked, len(acked), len(chain), len(payload))
}

// pushChain uploads the rendered document once, to the first reachable
// chain member; that member stores its copy and relays the remaining
// chain to its successor. Unreachable heads are skipped (the next member
// is promoted), so one dead peer costs a retry, not the round. It returns
// the addresses that acked storing a copy, in chain order.
func (s *Server) pushChain(key, doc string, payload []byte, h uint64, chain, intended []string) []string {
	traceID := telemetry.NewTraceID()
	for i, head := range chain {
		req := httpx.NewRequest("POST", replicatePath)
		req.Body = payload
		req.Header.Set(headerRevokeDoc, key)
		if i+1 < len(chain) {
			req.Header.Set(headerChain, strings.Join(chain[i+1:], ","))
		}
		req.Header.Set(headerValidate, strconv.FormatUint(h, 16))
		req.Header.Set(headerReplicas, strings.Join(intended, ","))
		resp, err := s.rpc(telemetry.Span{TraceID: traceID, Op: "replicate-push", Target: doc, Peer: head}, req, replicateTimeout)
		if err != nil || resp.Status != 200 {
			s.tel.replicateChainSkips.Inc()
			s.log.Printf("dcws %s: chain push %s to %s failed, promoting next link", s.Addr(), doc, head)
			continue
		}
		s.absorbPiggyback(resp.Header)
		s.tel.replicatePushes.Inc()
		s.tel.replicatePushBytes.Add(int64(len(payload)))
		return splitAddrs(resp.Header.Get(headerAcked))
	}
	return nil
}

// handleReplicate is the co-op side of a chain push: store the copy as if
// it had been lazily fetched, relay the remaining chain to the first
// reachable successor, and answer with the aggregated ack list (self plus
// everything downstream).
func (s *Server) handleReplicate(req *httpx.Request) *httpx.Response {
	if req.Method != "POST" {
		return status(405, "replicate requires POST")
	}
	key := req.Header.Get(headerRevokeDoc)
	if key == "" || !naming.IsMigrated(key) {
		return status(400, "missing or invalid "+headerRevokeDoc+" header")
	}
	cleaned, err := store.CleanName(key)
	if err != nil {
		return status(400, err.Error())
	}
	home, docName, err := naming.Decode(cleaned)
	if err != nil {
		return status(400, err.Error())
	}
	if home == s.cfg.Origin {
		return status(400, "cannot host a replica of my own document")
	}
	if len(req.Body) == 0 {
		return status(400, "empty replicate body")
	}
	hashHex := req.Header.Get(headerValidate)
	var h uint64
	if hashHex != "" {
		h, _ = strconv.ParseUint(hashHex, 16, 64)
	}
	if h == 0 {
		h = contentHash(req.Body)
	}
	if err := s.cfg.Store.Put(cleaned, req.Body); err != nil {
		return status(500, err.Error())
	}
	now := s.now()
	s.coops.touch(cleaned, home, docName, now)
	s.coops.markFetched(cleaned, int64(len(req.Body)), h, now)
	s.absorbReplicas(cleaned, req.Header)
	s.walCoopAdmit(cleaned)
	s.enforceCoopBudget(cleaned)
	if s.params.LeaseDuration > 0 {
		s.coops.renewLease(cleaned, now.Add(s.params.LeaseDuration))
		s.subs.ensureSubscribed(home.Addr())
	}
	s.tel.replicateStored.Inc()

	acked := []string{s.addr}
	if rest := splitAddrs(req.Header.Get(headerChain)); len(rest) > 0 {
		down := s.relayChain(cleaned, docName, req.Body, hashHex,
			req.Header.Get(headerReplicas), rest,
			req.Header.Get(telemetry.TraceHeader), req.Header.Get(telemetry.ParentHeader))
		acked = append(acked, down...)
	}
	resp := status(200, "replicated")
	resp.Header.Set(headerAcked, strings.Join(acked, ","))
	return resp
}

// relayChain forwards a chain push to the first reachable successor,
// CDTP-style: this link has stored its copy and now pays one upload so
// the home does not have to. Failed successors are skipped — they end up
// outside the acked set and the home leaves them out of the replica set.
func (s *Server) relayChain(key, doc string, payload []byte, hashHex, replicas string, chain []string, traceID, parent string) []string {
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	for i, next := range chain {
		req := httpx.NewRequest("POST", replicatePath)
		req.Body = payload
		req.Header.Set(headerRevokeDoc, key)
		if i+1 < len(chain) {
			req.Header.Set(headerChain, strings.Join(chain[i+1:], ","))
		}
		if hashHex != "" {
			req.Header.Set(headerValidate, hashHex)
		}
		if replicas != "" {
			req.Header.Set(headerReplicas, replicas)
		}
		resp, err := s.rpc(telemetry.Span{TraceID: traceID, ParentID: parent, Op: "replicate-relay", Target: doc, Peer: next}, req, replicateTimeout)
		if err != nil || resp.Status != 200 {
			s.tel.replicateChainSkips.Inc()
			s.log.Printf("dcws %s: chain relay %s to %s failed, promoting next link", s.Addr(), doc, next)
			continue
		}
		s.absorbPiggyback(resp.Header)
		s.tel.replicateRelays.Inc()
		return splitAddrs(resp.Header.Get(headerAcked))
	}
	return nil
}

// sendChainRevoke asks the chain head to revoke doc and relay the
// revocation down the remaining hosts, answering with the aggregated ack
// list. It returns the hosts that confirmed; nil means the head itself
// was unreachable and the caller falls back to per-peer revokes.
func (s *Server) sendChainRevoke(hosts []string, doc string) []string {
	key, err := naming.Encode(s.cfg.Origin, doc)
	if err != nil {
		return nil
	}
	head := hosts[0]
	req := httpx.NewRequest("POST", revokePath)
	req.Header.Set(headerRevokeDoc, key)
	req.Header.Set(headerChain, strings.Join(hosts[1:], ","))
	resp, err := s.rpc(telemetry.Span{Op: "revoke-chain", Target: doc, Peer: head}, req, s.params.MaintenanceTimeout)
	if err != nil {
		s.log.Printf("dcws %s: chain revoke %s at %s: %v", s.Addr(), doc, head, err)
		return nil
	}
	s.absorbPiggyback(resp.Header)
	if resp.Status != 200 {
		return nil
	}
	return splitAddrs(resp.Header.Get(headerAcked))
}

// relayRevoke forwards a chain revocation to the first reachable
// successor and returns the downstream ack list. Unreachable links are
// skipped; the home covers them with per-peer fallback revokes.
func (s *Server) relayRevoke(key string, chain []string, traceID, parent string) []string {
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	for i, next := range chain {
		req := httpx.NewRequest("POST", revokePath)
		req.Header.Set(headerRevokeDoc, key)
		if i+1 < len(chain) {
			req.Header.Set(headerChain, strings.Join(chain[i+1:], ","))
		}
		resp, err := s.rpc(telemetry.Span{TraceID: traceID, ParentID: parent, Op: "revoke-relay", Target: key, Peer: next}, req, s.params.MaintenanceTimeout)
		if err != nil || resp.Status != 200 {
			s.tel.replicateChainSkips.Inc()
			continue
		}
		s.absorbPiggyback(resp.Header)
		return splitAddrs(resp.Header.Get(headerAcked))
	}
	return nil
}

// splitAddrs parses a comma-separated address list header value.
func splitAddrs(v string) []string {
	if v == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(v, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// HotRate reports a document's current serve-rate EWMA (tests, status).
func (s *Server) HotRate(doc string) float64 { return s.ctl.HotRate(doc) }

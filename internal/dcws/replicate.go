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
	hash := strconv.FormatUint(contentHash(payload), 16)
	intended := strings.Join(append(append(make([]string, 0, len(existing)+len(chain)), existing...), chain...), ",")
	s.pushMu.Lock()
	s.pushing[doc] = chain
	s.pushMu.Unlock()
	defer func() {
		s.pushMu.Lock()
		delete(s.pushing, doc)
		s.pushMu.Unlock()
	}()
	acked := s.walkChain(telemetry.Span{Op: "replicate-push", Target: doc}, chain, replicateTimeout, func(int) *httpx.Request {
		req := httpx.NewRequest("POST", replicatePath)
		req.Body = payload
		req.Header.Set(headerRevokeDoc, key)
		req.Header.Set(headerValidate, hash)
		req.Header.Set(headerReplicas, intended)
		return req
	})
	if len(acked) == 0 {
		return
	}
	s.tel.replicatePushes.Inc()
	s.tel.replicatePushBytes.Add(int64(len(payload)))
	// Install the replica set from the acks only: a chain member that was
	// skipped (link failure) holds no copy and must not receive 301s.
	newReps := append(append(make([]string, 0, len(existing)+len(acked)), existing...), acked...)
	if err := s.relocate(doc, newReps); err != nil {
		s.log.Printf("dcws %s: chain replicate %s: %v", s.Addr(), doc, err)
		return
	}
	if loc == "" {
		now := s.now()
		s.ledger.Record(doc, newReps[0], now)
		s.walAppend(recMigrate, encodeMigrate(doc, newReps[0], now))
		s.tel.migrations.Inc()
	}
	s.walAppend(recReplicas, encodeReplicas(doc, newReps))
	s.log.Printf("dcws %s: chain-replicated %s -> %v (%d of %d links acked, %d bytes uploaded once)",
		s.Addr(), doc, acked, len(acked), len(chain), len(payload))
}

// walkChain is the one chain loop, run by the home and by every relaying
// link, for pushes and revocations alike: it sends build's request to the
// first link of chain that answers 200 within timeout, handing it the rest
// of the chain to relay, and returns that link's aggregated acks (nil when
// none answered). A link that fails is skipped and the next one promoted;
// a nil request from build ends the walk early. All attempts share one
// trace.
func (s *Server) walkChain(span telemetry.Span, chain []string, timeout time.Duration, build func(i int) *httpx.Request) []string {
	if span.TraceID == "" {
		span.TraceID = telemetry.NewTraceID()
	}
	for i, link := range chain {
		req := build(i)
		if req == nil {
			break
		}
		if i+1 < len(chain) {
			req.Header.Set(headerChain, strings.Join(chain[i+1:], ","))
		}
		span.Peer = link
		resp, err := s.rpc(span, req, timeout)
		if err != nil || resp.Status != 200 {
			s.tel.replicateChainSkips.Inc()
			s.log.Printf("dcws %s: %s %s at %s failed, promoting next link", s.Addr(), span.Op, span.Target, link)
			continue
		}
		s.absorbPiggyback(resp.Header)
		return splitAddrs(resp.Header.Get(headerAcked))
	}
	return nil
}

// handleReplicate is the co-op side of a chain push: admit the copy, relay
// the remaining chain to the first reachable successor, and answer with
// the aggregated ack list (self plus everything downstream).
func (s *Server) handleReplicate(req *httpx.Request) *httpx.Response {
	c, resp := s.copyKey(req)
	if resp != nil {
		return resp
	}
	if len(req.Body) == 0 {
		return status(400, "empty replicate body")
	}
	// A pushed copy arrives unasked, so it makes its own record.
	s.coops.Host(c.key)
	if err := s.admitCopy(c.key, req.Body, headerHash(req.Header), req.Header); err != nil {
		return status(500, err.Error())
	}
	s.tel.replicateStored.Inc()
	resp, relayed := s.relayChain(req, "replicate-relay", c.key, "replicated", replicateTimeout, func(int) *httpx.Request {
		next := httpx.NewRequest("POST", replicatePath)
		next.Body = req.Body
		next.Header.Set(headerRevokeDoc, c.key)
		for _, h := range []string{headerValidate, headerReplicas} {
			if v := req.Header.Get(h); v != "" {
				next.Header.Set(h, v)
			}
		}
		return next
	})
	if relayed {
		s.tel.replicateRelays.Inc()
	}
	return resp
}

// handleRevoke is the co-op side of revocation (§4.5): the home server asks
// us to stop hosting one of its documents, and the revocation is relayed
// down the remaining replica hosts.
func (s *Server) handleRevoke(req *httpx.Request) *httpx.Response {
	c, resp := s.copyKey(req)
	if resp != nil {
		return resp
	}
	s.dropCopy(c.key)
	s.log.Printf("dcws %s: revoked %s", s.Addr(), c.key)
	resp, _ = s.relayChain(req, "revoke-relay", c.key, "revoked", s.params.MaintenanceTimeout, func(int) *httpx.Request {
		next := httpx.NewRequest("POST", revokePath)
		next.Header.Set(headerRevokeDoc, c.key)
		return next
	})
	return resp
}

// copyKey reads the hosted copy a replicate or revoke RPC names in
// X-DCWS-Doc; a non-nil response rejects the request.
func (s *Server) copyKey(req *httpx.Request) (coopSeed, *httpx.Response) {
	if req.Method != "POST" {
		return coopSeed{}, status(405, req.Path+" requires POST")
	}
	key := req.Header.Get(headerRevokeDoc)
	if key == "" || !naming.IsMigrated(key) {
		return coopSeed{}, status(400, "missing or invalid "+headerRevokeDoc+" header")
	}
	key, err := store.CleanName(key)
	if err != nil {
		return coopSeed{}, status(400, err.Error())
	}
	home, name, err := naming.Decode(key)
	if err != nil {
		return coopSeed{}, status(400, err.Error())
	}
	if home == s.cfg.Origin {
		return coopSeed{}, status(400, "cannot host a copy of my own document")
	}
	return coopSeed{key: key, home: home.Addr(), name: name}, nil
}

// relayChain finishes a chain RPC at this link, CDTP-style: having applied
// it here, the link walks the rest of the chain the caller handed on,
// inside the caller's trace, and answers with the acks of itself and
// everything downstream. relayed reports whether any downstream link
// acked.
func (s *Server) relayChain(req *httpx.Request, op, key, msg string, timeout time.Duration, build func(int) *httpx.Request) (resp *httpx.Response, relayed bool) {
	acked := []string{s.addr}
	if rest := splitAddrs(req.Header.Get(headerChain)); len(rest) > 0 {
		span := telemetry.Span{TraceID: req.Header.Get(telemetry.TraceHeader),
			ParentID: req.Header.Get(telemetry.ParentHeader), Op: op, Target: key}
		acked = append(acked, s.walkChain(span, rest, timeout, build)...)
	}
	resp = status(200, msg)
	resp.Header.Set(headerAcked, strings.Join(acked, ","))
	return resp, len(acked) > 1
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

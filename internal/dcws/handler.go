package dcws

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"dcws/internal/glt"
	"dcws/internal/graph"
	"dcws/internal/httpx"
	"dcws/internal/metrics"
	"dcws/internal/naming"
	"dcws/internal/resilience"
	"dcws/internal/store"
	"dcws/internal/telemetry"
)

// handle is the worker-thread entry point implementing the request matrix
// of §4.2 and §4.4. Every request carries a trace ID — taken from the
// X-DCWS-Trace extension header when the caller (a client or a peer
// server) supplied one, minted otherwise — which is echoed on the response
// and propagated on any inter-server RPC issued while serving, so the
// spans recorded across the cluster for one logical request share one ID.
func (s *Server) handle(req *httpx.Request) *httpx.Response {
	pig := s.absorbPiggyback(req.Header)
	from := pig.From
	traceID := req.Header.Get(telemetry.TraceHeader)
	if traceID == "" {
		traceID = telemetry.NewTraceID()
	}
	// The caller's span ID (a peer's RPC span) parents our server-side
	// span; our span's ID in turn parents every RPC we issue while
	// serving, so the cluster-wide spans of one trace form a tree.
	parent := req.Header.Get(telemetry.ParentHeader)
	spanID := telemetry.NewSpanID()
	op, hist := s.classifyServe(req)
	start := time.Now()
	startClk := s.now()
	var resp *httpx.Response
	switch {
	case req.Path == pingPath:
		resp = s.handlePing()
	case req.Path == statusPath:
		resp = s.handleStatus()
	case req.Path == metricsPath:
		resp = s.handleMetrics()
	case req.Path == tracePath || strings.HasPrefix(req.Path, tracePath+"?"):
		resp = s.handleTrace(req)
	case req.Path == slowPath || strings.HasPrefix(req.Path, slowPath+"?"):
		resp = s.handleSlow(req)
	case req.Path == profilesPath || strings.HasPrefix(req.Path, profilesPath+"/"):
		resp = s.handleProfiles(req)
	case req.Path == subscribePath:
		resp = s.hub.handleSubscribe(req)
	case req.Path == replicatePath:
		resp = s.handleReplicate(req)
	case strings.HasPrefix(req.Path, revokePath):
		resp = s.handleRevoke(req)
	case req.Path == recallPath:
		resp = s.handleRecall(req)
	case req.Path == migratePath:
		resp = s.handleMigrate(req)
	case req.Path == updatePath:
		resp = s.handleUpdate(req)
	case req.Path == graphPath:
		resp = s.handleGraph()
	case naming.IsMigrated(req.Path):
		resp = s.serveAsCoop(req, traceID, spanID)
	default:
		resp = s.serveAsHome(req)
	}
	// The load table answers the caller's piggyback: a peer's digest frame
	// with the digest response, any other peer header with the delta it
	// has not acked, a plain client with the constant-size self entry.
	hdr, diff := s.table.Answer(pig, MaxPiggybackEntries)
	resp.Header.Set(glt.HeaderName, hdr)
	if from != "" && pig.HasDigests {
		s.tel.digestResponses.Inc()
		s.tel.digestShardsSent.Add(int64(diff))
	}
	resp.Header.Set(telemetry.TraceHeader, traceID)
	if op != "" {
		d := time.Since(start)
		hist.ObserveTrace(d, traceID)
		s.tel.record(telemetry.Span{
			TraceID:  traceID,
			ID:       spanID,
			ParentID: parent,
			Server:   s.addr,
			Op:       op,
			Target:   req.Path,
			Status:   resp.Status,
			Start:    startClk,
			Duration: d,
		})
	} else if pig.HasDigests && from != "" {
		// The responder side of an anti-entropy exchange: cold-start and
		// convergence cost shows up in traces on both ends.
		s.tel.record(telemetry.Span{
			TraceID:  traceID,
			ID:       spanID,
			ParentID: parent,
			Server:   s.addr,
			Op:       "serve-anti-entropy",
			Target:   req.Path,
			Peer:     from,
			Status:   resp.Status,
			Start:    startClk,
			Duration: time.Since(start),
		})
	}
	return resp
}

// classifyServe names the document-serving operation a request performs
// and the latency histogram it feeds. Control endpoints (ping, status,
// metrics, ...) return "" and record no server-side span: the pinger alone
// would otherwise flood the span ring.
func (s *Server) classifyServe(req *httpx.Request) (string, *metrics.Histogram) {
	switch {
	case strings.HasPrefix(req.Path, "/~dcws/"):
		return "", nil
	case naming.IsMigrated(req.Path):
		return "serve-coop", s.tel.serveCoop
	case req.Header.Get(headerFetch) != "":
		return "serve-fetch", s.tel.serveFetch
	default:
		return "serve-home", s.tel.serveHome
	}
}

func (s *Server) handlePing() *httpx.Response {
	resp := httpx.NewResponse(200)
	resp.Header.Set("Content-Type", "text/plain")
	resp.Body = []byte("pong\n")
	return resp
}

// handleRecall is the operator-facing recall endpoint: the home server
// revokes every document currently migrated to the named co-op (§4.5 crash
// recovery, triggered manually, e.g. before taking a co-op down for
// maintenance).
func (s *Server) handleRecall(req *httpx.Request) *httpx.Response {
	if req.Method != "POST" {
		return status(405, "recall requires POST")
	}
	coop := req.Header.Get(headerFetch)
	if coop == "" {
		return status(400, "missing "+headerFetch+" header naming the co-op")
	}
	n := s.RecallFrom(coop)
	return status(200, fmt.Sprintf("recalled %d documents from %s", n, coop))
}

// handleMigrate is the operator-facing counterpart of recall: the home
// server hands one of its documents to the named co-op (POST with the
// document name in the X-DCWS-Doc header and the co-op's address in
// X-DCWS-Fetch). With the co-op named "auto" — or omitted — the server
// picks the target itself with the placement policy (zone-local first,
// most headroom first), which lets operators and smoke harnesses say
// "move this somewhere sensible" without re-implementing placement. The
// copy stays lazy — the co-op fetches it on first touch, exactly like a
// load-driven migration (§4.2).
func (s *Server) handleMigrate(req *httpx.Request) *httpx.Response {
	if req.Method != "POST" {
		return status(405, "migrate requires POST")
	}
	name := req.Header.Get(headerRevokeDoc)
	coop := req.Header.Get(headerFetch)
	if name == "" {
		return status(400, "migrate requires the "+headerRevokeDoc+" header")
	}
	if coop == "" || coop == "auto" {
		coop = s.ctl.PickPlacement()
		if coop == "" {
			return status(503, "no eligible co-op server for placement")
		}
	}
	name, err := store.CleanName(name)
	if err != nil {
		return status(400, err.Error())
	}
	if coop == s.addr {
		return status(400, "cannot migrate a document to its own home")
	}
	loc, _, _, known := s.ldg.ServeInfo(name)
	if !known {
		return status(404, "no such document: "+name)
	}
	if loc != "" {
		return status(409, fmt.Sprintf("%s is already migrated to %s", name, loc))
	}
	s.migrate(name, coop)
	return status(200, fmt.Sprintf("migrated %s to %s", name, coop))
}

// handleUpdate replaces one home document's content (operational
// endpoint, like recall): POST /~dcws/update with the document name in
// the X-DCWS-Doc header and the new bytes as the body. Runs the full
// update path — reparse, dirty propagation, WAL append, and an
// invalidation push to every subscribed co-op.
func (s *Server) handleUpdate(req *httpx.Request) *httpx.Response {
	if req.Method != "POST" {
		return status(405, "update requires POST")
	}
	name := req.Header.Get(headerRevokeDoc)
	if name == "" {
		return status(400, "missing "+headerRevokeDoc+" header naming the document")
	}
	if _, err := store.CleanName(name); err != nil {
		return status(400, err.Error())
	}
	// The error says whether the update changed nothing or was applied
	// without becoming durable; neither is the client's fault.
	if err := s.UpdateDocument(name, req.Body); err != nil {
		return status(500, err.Error())
	}
	return status(200, fmt.Sprintf("updated %s (%d bytes)", name, len(req.Body)))
}

// serveAsHome handles requests for this server's own documents: serve them
// (regenerating first when dirty), or redirect with 301 when the document
// has been migrated away (§4.4).
func (s *Server) serveAsHome(req *httpx.Request) *httpx.Response {
	if req.Method != "GET" && req.Method != "HEAD" {
		return status(405, "only GET and HEAD are supported")
	}
	name, err := store.CleanName(req.Path)
	if err != nil {
		return status(400, err.Error())
	}
	if name == "/" {
		name = "/index.html"
	}
	// Existence is the document graph's answer: no file-system call stands
	// between a request and a render-cache hit or a 301. A file that
	// vanished behind the server's back surfaces as store.ErrNotFound on
	// the cache miss or open that goes looking for it (loadFailure).
	loc, dirty, gen, size, known := s.ldg.ServeInfoSize(name)
	if !known {
		return status(404, "no such document: "+name)
	}

	if req.Header.Get(headerFetch) != "" {
		return s.serveFetch(req, name, gen)
	}

	if loc != "" {
		// Migrated away: answer with a small 301; all the information is
		// in the local document graph, no disk access needed (§4.4).
		if target := s.pickReplica(name, ""); target != "" {
			coop, err := naming.ParseOrigin(target)
			if err != nil {
				s.log.Printf("dcws %s: bad coop address %q for %s", s.Addr(), target, name)
				return status(500, "bad migration target")
			}
			url, err := naming.MigratedURL(coop, s.cfg.Origin, name)
			if err != nil {
				return status(500, err.Error())
			}
			resp := httpx.NewResponse(301)
			resp.Header.Set("Location", url)
			resp.Body = []byte("moved to " + url + "\n")
			s.stats.Redirects.Inc()
			s.stats.ObserveRequest(s.now(), int64(len(resp.Body)))
			return resp
		}
		// Revoked between the ServeInfo snapshot and the replica lookup:
		// the document is home again — refresh the snapshot and serve it.
		_, dirty, gen, size, _ = s.ldg.ServeInfoSize(name)
	}

	b, err := s.loadLocal(name, dirty, gen, size)
	if err != nil {
		return loadFailure(name, err)
	}
	s.ldg.RecordHit(name)
	return s.respond(req.Method, name, b)
}

// docBody is a document body on its way into a response: shared bytes,
// or the open file and its size for a body sent with sendfile.
type docBody struct {
	data []byte
	file *os.File
	size int64
}

func bytesBody(data []byte) docBody { return docBody{data: data, size: int64(len(data))} }

// sendsFile reports whether a stored body of the given size — the size the
// server's own records hold, so the choice costs no I/O — is sent from its
// file: the store opens files and the body is at least store.LargeBody.
func (s *Server) sendsFile(size int64) bool {
	return s.files != nil && size >= store.LargeBody
}

// loadStored reads the stored document key for a response: its file when
// sendsFile(size), else its shared bytes.
func (s *Server) loadStored(key string, size int64) (docBody, error) {
	if s.sendsFile(size) {
		f, n, err := s.files.OpenFile(key)
		return docBody{file: f, size: n}, err
	}
	data, err := store.GetShared(s.cfg.Store, key)
	return bytesBody(data), err
}

// respond answers a GET or HEAD for the document name with b and counts
// the bytes served. A file body is closed here for a HEAD, and by the HTTP
// server once a GET's response has been written.
func (s *Server) respond(method, name string, b docBody) *httpx.Response {
	resp := httpx.NewResponse(200)
	resp.Header.Set("Content-Type", httpx.ContentTypeFor(name))
	switch {
	case method == "HEAD":
		// GET responses let the wire writer derive Content-Length from the
		// body; HEAD has no body, so it must be explicit.
		resp.Header.Set("Content-Length", strconv.FormatInt(b.size, 10))
		if b.file != nil {
			b.file.Close()
		}
	case b.file != nil:
		resp.File, resp.FileSize = b.file, b.size
	default:
		resp.Body = b.data
	}
	s.stats.ObserveRequest(s.now(), b.size)
	return resp
}

// loadLocal returns a home document's body, regenerating its hyperlinks
// first if it is HTML and the Dirty bit is set (§4.3: regeneration is
// postponed until the latest possible time). Any other document large
// enough to be sent from its file is opened and never enters the render
// cache, unless its newest body is staged (its file is older), which is
// served from bytes. The rest come from the rendered-document cache when
// possible; the caller's (dirty, gen) snapshot keys the lookup, so a
// concurrent migration that dirties the document can never yield a stale
// hit.
func (s *Server) loadLocal(name string, dirty bool, gen uint64, size int64) (docBody, error) {
	if s.sendsFile(size) && (!dirty || !graph.IsHTML(name)) {
		if dirty {
			s.ldg.ClearDirty(name) // no hyperlinks to regenerate
		}
		if data, ok := s.stagedBody(name); ok {
			return bytesBody(data), nil
		}
		return s.loadStored(name, size)
	}
	if dirty {
		if data, err := s.regenerate(name, gen); err == nil {
			return bytesBody(data), nil
		} else {
			s.log.Printf("dcws %s: regenerate %s: %v", s.Addr(), name, err)
			// Fall through to the stored copy; stale links still work via
			// 301 redirects.
		}
	}
	if data, ok := s.rcache.get(name, gen); ok {
		return bytesBody(data), nil
	}
	data, err := s.homeBody(name)
	if err != nil {
		return docBody{}, err
	}
	s.rcache.put(name, gen, data)
	return bytesBody(data), nil
}

// loadFailure maps a failed read of a home document to its response: a
// document the graph knows but the store no longer holds is 404, exactly
// what an unknown name gets; anything else is a server error.
func loadFailure(name string, err error) *httpx.Response {
	if errors.Is(err, store.ErrNotFound) {
		return status(404, "no such document: "+name)
	}
	return status(500, err.Error())
}

// serveFetch is the home side of a co-op server's internal document fetch
// (lazy physical migration, §4.2, and validation re-requests, §4.5). The
// co-op copy's hash is recorded by generation, so a steady-state
// validation costs a lookup and a hash comparison; a lazy fetch, or a
// validation whose hash no longer matches, renders the copy again, because
// the home keeps no co-op copy bytes.
func (s *Server) serveFetch(req *httpx.Request, name string, gen uint64) *httpx.Response {
	if !s.hostsCopy(name, req.Header.Get(headerFetch)) {
		// The document is not (or no longer) assigned to this co-op; point
		// at its authoritative location so the coop can relay the redirect.
		resp := httpx.NewResponse(301)
		resp.Header.Set("Location", naming.HomeURL(s.cfg.Origin, name))
		return resp
	}
	// Tell the co-op who else replicates this document so it can hedge
	// future fetches when we are slow.
	reps := strings.Join(s.replicas.Get(name), ",")
	notModified := func() *httpx.Response {
		resp := httpx.NewResponse(304)
		if reps != "" {
			resp.Header.Set(headerReplicas, reps)
		}
		return resp
	}
	want, err := strconv.ParseUint(req.Header.Get(headerValidate), 16, 64)
	validating := err == nil
	if validating {
		if h, ok := s.rcache.copyHash(name, gen); ok && h == want {
			return notModified()
		}
	}
	data, h, err := s.renderCopy(name, gen)
	if err != nil {
		return loadFailure(name, err)
	}
	if validating && h == want {
		return notModified()
	}
	s.stats.Fetches.Inc()
	resp := httpx.NewResponse(200)
	resp.Header.Set("Content-Type", httpx.ContentTypeFor(name))
	resp.Header.Set(headerValidate, strconv.FormatUint(h, 16))
	if reps != "" {
		resp.Header.Set(headerReplicas, reps)
	}
	resp.Body = data
	return resp
}

// serveAsCoop handles /~migrate requests: serve the local copy, or perform
// the lazy physical migration by fetching from the home server first
// (§4.2). traceID is propagated to the home server on that fetch, and
// spanID — this request's serve span — parents the fetch legs.
func (s *Server) serveAsCoop(req *httpx.Request, traceID, spanID string) *httpx.Response {
	if req.Method != "GET" && req.Method != "HEAD" {
		return status(405, "only GET and HEAD are supported")
	}
	key, err := store.CleanName(req.Path)
	if err != nil {
		return status(400, err.Error())
	}
	home, docName, err := naming.Decode(key)
	if err != nil {
		return status(400, err.Error())
	}
	if home == s.cfg.Origin {
		// A ~migrate URL naming ourselves as home: the client followed a
		// stale link; the canonical copy is served under its plain name.
		resp := httpx.NewResponse(301)
		resp.Header.Set("Location", naming.HomeURL(s.cfg.Origin, docName))
		s.stats.Redirects.Inc()
		return resp
	}

	if req.Header.Get(headerHedge) != "" {
		// A sibling replica's hedged fetch: serve only a physically present
		// copy. A hedge probe must never recurse into a fetch of its own —
		// the sibling is likely asking us precisely because the home server
		// is stalled.
		return s.serveHedged(key, docName)
	}

	// One critical section per request: lookup (creating the record for a
	// first-touch lazy migration), the windowHit bump, the LRU re-ordering
	// and the co-op core's decision all happen inside Coop.Touch.
	now := s.now()
	v, act := s.coops.Touch(key, now)
	switch act {
	case CoopValidate:
		// The copy's lease expired without renewal — the home is
		// unreachable past the partition tolerance. Fail closed: a
		// synchronous conditional GET either re-validates (and re-leases)
		// the copy or proves we cannot vouch for its freshness.
		if s.validateOne(key) == "error" {
			s.tel.invalLeaseExpired.Inc()
			return status(503, "lease expired and home unreachable")
		}
		if v, _ = s.coops.View(key); !v.Present {
			return status(404, "no longer hosted here")
		}
	case CoopFetch:
		if resp := s.fetchOnce(key, home, docName, traceID, spanID); resp != nil {
			return resp // relay of a redirect or an error
		}
	}

	// v.Size is zero for a copy fetched just now, which is then served
	// from bytes once; present copies of at least store.LargeBody are sent
	// from their files.
	b, err := s.loadStored(key, v.Size)
	if err != nil {
		// Copy vanished (e.g. revoked between check and read): refetch once.
		s.coops.markAbsent(key)
		if resp := s.fetchOnce(key, home, docName, traceID, spanID); resp != nil {
			return resp
		}
		if b, err = s.loadStored(key, 0); err != nil {
			return status(500, err.Error())
		}
	}
	return s.respond(req.Method, docName, b)
}

// serveHedged answers a sibling replica's hedged fetch for a document both
// servers host: the local copy is served only if physically present, with
// its validator hash so the requester can store it exactly as it would a
// home fetch. Absence is a plain 404 — the requester's primary leg against
// the home server remains its path to the bytes.
func (s *Server) serveHedged(key, docName string) *httpx.Response {
	v, ok := s.coops.View(key)
	if !ok || !v.Present {
		return status(404, "no local copy")
	}
	b, err := s.loadStored(key, v.Size)
	if err != nil {
		s.coops.markAbsent(key)
		return status(404, "no local copy")
	}
	s.coops.Touch(key, s.now()) // the hit counts; a present copy is served as is
	resp := s.respond("GET", docName, b)
	resp.Header.Set(headerValidate, strconv.FormatUint(v.Hash, 16))
	return resp
}

// fetchCall is one lazy fetch in flight. resp is its outcome, read by its
// waiters once done is closed: nil when the copy was admitted, else the
// response to relay.
type fetchCall struct {
	done chan struct{}
	resp *httpx.Response
}

// fetchOnce runs fetchFromHome for key unless a fetch of key is already in
// flight, in which case it waits for that fetch and shares its outcome,
// failure included: concurrent first touches cost the home one fetch and
// one rendering. The in-flight record is removed in a defer, so a leader
// that panics (httpx recovers handler panics) still releases its waiters,
// with a 500.
func (s *Server) fetchOnce(key string, home naming.Origin, docName, traceID, parent string) *httpx.Response {
	s.fetchMu.Lock()
	if c, ok := s.fetching[key]; ok {
		s.fetchMu.Unlock()
		<-c.done
		return cloneResponse(c.resp)
	}
	c := &fetchCall{done: make(chan struct{}), resp: status(500, "fetch of "+docName+" failed")}
	s.fetching[key] = c
	s.fetchMu.Unlock()
	defer func() {
		s.fetchMu.Lock()
		delete(s.fetching, key)
		s.fetchMu.Unlock()
		close(c.done)
	}()
	c.resp = s.fetchFromHome(key, home, docName, traceID, parent)
	return cloneResponse(c.resp)
}

// cloneResponse gives each request of a shared fetch outcome a response of
// its own: the server writes headers into the response it sends. The body
// is shared, never written.
func cloneResponse(r *httpx.Response) *httpx.Response {
	if r == nil {
		return nil
	}
	out := httpx.NewResponse(r.Status)
	for k, v := range r.Header {
		out.Header[k] = slices.Clone(v)
	}
	out.Body = r.Body
	return out
}

// fetchFromHome performs the physical half of a lazy migration. It returns
// nil on success (the copy is now in the store), or a response to relay to
// the client on failure. Transient failures are retried with backoff
// through the home's circuit breaker before the 503 is admitted; while
// the breaker is open the fetch degrades to an immediate 503 without
// tying a worker up in doomed connection attempts. When a healthy sibling
// replica of the document is known, the fetch is hedged against it.
func (s *Server) fetchFromHome(key string, home naming.Origin, docName, traceID, parent string) *httpx.Response {
	homeAddr := home.Addr()
	if sib := s.pickHedgeSibling(key, homeAddr); sib != "" {
		return s.fetchHedged(key, homeAddr, docName, traceID, parent, sib)
	}
	resp, err := s.fetchLeg(homeAddr, docName, "fetch-home", false, traceID, parent, nil, s.fetchPolicy)
	if err != nil {
		return s.fetchFailure(homeAddr, docName, err)
	}
	return s.finishFetch(key, resp)
}

// fetchLeg runs one leg of a (possibly hedged) fetch through peer's
// breaker and the given retry policy, recording a trace span for the
// whole attempt set. A hedge leg requests the migrated key with the
// hedge header set, so the sibling serves only a present copy. The
// cancel token, when given, lets the losing leg of a race be aborted
// mid-flight without charging the abort to the peer's breaker.
func (s *Server) fetchLeg(peer, path, op string, hedge bool, traceID, parent string, tok *httpx.CancelToken, policy resilience.Policy) (*httpx.Response, error) {
	start := time.Now()
	startClk := s.now()
	attempts := 0
	spanID := telemetry.NewSpanID()
	var resp *httpx.Response
	err := s.res.Execute(policy, peer, func() error {
		if tok != nil && tok.Canceled() {
			return resilience.ErrAborted
		}
		attempts++
		// Headers are rebuilt per attempt so every retry piggybacks the
		// freshest load view.
		extra := make(httpx.Header)
		extra.Set(headerFetch, s.Addr())
		extra.Set(telemetry.TraceHeader, traceID)
		extra.Set(telemetry.ParentHeader, spanID)
		if hedge {
			extra.Set(headerHedge, "1")
		} else {
			s.attachHotReport(extra, peer)
		}
		s.piggybackTo(extra, peer)
		req := httpx.NewRequest("GET", path)
		for k, vs := range extra {
			req.Header[k] = vs
		}
		r, err := s.client.DoCancel(peer, req, s.params.FetchTimeout, tok)
		if err != nil {
			if tok != nil && tok.Canceled() {
				// The race was decided elsewhere; the abort says nothing
				// about this peer's health.
				return fmt.Errorf("%w: %v", resilience.ErrAborted, err)
			}
			return err
		}
		resp = r
		return nil
	})
	span := telemetry.Span{
		TraceID:  traceID,
		ID:       spanID,
		ParentID: parent,
		Server:   s.addr,
		Op:       op,
		Target:   path,
		Peer:     peer,
		Attempts: attempts,
		Start:    startClk,
		Duration: time.Since(start),
	}
	if err != nil {
		span.Err = err.Error()
	} else {
		span.Status = resp.Status
	}
	s.tel.record(span)
	return resp, err
}

// fetchHedged races the home server against a sibling replica: the
// primary leg runs the normal retried fetch; if it has not produced a
// usable response within Params.HedgeDelay — or fails outright — a
// single-attempt hedge leg asks the sibling for its copy. The first
// usable response wins and the loser is canceled mid-flight, retiring
// its connection.
func (s *Server) fetchHedged(key, homeAddr, docName, traceID, parent, sib string) *httpx.Response {
	type leg struct {
		resp *httpx.Response
		err  error
	}
	tokP := &httpx.CancelToken{}
	tokH := &httpx.CancelToken{}
	primary := make(chan leg, 1)
	go func() {
		r, err := s.fetchLeg(homeAddr, docName, "fetch-home", false, traceID, parent, tokP, s.fetchPolicy)
		primary <- leg{r, err}
	}()

	var p leg
	havePrimary := false
	timer := time.NewTimer(s.params.HedgeDelay)
	select {
	case p = <-primary:
		havePrimary = true
		timer.Stop()
		if p.err == nil {
			return s.finishFetch(key, p.resp)
		}
		// Primary failed before the delay elapsed: launch the hedge
		// immediately as a fallback source.
	case <-timer.C:
	}

	s.tel.hedgeLaunched.Inc()
	hedge := make(chan leg, 1)
	go func() {
		r, err := s.fetchLeg(sib, key, "fetch-hedge", true, traceID, parent, tokH, resilience.Policy{MaxAttempts: 1})
		hedge <- leg{r, err}
	}()

	haveHedge := false
	for {
		var h leg
		select {
		case p = <-primary:
			havePrimary = true
		case h = <-hedge:
			haveHedge = true
			if h.err == nil && h.resp.Status == 200 {
				// Hedge won: reel in the primary leg and use the sibling's
				// copy.
				tokP.Cancel()
				s.tel.hedgeWon.Inc()
				return s.finishFetch(key, h.resp)
			}
			// Only the primary can win now. A sibling that answered but
			// had no usable copy is a miss — the replica list was stale —
			// not a lost race; only errors count as wasted here. The stale
			// entry is dropped so the next fetch does not race toward a
			// sibling whose replica was revoked.
			if h.err == nil {
				s.tel.hedgeMiss.Inc()
				s.coops.dropSibling(key, sib)
			} else {
				s.tel.hedgeWasted.Inc()
			}
		}
		if havePrimary && p.err == nil {
			// Primary delivered a usable response; a still-in-flight hedge
			// leg lost the race and is reeled in.
			if !haveHedge {
				tokH.Cancel()
				s.tel.hedgeWasted.Inc()
			}
			return s.finishFetch(key, p.resp)
		}
		if havePrimary && haveHedge {
			return s.fetchFailure(homeAddr, docName, p.err)
		}
	}
}

// pickHedgeSibling returns a healthy sibling replica to race against the
// home server for key, or "" when hedging is disabled or no alternate
// source is known. A same-zone sibling is preferred — the hedge exists to
// shave tail latency, and a zone-local hop is the faster leg — with any
// healthy sibling as the fallback. Siblings are learned from
// X-DCWS-Replicas headers on earlier fetch and validation responses.
func (s *Server) pickHedgeSibling(key, homeAddr string) string {
	if s.params.HedgeDelay < 0 {
		return ""
	}
	var fallback string
	for _, sib := range s.coops.siblingsOf(key) {
		if sib == homeAddr || sib == s.addr || s.peerSuspect(sib) {
			continue
		}
		if z := s.params.Zone; z != "" {
			if e, ok := s.table.Get(sib); ok && e.Zone == z {
				return sib
			}
		}
		if fallback == "" {
			fallback = sib
		}
	}
	return fallback
}

// fetchFailure maps a failed fetch to the response relayed to the client.
func (s *Server) fetchFailure(homeAddr, docName string, err error) *httpx.Response {
	if errors.Is(err, resilience.ErrOpen) {
		return status(503, "home server unreachable (circuit open)")
	}
	s.log.Printf("dcws %s: fetch %s from %s: %v", s.Addr(), docName, homeAddr, err)
	return status(503, "home server unreachable")
}

// finishFetch applies a fetch leg's response: 200 admits the copy, 301
// relays the redirect and drops the document, anything else becomes a
// 502. Returns nil on success, mirroring fetchFromHome's contract.
func (s *Server) finishFetch(key string, resp *httpx.Response) *httpx.Response {
	s.absorbPiggyback(resp.Header)
	switch resp.Status {
	case 200:
		if err := s.admitCopy(key, resp.Body, headerHash(resp.Header), resp.Header); err != nil {
			return status(500, err.Error())
		}
		s.stats.Fetches.Inc()
		return nil
	case 301:
		// Not assigned to us (revoked or re-migrated): relay the redirect
		// and stop hosting the document.
		s.dropCopy(key)
		out := httpx.NewResponse(301)
		out.Header.Set("Location", resp.Header.Get("Location"))
		s.stats.Redirects.Inc()
		return out
	default:
		return status(502, fmt.Sprintf("home server answered %d", resp.Status))
	}
}

// admitCopy is the one way a copy enters this co-op: a lazy fetch, a hedge
// win, a chain push, a validator or pushed-update refetch, and a copy the
// home shipped down the subscription channel. It stores the bytes and has
// the co-op core admit the copy under hash, the home's hash of body (zero:
// the bytes' own), which also enforces Params.CoopCacheBytes and, with
// leases on, leases the copy (Coop.Admit). It learns the copy's sibling
// replicas from hdr's X-DCWS-Replicas (a shipped copy has no hdr), logs
// the admission and the evictions, and subscribes a copy that was not
// present before to its home's channel; a refresh is subscribed already.
// A copy the core refuses was revoked while its bytes were on the way:
// the bytes are dropped.
func (s *Server) admitCopy(key string, body []byte, hash uint64, hdr httpx.Header) error {
	v, ok := s.coops.View(key)
	if !ok {
		return nil // revoked before the bytes arrived
	}
	if err := s.cfg.Store.Put(key, body); err != nil {
		return err
	}
	c := coopSeed{key: key, home: v.Home, name: v.Name, present: true, size: int64(len(body)), hash: hash}
	if c.hash == 0 {
		c.hash = contentHash(body)
	}
	admitted, evicted := s.coops.Admit(key, c.size, c.hash, s.now())
	if !admitted {
		if err := s.cfg.Store.Delete(key); err != nil {
			s.log.Printf("dcws %s: delete revoked copy %s: %v", s.Addr(), key, err)
		}
		return nil
	}
	s.absorbReplicas(key, hdr)
	s.walAppend(recCoopAdmit, encodeCoopAdmit(c))
	for _, old := range evicted {
		if err := s.cfg.Store.Delete(old); err != nil {
			s.log.Printf("dcws %s: evict %s: %v", s.Addr(), old, err)
		}
		s.walAppend(recCoopEvict, encodeNameRecord(old))
		s.log.Printf("dcws %s: evicted %s (co-op cache over %d bytes)", s.Addr(), old, s.params.CoopCacheBytes)
	}
	if s.params.LeaseDuration > 0 && !v.Present {
		s.subs.ensureSubscribed(v.Home, invDoc{name: v.Name, hash: c.hash})
	}
	return nil
}

// headerHash reads the home's content hash of a copy from X-DCWS-Validate;
// zero when absent.
func headerHash(h httpx.Header) uint64 {
	v, _ := strconv.ParseUint(h.Get(headerValidate), 16, 64)
	return v
}

// dropCopy is the one way a copy leaves this co-op for good: a revocation
// (RPC, chain relay or pushed frame), a pushed delete, and a home that
// answers a fetch or validation with anything but the copy. It forgets the
// record, deletes the stored bytes and logs the forget; a key not hosted
// is left alone.
func (s *Server) dropCopy(key string) {
	if !s.coops.Drop(key) {
		return
	}
	if err := s.cfg.Store.Delete(key); err != nil {
		s.log.Printf("dcws %s: delete dropped copy %s: %v", s.Addr(), key, err)
	}
	s.walAppend(recCoopForget, encodeNameRecord(key))
}

// absorbReplicas learns a document's sibling replicas from the home's
// X-DCWS-Replicas header (this server excluded).
func (s *Server) absorbReplicas(key string, h httpx.Header) {
	if v := h.Get(headerReplicas); v != "" {
		s.coops.setSiblings(key, removeAddr(splitAddrs(v), s.addr))
	}
}

// status builds a small plain-text response.
func status(code int, msg string) *httpx.Response {
	resp := httpx.NewResponse(code)
	resp.Header.Set("Content-Type", "text/plain")
	resp.Body = []byte(msg + "\n")
	return resp
}

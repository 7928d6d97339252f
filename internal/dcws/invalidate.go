package dcws

import (
	"bufio"
	"encoding/binary"
	"net"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/naming"
	"dcws/internal/resilience"
	"dcws/internal/telemetry"
)

// Push invalidation with leases over a persistent subscription channel.
//
// The paper's §4.5 validator polls every hosted copy every T_val, so a
// 16-node cluster in steady state burns hundreds of validation RPCs per
// second telling each other nothing changed. This extension inverts the
// flow: each co-op opens ONE long-lived upgraded connection per home
// server (a 101 handshake on /~dcws/subscribe, then length-prefixed
// frames), the home remembers which documents each subscriber hosts and
// pushes an invalidation frame the moment a document changes — one frame
// type, naming one document or every document a change dirtied, with no
// content hash because the co-op re-validates by conditional GET — and every
// hosted copy holds a lease of Params.LeaseDuration renewed implicitly by
// channel liveness. While the channel is live and the lease unexpired the
// validator skips the copy entirely; when the channel drops — or goes
// silent for three heartbeats — the co-op degrades to the paper's
// timeout-polled validation, so a partitioned node is never less safe
// than the base design. Subscriber sets are WAL-logged on the home, so a
// crashed home recovers knowing who to push to once they reconnect.

// Frame types exchanged on an upgraded subscription connection. Both
// directions share the codec in httpx/frames.go.
const (
	// frameSubscribe (coop -> home): the coop's inventory of hosted
	// documents for this home — uvarint count, then per document the
	// home-side name and the coop's content hash. The home registers the
	// subscriber and answers with catch-up invalidations for any document
	// whose current hash differs (changes missed while disconnected).
	frameSubscribe byte = 1
	// frameInvalidate (home -> coop): documents changed — a kind byte
	// (invalUpdate/invalDelete/invalRevoke), a uvarint count, the
	// home-side names, and the channel sequence number. One frame carries
	// one document or a migration's whole link-rewrite storm, so a
	// subscriber gets one frame per change, not one per document. No
	// content hash rides along: the coop re-validates an update by
	// conditional GET.
	frameInvalidate byte = 2
	// framePing (either direction): empty keepalive; receipt renews every
	// lease held from the peer.
	framePing byte = 3
	// frameAck (coop -> home): the named document's invalidation was
	// applied (refetched, or dropped for delete/revoke).
	frameAck byte = 4
	// frameUnsubscribe (coop -> home): the coop stopped hosting the named
	// document (evicted past re-fetch, or forgotten); the home stops
	// pushing for it.
	frameUnsubscribe byte = 5
)

// Invalidation frames end in a per-channel sequence number, a uvarint: the
// home stamps frames 1, 2, 3, … per subscriber connection under the write
// mutex, so the co-op can detect a dropped frame on a live channel — a gap
// — and resync by re-sending its inventory (the home answers with catch-up
// invalidations for anything whose hash is stale).

// Invalidation kinds carried by frameInvalidate.
const (
	invalUpdate byte = 0 // content changed: revalidate now
	invalDelete byte = 1 // document deleted at home: drop the copy
	invalRevoke byte = 2 // hosting revoked: drop the copy
)

// invalHeartbeat resolves the heartbeat interval from Params: explicit
// when set, LeaseDuration/4 when zero (three missed beats < one lease, so
// a silent partition degrades to polling before any lease expires), and
// disabled when negative.
func (p Params) invalHeartbeat() time.Duration {
	switch {
	case p.InvalidateHeartbeat > 0:
		return p.InvalidateHeartbeat
	case p.InvalidateHeartbeat < 0:
		return 0
	default:
		return p.LeaseDuration / 4
	}
}

// ---- frame payload encoding ---------------------------------------------

// encodeInventory builds a frameSubscribe payload from (name, hash) pairs.
func encodeInventory(docs []invDoc) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(docs)))
	for _, d := range docs {
		buf = putStr(buf, d.name)
		buf = binary.AppendUvarint(buf, d.hash)
	}
	return buf
}

// invDoc is one (home-side name, content hash) inventory entry.
type invDoc struct {
	name string
	hash uint64
}

func decodeInventory(data []byte) ([]invDoc, error) {
	n, data, err := getDocCount(data, 2)
	if err != nil {
		return nil, err
	}
	docs := make([]invDoc, 0, n)
	for i := uint64(0); i < n; i++ {
		var d invDoc
		if d.name, data, err = getStr(data); err != nil {
			return nil, err
		}
		if d.hash, data, err = getUvarint(data); err != nil {
			return nil, err
		}
		docs = append(docs, d)
	}
	return docs, nil
}

// encodeInvalidate frames one kind of invalidation for names: kind byte,
// uvarint count, the names, trailing sequence number.
func encodeInvalidate(kind byte, names []string, seq uint64) []byte {
	buf := make([]byte, 0, 16*len(names)+12)
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, n := range names {
		buf = putStr(buf, n)
	}
	return binary.AppendUvarint(buf, seq)
}

func decodeInvalidate(data []byte) (kind byte, names []string, seq uint64, err error) {
	if len(data) < 1 {
		return 0, nil, 0, errInvalFrame
	}
	kind = data[0]
	n, data, err := getDocCount(data[1:], 1)
	if err != nil {
		return 0, nil, 0, err
	}
	names = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		var name string
		if name, data, err = getStr(data); err != nil {
			return 0, nil, 0, err
		}
		names = append(names, name)
	}
	if seq, _, err = getUvarint(data); err != nil {
		return 0, nil, 0, err
	}
	return kind, names, seq, nil
}

// getDocCount reads an entry count off a frame, WAL record or snapshot
// and bounds it by what the rest of the payload can hold — every entry
// takes at least minEntry bytes (a name's length byte, plus a hash byte in
// an inventory) — so a forged count cannot size an allocation.
func getDocCount(data []byte, minEntry uint64) (uint64, []byte, error) {
	n, data, err := getUvarint(data)
	if err != nil {
		return 0, nil, err
	}
	if n > uint64(len(data))/minEntry {
		return 0, nil, errInvalFrame
	}
	return n, data, nil
}

var errInvalFrame = errStr("dcws: truncated payload")

type errStr string

func (e errStr) Error() string { return string(e) }

// encodeName / decodeName frame a single document name (frameAck,
// frameUnsubscribe).
func encodeName(name string) []byte { return putStr(nil, name) }

func decodeName(data []byte) (string, error) {
	name, _, err := getStr(data)
	return name, err
}

// ---- home side: the invalidation hub ------------------------------------

// invalSubscriber is one co-op's subscription as the home sees it: the
// documents it hosts (home-side names) and, while connected, the upgraded
// connection to push frames down. The docs set survives disconnection —
// and, via the WAL, a home crash — so a reconnecting subscriber gets
// catch-up invalidations for everything that changed while it was away.
type invalSubscriber struct {
	addr string
	docs map[string]bool

	conn    net.Conn // nil while disconnected
	writeMu sync.Mutex
	// seq numbers invalidation frames on this channel (guarded by
	// writeMu, so wire order and sequence order agree). It deliberately
	// survives reconnects: frames written to a dying connection consume
	// numbers, and the coop re-baselines on its first received frame.
	seq uint64
}

// invalHub is the home side of push invalidation: the subscriber table,
// the upgrade handler, and the push fan-out called from every mutation
// path (update, delete, revoke, migration link-rewrite).
type invalHub struct {
	s  *Server
	mu sync.Mutex
	// subs is keyed by subscriber (co-op) address.
	subs map[string]*invalSubscriber
}

func newInvalHub(s *Server) *invalHub {
	return &invalHub{s: s, subs: make(map[string]*invalSubscriber)}
}

// restore re-installs a recovered subscriber (disconnected) with its doc
// set, so pushes resume after it reconnects.
func (h *invalHub) restore(addr string, docs []string) {
	h.mu.Lock()
	sub, ok := h.subs[addr]
	if !ok {
		sub = &invalSubscriber{addr: addr, docs: make(map[string]bool)}
		h.subs[addr] = sub
	}
	for _, d := range docs {
		sub.docs[d] = true
	}
	h.mu.Unlock()
}

// snapshot captures the subscriber table in durable form, sorted by
// address (the subscribers section of the state snapshot).
func (h *invalHub) snapshot() map[string][]string {
	h.mu.Lock()
	out := make(map[string][]string, len(h.subs))
	for addr, sub := range h.subs {
		docs := make([]string, 0, len(sub.docs))
		for d := range sub.docs {
			docs = append(docs, d)
		}
		out[addr] = docs
	}
	h.mu.Unlock()
	return out
}

// subscriberCount reports connected and total subscribers (the two
// dcws_invalidate_subscribers* gauges).
func (h *invalHub) subscriberCount() (connected, total int) {
	h.mu.Lock()
	for _, sub := range h.subs {
		if sub.conn != nil {
			connected++
		}
	}
	total = len(h.subs)
	h.mu.Unlock()
	return connected, total
}

// handleSubscribe answers a co-op's GET /~dcws/subscribe with a 101 whose
// Hijack takes over the connection for framed traffic. The hijack
// callback runs on the connection's own httpx goroutine, after its worker
// slot is released. The HTTP server waits for that goroutine when it
// stops, so the callback must not block: it spawns the reader and
// heartbeat goroutines and returns immediately.
func (h *invalHub) handleSubscribe(req *httpx.Request) *httpx.Response {
	if h.s.params.LeaseDuration <= 0 {
		return status(404, "push invalidation disabled")
	}
	coopAddr := req.Header.Get(headerFetch)
	if coopAddr == "" {
		return status(400, "missing "+headerFetch+" header naming the subscriber")
	}
	resp := httpx.NewResponse(101)
	resp.Header.Set("Connection", "keep-alive")
	resp.Hijack = func(conn net.Conn, br *bufio.Reader) {
		h.attach(coopAddr, conn, br)
	}
	return resp
}

// attach binds an upgraded connection to the subscriber record for addr,
// replacing any previous connection, and spawns its reader and heartbeat
// goroutines. Runs as the hijack callback; must not block.
func (h *invalHub) attach(addr string, conn net.Conn, br *bufio.Reader) {
	h.mu.Lock()
	sub, ok := h.subs[addr]
	if !ok {
		sub = &invalSubscriber{addr: addr, docs: make(map[string]bool)}
		h.subs[addr] = sub
	}
	old := sub.conn
	sub.conn = conn
	h.mu.Unlock()
	if old != nil {
		old.Close() // stale reconnect raced us; its reader exits
	}
	s := h.s
	var lastRecv atomic.Int64
	lastRecv.Store(s.now().UnixNano())
	// The reader and heartbeat goroutines ride s.wg so shutdown waits for
	// them; guard against a subscribe racing Close.
	select {
	case <-s.stopped:
		conn.Close()
		return
	default:
	}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		h.readLoop(sub, conn, br, &lastRecv)
	}()
	go func() {
		defer s.wg.Done()
		s.heartbeatLoop(conn, &sub.writeMu, &lastRecv)
	}()
}

// readLoop consumes frames from one subscriber until the connection
// fails. The connection staying open IS the liveness signal; every frame
// received bumps lastRecv for the heartbeat monitor.
func (h *invalHub) readLoop(sub *invalSubscriber, conn net.Conn, br *bufio.Reader, lastRecv *atomic.Int64) {
	s := h.s
	defer func() {
		conn.Close()
		h.mu.Lock()
		if sub.conn == conn {
			sub.conn = nil // keep docs: reconnect gets catch-up
		}
		h.mu.Unlock()
	}()
	for {
		typ, payload, err := httpx.ReadFrame(br)
		if err != nil {
			return
		}
		lastRecv.Store(s.now().UnixNano())
		switch typ {
		case frameSubscribe:
			docs, err := decodeInventory(payload)
			if err != nil {
				return
			}
			h.register(sub, conn, docs)
		case frameAck:
			if _, err := decodeName(payload); err == nil {
				s.tel.invalAcks.Inc()
			}
		case frameUnsubscribe:
			name, err := decodeName(payload)
			if err != nil {
				continue
			}
			h.mu.Lock()
			delete(sub.docs, name)
			h.mu.Unlock()
			s.walAppend(recSubDel, encodeSubRecord(sub.addr, name))
		case framePing:
			// lastRecv bump above is the whole point.
		}
	}
}

// register records which documents a subscriber hosts and catches it up
// on any whose current content differs from the hash the coop reported —
// the changes it missed while disconnected. Documents the coop is no
// longer authorized for are revoked instead.
func (h *invalHub) register(sub *invalSubscriber, conn net.Conn, docs []invDoc) {
	s := h.s
	start := time.Now()
	span := telemetry.NewSpan(telemetry.NewTraceID(), "", s.addr, "subscribe")
	span.Peer = sub.addr
	span.Start = s.now()
	var stale, unauthorized []string
	for _, d := range docs {
		if !s.hostsCopy(d.name, sub.addr) {
			unauthorized = append(unauthorized, d.name)
			continue
		}
		h.mu.Lock()
		fresh := !sub.docs[d.name]
		sub.docs[d.name] = true
		h.mu.Unlock()
		if fresh {
			s.walAppend(recSubAdd, encodeSubRecord(sub.addr, d.name))
		}
		if cur, ok := s.migrationHash(d.name); ok && cur != d.hash {
			stale = append(stale, d.name)
		}
	}
	// The unauthorized documents are not in the subscription, so the
	// revoke goes straight to this channel.
	if len(unauthorized) > 0 {
		h.send(sub, conn, invalRevoke, unauthorized)
	}
	h.push(invalUpdate, stale, []string{sub.addr})
	span.Target = "docs=" + strconv.Itoa(len(docs)-len(unauthorized))
	span.Duration = time.Since(start)
	s.tel.record(span)
}

// hostsCopy reports whether coopAddr may host a copy of the home document
// name — fetch it, validate it, subscribe to it: it must be the document's
// assigned co-op, a member of its replica set, or a link a chain push is
// on its way to.
func (s *Server) hostsCopy(name, coopAddr string) bool {
	if mig, ok := s.ledger.Get(name); ok && mig.Coop == coopAddr {
		return true
	}
	s.repMu.RLock()
	defer s.repMu.RUnlock()
	return slices.Contains(s.replicas[name], coopAddr) || slices.Contains(s.pushing[name], coopAddr)
}

// copiesOut reports whether some co-op may host a copy of the home
// document name (hostsCopy for any co-op).
func (s *Server) copiesOut(name string) bool {
	if _, ok := s.ledger.Get(name); ok {
		return true
	}
	s.repMu.RLock()
	defer s.repMu.RUnlock()
	return len(s.replicas[name]) > 0 || len(s.pushing[name]) > 0
}

// migrationHash returns the current migration-prepared content hash for a
// home document, rendering on a cache miss. ok is false when the document
// is unknown or fails to render.
func (s *Server) migrationHash(name string) (uint64, bool) {
	_, _, gen, known := s.ldg.ServeInfo(name)
	if !known {
		return 0, false
	}
	if _, h, ok := s.rcache.get(name, renderMigration, gen); ok {
		return h, true
	}
	data, err := s.prepareForMigration(name)
	if err != nil {
		return 0, false
	}
	h := contentHash(data)
	s.rcache.put(name, renderMigration, gen, data, h)
	return h, true
}

// push fans one kind of invalidation for names out to the subscribers
// hosting them: each connected one gets a single frame carrying its
// share, whether that is one document or a migration's whole link-rewrite
// storm. A delete or revoke also ends hosting, so the subscription
// entries go, connected or not, each with its recSubDel, and a later
// reconnect is not caught up on a document it must no longer serve. only,
// when non-nil, limits the fan-out to those subscribers (a shrink tells
// the dropped hosts alone). Safe to call with no server locks held.
func (h *invalHub) push(kind byte, names, only []string) {
	if h == nil || h.s.params.LeaseDuration <= 0 || len(names) == 0 {
		return
	}
	type target struct {
		sub   *invalSubscriber
		conn  net.Conn
		names []string
	}
	var targets []target
	var dropped [][]byte // recSubDel payloads
	h.mu.Lock()
	for addr, sub := range h.subs {
		if only != nil && !slices.Contains(only, addr) {
			continue
		}
		var mine []string
		for _, n := range names {
			if !sub.docs[n] {
				continue
			}
			mine = append(mine, n)
			if kind != invalUpdate {
				delete(sub.docs, n)
				dropped = append(dropped, encodeSubRecord(addr, n))
			}
		}
		if len(mine) > 0 && sub.conn != nil {
			targets = append(targets, target{sub, sub.conn, mine})
		}
	}
	h.mu.Unlock()
	for _, rec := range dropped {
		h.s.walAppend(recSubDel, rec)
	}
	for _, t := range targets {
		h.send(t.sub, t.conn, kind, t.names)
	}
}

// send writes one invalidation frame to one subscriber, stamped with the
// channel's next sequence number. A write failure closes the connection;
// the coop reconnects with backoff and catches up.
func (h *invalHub) send(sub *invalSubscriber, conn net.Conn, kind byte, names []string) {
	stamped := func() []byte { sub.seq++; return encodeInvalidate(kind, names, sub.seq) }
	if !writeFrame(&sub.writeMu, conn, frameInvalidate, stamped) {
		return
	}
	h.s.tel.invalPushes.Inc()
	if len(names) > 1 {
		h.s.tel.invalBatches.Inc()
		h.s.tel.invalBatchDocs.Add(int64(len(names)))
	}
}

// writeFrame is the one write path of a subscription channel, in either
// direction: it writes one frame under the channel's write mutex with a
// short real-time deadline (frames are tiny; a peer that cannot drain one
// within it is effectively partitioned). payload, nil for an empty frame,
// runs under the mutex, so a sequence number it stamps matches wire
// order. Returns whether the write succeeded; on failure the connection
// is closed, which unblocks its reader.
func writeFrame(mu *sync.Mutex, conn net.Conn, typ byte, payload func() []byte) bool {
	mu.Lock()
	defer mu.Unlock()
	var data []byte
	if payload != nil {
		data = payload()
	}
	conn.SetWriteDeadline(time.Now().Add(invalWriteTimeout))
	err := httpx.WriteFrame(conn, typ, data)
	conn.SetWriteDeadline(time.Time{})
	if err != nil {
		conn.Close()
		return false
	}
	return true
}

// invalWriteTimeout bounds a single frame write on an upgraded
// connection. Real time, not the configured clock: it guards the wire,
// not the protocol.
const invalWriteTimeout = 10 * time.Second

// heartbeatLoop paces keepalives on one upgraded connection and enforces
// liveness: a peer silent for three heartbeats is presumed partitioned
// and the connection is force-closed, unblocking its reader. Both sides
// run one; receipt of ANY frame counts as life. Driven by the configured
// clock so deterministic tests control it.
func (s *Server) heartbeatLoop(conn net.Conn, writeMu *sync.Mutex, lastRecv *atomic.Int64) {
	hb := s.params.invalHeartbeat()
	if hb <= 0 {
		return
	}
	for {
		select {
		case <-s.stopped:
			return
		case <-s.cfg.Clock.After(hb):
		}
		if s.now().Sub(time.Unix(0, lastRecv.Load())) > 3*hb {
			conn.Close()
			return
		}
		if !writeFrame(writeMu, conn, framePing, nil) {
			return
		}
	}
}

// ---- coop side: the subscription manager --------------------------------

// subConn is one live (or reconnecting) subscription from this co-op to a
// home server.
type subConn struct {
	home string

	mu      sync.Mutex
	conn    net.Conn // nil while disconnected
	writeMu sync.Mutex
	// lastSeq is the last invalidation sequence number received on the
	// current connection, touched only by its readLoop goroutine. Reset
	// on each reconnect: frames missed while disconnected are covered by
	// the reconnect inventory, not the gap check.
	lastSeq uint64
}

// subManager owns this co-op's outbound subscriptions, one per home
// server it hosts documents for. Each runs a connect/read/reconnect loop
// goroutine; lease renewal happens in the read loop (every frame from the
// home renews every lease held from it).
type subManager struct {
	s  *Server
	mu sync.Mutex
	// homes is keyed by home server address; presence means a loop is
	// running (or winding down after stop).
	homes map[string]*subConn
}

func newSubManager(s *Server) *subManager {
	return &subManager{s: s, homes: make(map[string]*subConn)}
}

// reconnectPolicy paces subscription reconnects. Deliberately not derived
// from Params.RetryBaseDelay (test worlds set it negative to make RPC
// retries immediate, which here would busy-loop against a down home).
var reconnectPolicy = resilience.Policy{
	BaseDelay: time.Second,
	MaxDelay:  time.Minute,
	Jitter:    0.2,
}

// ensureSubscribed starts the subscription loop for a home, whose
// connection sends the whole inventory, or, when the loop already runs,
// subscribes the documents admitted (one entry per admission) over the
// live channel. Called from admitCopy, the one path that admits a hosted
// document, and from recovery, which admits nothing.
func (m *subManager) ensureSubscribed(homeAddr string, admitted ...invDoc) {
	if m == nil || m.s.params.LeaseDuration <= 0 {
		return
	}
	m.mu.Lock()
	sc, ok := m.homes[homeAddr]
	if !ok {
		sc = &subConn{home: homeAddr}
		m.homes[homeAddr] = sc
	}
	m.mu.Unlock()
	if ok {
		// Loop already running. A channel not yet connected sends the
		// inventory, admitted documents included, once it is.
		m.s.sendSubscribe(sc, admitted)
		return
	}
	s := m.s
	select {
	case <-s.stopped:
		return
	default:
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		m.subscribeLoop(sc)
	}()
}

// subscribeLoop is one home's connect / subscribe / read / reconnect
// cycle. It runs until server shutdown; while disconnected the per-doc
// leases silently expire and the polling validator takes back over, so
// losing the channel only ever degrades to the paper's behaviour.
func (m *subManager) subscribeLoop(sc *subConn) {
	s := m.s
	for attempt := 0; ; attempt++ {
		select {
		case <-s.stopped:
			return
		default:
		}
		if attempt > 0 {
			delay := reconnectPolicy.Backoff(sc.home, attempt)
			select {
			case <-s.stopped:
				return
			case <-s.cfg.Clock.After(delay):
			}
		}
		req := httpx.NewRequest("GET", subscribePath)
		req.Header.Set(headerFetch, s.addr)
		conn, br, err := s.client.Subscribe(sc.home, req, s.params.MaintenanceTimeout)
		if err != nil {
			s.tel.invalReconnects.Inc()
			continue
		}
		attempt = 0
		sc.lastSeq = 0 // fresh channel, fresh sequence baseline
		sc.mu.Lock()
		sc.conn = conn
		sc.mu.Unlock()
		select {
		case <-s.stopped:
			// Shutdown's closeAll ran before sc.conn was set.
			conn.Close()
			return
		default:
		}
		s.coops.renewHome(sc.home, s.now().Add(s.params.LeaseDuration))
		s.sendInventory(sc)
		var lastRecv atomic.Int64
		lastRecv.Store(s.now().UnixNano())
		hbDone := make(chan struct{})
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			defer close(hbDone)
			s.heartbeatLoop(conn, &sc.writeMu, &lastRecv)
		}()
		m.readLoop(sc, conn, br, &lastRecv)
		conn.Close()
		<-hbDone
		sc.mu.Lock()
		sc.conn = nil
		sc.mu.Unlock()
		s.tel.invalReconnects.Inc()
	}
}

// sendInventory sends the coop's whole hosted-document inventory for
// sc.home as a frameSubscribe: on connect, and on a sequence gap. The home
// side is idempotent; known docs just re-register.
func (s *Server) sendInventory(sc *subConn) {
	s.sendSubscribe(sc, s.coops.inventory(sc.home))
}

// sendSubscribe sends docs as one frameSubscribe over sc's live channel;
// nothing when it is not connected or docs is empty.
func (s *Server) sendSubscribe(sc *subConn, docs []invDoc) {
	if len(docs) == 0 {
		return
	}
	sc.mu.Lock()
	conn := sc.conn
	sc.mu.Unlock()
	if conn == nil {
		return
	}
	writeFrame(&sc.writeMu, conn, frameSubscribe, func() []byte { return encodeInventory(docs) })
}

// readLoop consumes frames pushed by one home server. EVERY frame —
// invalidation, ping, anything — renews the leases of all documents
// hosted from that home: the channel being alive is the proof the home
// can still reach us with invalidations.
func (m *subManager) readLoop(sc *subConn, conn net.Conn, br *bufio.Reader, lastRecv *atomic.Int64) {
	s := m.s
	for {
		typ, payload, err := httpx.ReadFrame(br)
		if err != nil {
			return
		}
		lastRecv.Store(s.now().UnixNano())
		s.coops.renewHome(sc.home, s.now().Add(s.params.LeaseDuration))
		switch typ {
		case frameInvalidate:
			kind, names, seq, derr := decodeInvalidate(payload)
			if derr != nil {
				return
			}
			m.checkSeq(sc, seq)
			s.tel.invalReceived.Inc()
			for _, name := range names {
				s.applyInvalidation(sc, kind, name)
			}
		case framePing:
			// Renewal above is the work.
		}
	}
}

// checkSeq folds one received frame's sequence number into the channel's
// gap detector: a frame that is not the immediate successor of
// the previous one means a frame was lost on a live channel, so the coop
// resyncs by re-sending its inventory (the home answers with catch-up
// invalidations for every stale copy). The first frame on a connection
// just sets the baseline.
func (m *subManager) checkSeq(sc *subConn, seq uint64) {
	last := sc.lastSeq
	sc.lastSeq = seq
	if last != 0 && seq != last+1 {
		m.s.tel.invalGaps.Inc()
		m.s.sendInventory(sc)
	}
}

// applyInvalidation reacts to one pushed invalidation: updates re-fetch
// the copy immediately (conditional GET — the staleness window collapses
// from T_val to one RPC), deletes and revokes drop it. An ack goes back
// so the home can count convergence.
func (s *Server) applyInvalidation(sc *subConn, kind byte, name string) {
	home, err := naming.ParseOrigin(sc.home)
	if err != nil {
		return
	}
	key, err := naming.Encode(home, name)
	if err != nil {
		return
	}
	start := time.Now()
	span := telemetry.NewSpan(telemetry.NewTraceID(), "", s.addr, "invalidate-apply")
	span.Target, span.Peer = name, sc.home
	span.Start = s.now()
	switch kind {
	case invalUpdate:
		s.validateOne(key)
	case invalDelete, invalRevoke:
		s.dropCopy(key)
	}
	span.Duration = time.Since(start)
	s.tel.record(span)
	sc.mu.Lock()
	conn := sc.conn
	sc.mu.Unlock()
	if conn == nil {
		return
	}
	writeFrame(&sc.writeMu, conn, frameAck, func() []byte { return encodeName(name) })
}

// subscriptionLive reports whether the channel to homeAddr is currently
// connected (the validator's skip condition, together with an unexpired
// lease).
func (m *subManager) subscriptionLive(homeAddr string) bool {
	if m == nil {
		return false
	}
	m.mu.Lock()
	sc := m.homes[homeAddr]
	m.mu.Unlock()
	if sc == nil {
		return false
	}
	sc.mu.Lock()
	live := sc.conn != nil
	sc.mu.Unlock()
	return live
}

// closeAll force-closes every live subscription connection so reader
// goroutines unblock during shutdown.
func (m *subManager) closeAll() {
	if m == nil {
		return
	}
	m.mu.Lock()
	conns := make([]net.Conn, 0, len(m.homes))
	for _, sc := range m.homes {
		sc.mu.Lock()
		if sc.conn != nil {
			conns = append(conns, sc.conn)
		}
		sc.mu.Unlock()
	}
	m.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// closeAll force-closes every connected subscriber so the home's reader
// goroutines unblock during shutdown.
func (h *invalHub) closeAll() {
	if h == nil {
		return
	}
	h.mu.Lock()
	conns := make([]net.Conn, 0, len(h.subs))
	for _, sub := range h.subs {
		if sub.conn != nil {
			conns = append(conns, sub.conn)
		}
	}
	h.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// encodeSubRecord / decodeSubRecord frame a (subscriber addr, doc name)
// pair for recSubAdd / recSubDel WAL records.
func encodeSubRecord(addr, name string) []byte {
	buf := make([]byte, 0, len(addr)+len(name)+4)
	buf = putStr(buf, addr)
	return putStr(buf, name)
}

func decodeSubRecord(data []byte) (addr, name string, err error) {
	if addr, data, err = getStr(data); err != nil {
		return
	}
	name, _, err = getStr(data)
	return
}

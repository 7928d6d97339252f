package dcws

import (
	"bufio"
	"encoding/binary"
	"net"
	"slices"
	"sort"
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
// type, naming one document or every document a change dirtied. An update
// ships the co-op copy itself down the channel, with its hash, so the
// co-op stores it as it would a validation's 200 and makes no request
// back; a frame that names a document alone (a link-rewrite storm, a
// catch-up, a copy overtaken by a newer generation or too large for a
// frame) has the co-op re-validate by conditional GET. Every hosted copy
// holds a lease of Params.LeaseDuration renewed implicitly by channel
// liveness. While the channel is live and the lease unexpired the
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
	// (invalUpdate/invalDelete/invalRevoke), a uvarint count, per document
	// its home-side name and, for an update, optionally the co-op copy and
	// its content hash, then the channel sequence number. One frame carries
	// one document or a migration's whole link-rewrite storm, so a
	// subscriber gets one frame per change, not one per document. A
	// document named alone is re-validated by conditional GET.
	frameInvalidate byte = 2
	// framePing (either direction): empty keepalive; receipt renews every
	// lease held from the peer.
	framePing byte = 3
	// frameAck (coop -> home): the named document's invalidation was
	// applied (its shipped copy stored, refetched, or dropped for
	// delete/revoke). The ack of a shipped copy carries the co-op's hot
	// report for the home, which the refetch it replaces would have sent
	// as X-DCWS-Hot.
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
	invalUpdate byte = 0 // content changed: store the shipped copy, or revalidate now
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

// invDoc is one document named on a subscription channel: its home-side
// name and a content hash — in an inventory the co-op's, in an
// invalidation the hash of the shipped copy body. A nil body in an
// invalidation names the document alone.
type invDoc struct {
	name string
	hash uint64
	body []byte
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

// encodeInvalidate frames one kind of invalidation for docs: kind byte,
// uvarint count, per document its name and a 0 byte (the name alone) or a
// 1 byte, the copy's hash and the copy with its length; then the trailing
// sequence number.
func encodeInvalidate(kind byte, docs []invDoc, seq uint64) []byte {
	size := 12
	for _, d := range docs {
		size += len(d.name) + len(d.body) + 22
	}
	buf := make([]byte, 0, size)
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(docs)))
	for _, d := range docs {
		buf = putStr(buf, d.name)
		if d.body == nil {
			buf = append(buf, 0)
			continue
		}
		buf = append(buf, 1)
		buf = binary.AppendUvarint(buf, d.hash)
		buf = binary.AppendUvarint(buf, uint64(len(d.body)))
		buf = append(buf, d.body...)
	}
	return binary.AppendUvarint(buf, seq)
}

// decodeInvalidate is the inverse of encodeInvalidate. A shipped copy's
// body aliases data.
func decodeInvalidate(data []byte) (kind byte, docs []invDoc, seq uint64, err error) {
	if len(data) < 1 {
		return 0, nil, 0, errInvalFrame
	}
	kind = data[0]
	n, data, err := getDocCount(data[1:], 2)
	if err != nil {
		return 0, nil, 0, err
	}
	docs = make([]invDoc, 0, n)
	for i := uint64(0); i < n; i++ {
		var d invDoc
		if d.name, data, err = getStr(data); err != nil {
			return 0, nil, 0, err
		}
		if len(data) == 0 || data[0] > 1 {
			return 0, nil, 0, errInvalFrame
		}
		shipped := data[0] == 1
		data = data[1:]
		if shipped {
			var size uint64
			if d.hash, data, err = getUvarint(data); err != nil {
				return 0, nil, 0, err
			}
			if size, data, err = getUvarint(data); err != nil {
				return 0, nil, 0, err
			}
			if size > uint64(len(data)) {
				return 0, nil, 0, errInvalFrame
			}
			d.body, data = data[:size:size], data[size:]
		}
		docs = append(docs, d)
	}
	if seq, _, err = getUvarint(data); err != nil {
		return 0, nil, 0, err
	}
	return kind, docs, seq, nil
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

// encodeName / decodeName frame a single document name
// (frameUnsubscribe).
func encodeName(name string) []byte { return putStr(nil, name) }

func decodeName(data []byte) (string, error) {
	name, _, err := getStr(data)
	return name, err
}

// encodeAck frames a frameAck: the applied document's name, then a hot
// report — uvarint count, then (name, uvarint hits) pairs sorted by name;
// a count of 0 when the ack carries none.
func encodeAck(name string, hot map[string]int64) []byte {
	buf := putStr(nil, name)
	buf = binary.AppendUvarint(buf, uint64(len(hot)))
	docs := make([]string, 0, len(hot))
	for doc := range hot {
		docs = append(docs, doc)
	}
	sort.Strings(docs)
	for _, doc := range docs {
		buf = putStr(buf, doc)
		buf = binary.AppendUvarint(buf, uint64(hot[doc]))
	}
	return buf
}

// decodeAck is the inverse of encodeAck; hot is nil when the ack carries
// no report, and a name reported twice keeps its last count.
func decodeAck(data []byte) (name string, hot map[string]int64, err error) {
	if name, data, err = getStr(data); err != nil {
		return "", nil, err
	}
	n, data, err := getDocCount(data, 2)
	if err != nil {
		return "", nil, err
	}
	for i := uint64(0); i < n; i++ {
		var doc string
		var hits uint64
		if doc, data, err = getStr(data); err != nil {
			return "", nil, err
		}
		if hits, data, err = getUvarint(data); err != nil {
			return "", nil, err
		}
		if hot == nil {
			hot = make(map[string]int64, n)
		}
		hot[doc] = int64(hits)
	}
	return name, hot, nil
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
			if _, hot, err := decodeAck(payload); err == nil {
				s.tel.invalAcks.Inc()
				if len(hot) > 0 {
					s.ctl.AbsorbHot(hot)
				}
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
		h.send(sub, conn, invalRevoke, unauthorized, nil)
	}
	h.push(invalUpdate, stale, []string{sub.addr})
	span.Target = "docs=" + strconv.Itoa(len(docs)-len(unauthorized))
	span.Duration = time.Since(start)
	s.tel.record(span)
}

// hostsCopy reports whether coopAddr may host a copy of the home document
// name — fetch it, validate it, subscribe to it: it must be the document's
// assigned co-op, a member of its replica set, or a link a chain push is
// on its way to. pushing is read before the replica set, in the order
// chainReplicate writes them (pushing set, replica set installed, pushing
// cleared): a link found in neither was not yet acked, never one that has
// just moved from the first to the second.
func (s *Server) hostsCopy(name, coopAddr string) bool {
	if mig, ok := s.ledger.Get(name); ok && mig.Coop == coopAddr {
		return true
	}
	s.pushMu.RLock()
	pushing := slices.Contains(s.pushing[name], coopAddr)
	s.pushMu.RUnlock()
	return pushing || slices.Contains(s.replicas.Get(name), coopAddr)
}

// copiesOut reports whether some co-op may host a copy of the home
// document name (hostsCopy for any co-op, read in the same order).
func (s *Server) copiesOut(name string) bool {
	if _, ok := s.ledger.Get(name); ok {
		return true
	}
	s.pushMu.RLock()
	pushing := len(s.pushing[name]) > 0
	s.pushMu.RUnlock()
	return pushing || len(s.replicas.Get(name)) > 0
}

// migrationHash returns the content hash of a home document's current
// co-op copy: the one recorded at its generation, else that of a fresh
// rendering. ok is false when the document is unknown or fails to render.
func (s *Server) migrationHash(name string) (uint64, bool) {
	_, _, gen, known := s.ldg.ServeInfo(name)
	if !known {
		return 0, false
	}
	if h, ok := s.rcache.copyHash(name, gen); ok {
		return h, true
	}
	_, h, err := s.renderCopy(name, gen)
	return h, err == nil
}

// renderCopy renders the co-op copy of a home document, observed at
// generation gen, and records its hash under gen; the bytes are not kept.
func (s *Server) renderCopy(name string, gen uint64) ([]byte, uint64, error) {
	data, err := s.prepareForMigration(name)
	if err != nil {
		return nil, 0, err
	}
	h := contentHash(data)
	s.rcache.putCopyHash(name, gen, h)
	return data, h, nil
}

// shippedCopy is the co-op copy an update offers to the document's
// subscribers: the bytes rendered at LDG generation gen and their hash.
type shippedCopy struct {
	gen  uint64
	body []byte
	hash uint64
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
	h.fanOut(kind, names, only, nil)
}

// pushUpdate tells the subscribers hosting name that it was updated,
// offering each the copy cp (see send).
func (h *invalHub) pushUpdate(name string, cp *shippedCopy) {
	h.fanOut(invalUpdate, []string{name}, nil, cp)
}

// fanOut is push; cp, when non-nil, is the copy of the one document
// names holds.
func (h *invalHub) fanOut(kind byte, names, only []string, cp *shippedCopy) {
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
		h.send(t.sub, t.conn, kind, t.names, cp)
	}
}

// send writes one invalidation frame to one subscriber, stamped with the
// channel's next sequence number. cp, when non-nil, is the copy of
// names[0]. It rides the frame only if the document is still at cp's
// generation when the frame is written, under the write mutex, and the
// frame stays within httpx.MaxFramePayload; otherwise the document is
// named alone and the co-op refetches it. So a later frame on the channel
// never carries an older copy than an earlier one. A write failure closes
// the connection; the coop reconnects with backoff and catches up.
func (h *invalHub) send(sub *invalSubscriber, conn net.Conn, kind byte, names []string, cp *shippedCopy) {
	shipped := false
	stamped := func() []byte {
		sub.seq++
		docs := make([]invDoc, len(names))
		for i, n := range names {
			docs[i].name = n
		}
		if cp != nil && h.s.ldg.Generation(names[0]) == cp.gen {
			docs[0].hash, docs[0].body = cp.hash, cp.body
			if buf := encodeInvalidate(kind, docs, sub.seq); len(buf) <= httpx.MaxFramePayload {
				shipped = true
				return buf
			}
			docs[0].hash, docs[0].body = 0, nil
		}
		return encodeInvalidate(kind, docs, sub.seq)
	}
	if !writeFrame(&sub.writeMu, conn, frameInvalidate, stamped) {
		return
	}
	h.s.tel.invalPushes.Inc()
	if shipped {
		h.s.tel.invalCopies.Inc()
	}
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
			kind, docs, seq, derr := decodeInvalidate(payload)
			if derr != nil {
				return
			}
			m.checkSeq(sc, seq)
			s.tel.invalReceived.Inc()
			for _, d := range docs {
				s.applyInvalidation(sc, kind, d)
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

// applyInvalidation reacts to one pushed invalidation: an update that
// ships its copy is stored as a validation's 200 would be, under the
// frame's hash and without a request; one that names the document alone
// re-validates it at once (conditional GET — the staleness window
// collapses from T_val to one RPC); deletes and revokes drop the copy. An
// ack goes back so the home can count convergence; the ack of a shipped
// copy carries this co-op's hot report for the home, as the refetch would
// have.
func (s *Server) applyInvalidation(sc *subConn, kind byte, d invDoc) {
	home, err := naming.ParseOrigin(sc.home)
	if err != nil {
		return
	}
	key, err := naming.Encode(home, d.name)
	if err != nil {
		return
	}
	start := time.Now()
	span := telemetry.NewSpan(telemetry.NewTraceID(), "", s.addr, "invalidate-apply")
	span.Target, span.Peer = d.name, sc.home
	span.Start = s.now()
	var hot map[string]int64
	switch {
	case kind == invalUpdate && d.body != nil:
		s.applyCopy(key, d)
		hot = s.coops.HotReport(sc.home)
	case kind == invalUpdate:
		s.validateOne(key)
	case kind == invalDelete, kind == invalRevoke:
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
	writeFrame(&sc.writeMu, conn, frameAck, func() []byte {
		if buf := encodeAck(d.name, hot); len(buf) <= httpx.MaxFramePayload {
			return buf
		}
		return encodeAck(d.name, nil) // a report too large for a frame is dropped, not the channel
	})
}

// applyCopy stores a copy the home shipped for key: the co-op core reads
// it as a 200 validation answer (Coop.Validated), and admitCopy admits it
// under the hash the home computed.
func (s *Server) applyCopy(key string, d invDoc) {
	if _, ok := s.coops.View(key); !ok {
		return
	}
	outcome := s.coops.Validated(key, 200, s.now())
	if err := s.admitCopy(key, d.body, d.hash, nil); err != nil {
		s.log.Printf("dcws %s: store shipped copy %s: %v", s.Addr(), key, err)
		outcome = "error"
	}
	s.tel.validation(outcome)
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

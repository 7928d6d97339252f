package dcws

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"time"

	"dcws/internal/graph"
	"dcws/internal/naming"
	"dcws/internal/policy"
	"dcws/internal/store"
	"dcws/internal/wal"
)

// WAL record types. Every durable state change the paper's §4.5 recovery
// story would otherwise lose appends one of these; the request hot path
// (serveAsHome/loadLocal) appends nothing.
const (
	// recDocPut: a home document's content was created or replaced
	// (payload: name, body). The record is the update's one durable write:
	// the body reaches the store at the next snapshot (Server.staged), and
	// replay stages it again. A record of name alone, as an
	// older server wrote it, replays from the bytes in the store.
	recDocPut uint8 = 1
	// recDocDelete: a home document was removed (payload: name).
	recDocDelete uint8 = 2
	// recCoopAdmit: a co-op copy was fetched or refreshed (payload: key,
	// home addr, original name, size, hash).
	recCoopAdmit uint8 = 3
	// recCoopEvict: a co-op copy's bytes were evicted for disk budget; the
	// document stays logically hosted (payload: key).
	recCoopEvict uint8 = 4
	// recCoopForget: this server stopped hosting a co-op document —
	// revoked by its home or re-migrated away (payload: key).
	recCoopForget uint8 = 5
	// recMigrate: a home document was migrated to a co-op (payload: doc,
	// coop addr, migration time).
	recMigrate uint8 = 6
	// recRevoke: a migrated home document was revoked back (payload: doc).
	recRevoke uint8 = 7
	// recReplicas: a migrated document's replica set changed (payload:
	// doc, addr list).
	recReplicas uint8 = 8
	// recSubAdd: a co-op subscribed to invalidation pushes for one of our
	// documents (payload: coop addr, doc name). Survives restarts so the
	// recovered home keeps pushing when the co-op reconnects.
	recSubAdd uint8 = 9
	// recSubDel: an invalidation subscription ended — unsubscribe, revoke,
	// or delete (payload: coop addr, doc name).
	recSubDel uint8 = 10
)

// serverSnapVersion versions the full-state snapshot payload layered on
// the LDG snapshot encoding. Version 2 appends the invalidation
// subscriber table after the peer list; version-1 snapshots still decode.
const serverSnapVersion = 2

// coopSeed is one hosted document's durable record, as carried through
// snapshots and recovery before the live coopSet exists.
type coopSeed struct {
	key     string
	home    naming.Origin
	name    string
	present bool
	size    int64
	hash    uint64
}

// recoveredState is everything recovery reconstructs before the Server is
// built: the document graph, the hosted-document seeds, the migration
// ledger, the replica sets, and the peers last seen in the load table.
type recoveredState struct {
	ldg      *graph.LDG
	coops    map[string]*coopSeed
	ledger   *policy.Ledger
	replicas map[string][]string
	peers    []string
	// subscribers maps co-op addr → document names it was subscribed to
	// for invalidation pushes when the server went down.
	subscribers map[string][]string
	// staged maps a home document to the body its last replayed recDocPut
	// carries: the server stages it again, and its record stays in the log
	// until the next snapshot writes it to the store.
	staged map[string][]byte

	fromSnapshot bool
	snapshotLSN  uint64
	replayed     int

	// Phase timings for the startup "recovery" trace recorded once the
	// telemetry ring exists (the recovery itself runs before it is built).
	snapshotDur time.Duration
	replayDur   time.Duration
}

// recoveryStats summarizes the last startup recovery for status and the
// dcws_recovery_* metric family.
type recoveryStats struct {
	recovered    bool
	seconds      float64
	replayed     int
	snapshotLSN  uint64
	docsRestored int
	coopRestored int
	coopDropped  int

	// Per-phase wall times, re-recorded as child spans of the startup
	// "recovery" trace once the telemetry ring exists.
	snapshotDur  time.Duration
	replayDur    time.Duration
	reconcileDur time.Duration
}

// ---- record payload encoding -------------------------------------------

func putStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func getUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, errors.New("dcws: truncated uvarint in WAL payload")
	}
	return v, data[n:], nil
}

func getStr(data []byte) (string, []byte, error) {
	n, data, err := getUvarint(data)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(data)) < n {
		return "", nil, errors.New("dcws: truncated string in WAL payload")
	}
	return string(data[:n]), data[n:], nil
}

func encodeNameRecord(name string) []byte {
	return putStr(make([]byte, 0, len(name)+2), name)
}

// encodeDocPut frames a recDocPut: the name, then the body with its
// length.
func encodeDocPut(name string, body []byte) []byte {
	buf := putStr(make([]byte, 0, len(name)+len(body)+12), name)
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	return append(buf, body...)
}

// decodeDocPut is the inverse of encodeDocPut. hasBody is false for a
// record of the name alone. body aliases data; a forged body length is an
// error, never an allocation.
func decodeDocPut(data []byte) (name string, body []byte, hasBody bool, err error) {
	if name, data, err = getStr(data); err != nil || len(data) == 0 {
		return name, nil, false, err
	}
	n, data, err := getUvarint(data)
	if err != nil {
		return "", nil, false, err
	}
	if n != uint64(len(data)) {
		return "", nil, false, errors.New("dcws: doc put body length does not match its record")
	}
	return name, data, true, nil
}

func encodeCoopAdmit(c coopSeed) []byte {
	buf := make([]byte, 0, len(c.key)+len(c.name)+32)
	buf = putStr(buf, c.key)
	buf = putStr(buf, c.home.Addr())
	buf = putStr(buf, c.name)
	buf = binary.AppendUvarint(buf, uint64(c.size))
	buf = binary.AppendUvarint(buf, c.hash)
	return buf
}

func decodeCoopAdmit(data []byte) (coopSeed, error) {
	var c coopSeed
	var err error
	var homeAddr string
	if c.key, data, err = getStr(data); err != nil {
		return c, err
	}
	if homeAddr, data, err = getStr(data); err != nil {
		return c, err
	}
	if c.home, err = naming.ParseOrigin(homeAddr); err != nil {
		return c, err
	}
	if c.name, data, err = getStr(data); err != nil {
		return c, err
	}
	var size, hash uint64
	if size, data, err = getUvarint(data); err != nil {
		return c, err
	}
	if hash, _, err = getUvarint(data); err != nil {
		return c, err
	}
	c.size = int64(size)
	c.hash = hash
	c.present = true
	return c, nil
}

func encodeMigrate(doc, coop string, at time.Time) []byte {
	buf := make([]byte, 0, len(doc)+len(coop)+16)
	buf = putStr(buf, doc)
	buf = putStr(buf, coop)
	buf = binary.AppendUvarint(buf, uint64(at.UnixNano()))
	return buf
}

func decodeMigrate(data []byte) (doc, coop string, at time.Time, err error) {
	if doc, data, err = getStr(data); err != nil {
		return
	}
	if coop, data, err = getStr(data); err != nil {
		return
	}
	var ns uint64
	if ns, _, err = getUvarint(data); err != nil {
		return
	}
	at = time.Unix(0, int64(ns))
	return
}

func encodeReplicas(doc string, addrs []string) []byte {
	buf := make([]byte, 0, len(doc)+16*len(addrs)+8)
	buf = putStr(buf, doc)
	buf = binary.AppendUvarint(buf, uint64(len(addrs)))
	for _, a := range addrs {
		buf = putStr(buf, a)
	}
	return buf
}

func decodeReplicas(data []byte) (doc string, addrs []string, err error) {
	if doc, data, err = getStr(data); err != nil {
		return
	}
	var n uint64
	if n, data, err = getDocCount(data, 1); err != nil {
		return
	}
	for i := uint64(0); i < n; i++ {
		var a string
		if a, data, err = getStr(data); err != nil {
			return
		}
		addrs = append(addrs, a)
	}
	return
}

// ---- full-state snapshot ------------------------------------------------

// encodeServerSnapshot captures the durable server state: the LDG, the
// hosted-document set, the migration ledger, the replica sets, and the
// load table's peer addresses (so a restarted server knows the cluster
// even when its static peer list is incomplete).
func (s *Server) encodeServerSnapshot() []byte {
	ldgBytes := s.ldg.EncodeSnapshot()
	buf := make([]byte, 0, len(ldgBytes)+4096)
	buf = append(buf, serverSnapVersion)
	buf = binary.AppendUvarint(buf, uint64(len(ldgBytes)))
	buf = append(buf, ldgBytes...)

	seeds := s.coops.snapshotSeeds()
	buf = binary.AppendUvarint(buf, uint64(len(seeds)))
	for _, c := range seeds {
		buf = putStr(buf, c.key)
		buf = putStr(buf, c.home.Addr())
		buf = putStr(buf, c.name)
		if c.present {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(c.size))
		buf = binary.AppendUvarint(buf, c.hash)
	}

	migs := s.ledger.Snapshot()
	buf = binary.AppendUvarint(buf, uint64(len(migs)))
	for _, m := range migs {
		buf = putStr(buf, m.Doc)
		buf = putStr(buf, m.Coop)
		buf = binary.AppendUvarint(buf, uint64(m.At.UnixNano()))
	}

	s.repMu.RLock()
	docs := make([]string, 0, len(s.replicas))
	for doc := range s.replicas {
		docs = append(docs, doc)
	}
	reps := make(map[string][]string, len(s.replicas))
	for doc, addrs := range s.replicas {
		reps[doc] = append([]string(nil), addrs...)
	}
	s.repMu.RUnlock()
	sort.Strings(docs)
	buf = binary.AppendUvarint(buf, uint64(len(docs)))
	for _, doc := range docs {
		buf = putStr(buf, doc)
		addrs := reps[doc]
		buf = binary.AppendUvarint(buf, uint64(len(addrs)))
		for _, a := range addrs {
			buf = putStr(buf, a)
		}
	}

	peers := s.table.Servers()
	buf = binary.AppendUvarint(buf, uint64(len(peers)))
	for _, p := range peers {
		buf = putStr(buf, p)
	}

	subs := s.hub.snapshot()
	addrs := make([]string, 0, len(subs))
	for addr := range subs {
		addrs = append(addrs, addr)
	}
	sort.Strings(addrs)
	buf = binary.AppendUvarint(buf, uint64(len(addrs)))
	for _, addr := range addrs {
		buf = putStr(buf, addr)
		docs := subs[addr]
		buf = binary.AppendUvarint(buf, uint64(len(docs)))
		for _, d := range docs {
			buf = putStr(buf, d)
		}
	}
	return buf
}

// decodeServerSnapshot is the inverse of encodeServerSnapshot.
func decodeServerSnapshot(data []byte) (*recoveredState, error) {
	if len(data) == 0 || data[0] < 1 || data[0] > serverSnapVersion {
		return nil, fmt.Errorf("dcws: unsupported snapshot version")
	}
	version := data[0]
	data = data[1:]
	n, data, err := getUvarint(data)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)) < n {
		return nil, errors.New("dcws: snapshot truncated at LDG")
	}
	ldg, err := graph.DecodeSnapshot(data[:n])
	if err != nil {
		return nil, err
	}
	data = data[n:]
	rec := &recoveredState{
		ldg:          ldg,
		coops:        make(map[string]*coopSeed),
		ledger:       policy.NewLedger(),
		replicas:     make(map[string][]string),
		subscribers:  make(map[string][]string),
		staged:       make(map[string][]byte),
		fromSnapshot: true,
	}

	count, data, err := getDocCount(data, 1)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		var c coopSeed
		var homeAddr string
		if c.key, data, err = getStr(data); err != nil {
			return nil, err
		}
		if homeAddr, data, err = getStr(data); err != nil {
			return nil, err
		}
		if c.home, err = naming.ParseOrigin(homeAddr); err != nil {
			return nil, err
		}
		if c.name, data, err = getStr(data); err != nil {
			return nil, err
		}
		if len(data) < 1 {
			return nil, errors.New("dcws: snapshot truncated at coop flags")
		}
		c.present = data[0] == 1
		data = data[1:]
		var size, hash uint64
		if size, data, err = getUvarint(data); err != nil {
			return nil, err
		}
		if hash, data, err = getUvarint(data); err != nil {
			return nil, err
		}
		c.size = int64(size)
		c.hash = hash
		rec.coops[c.key] = &c
	}

	if count, data, err = getDocCount(data, 1); err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		var doc, coop string
		var ns uint64
		if doc, data, err = getStr(data); err != nil {
			return nil, err
		}
		if coop, data, err = getStr(data); err != nil {
			return nil, err
		}
		if ns, data, err = getUvarint(data); err != nil {
			return nil, err
		}
		rec.ledger.Record(doc, coop, time.Unix(0, int64(ns)))
	}

	if count, data, err = getDocCount(data, 1); err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		var doc string
		var nAddrs uint64
		if doc, data, err = getStr(data); err != nil {
			return nil, err
		}
		if nAddrs, data, err = getDocCount(data, 1); err != nil {
			return nil, err
		}
		addrs := make([]string, 0, nAddrs)
		for j := uint64(0); j < nAddrs; j++ {
			var a string
			if a, data, err = getStr(data); err != nil {
				return nil, err
			}
			addrs = append(addrs, a)
		}
		rec.replicas[doc] = addrs
	}

	if count, data, err = getDocCount(data, 1); err != nil {
		return nil, err
	}
	for i := uint64(0); i < count; i++ {
		var p string
		if p, data, err = getStr(data); err != nil {
			return nil, err
		}
		rec.peers = append(rec.peers, p)
	}

	if version >= 2 {
		if count, data, err = getDocCount(data, 1); err != nil {
			return nil, err
		}
		for i := uint64(0); i < count; i++ {
			var addr string
			var nDocs uint64
			if addr, data, err = getStr(data); err != nil {
				return nil, err
			}
			if nDocs, data, err = getDocCount(data, 1); err != nil {
				return nil, err
			}
			docs := make([]string, 0, nDocs)
			for j := uint64(0); j < nDocs; j++ {
				var d string
				if d, data, err = getStr(data); err != nil {
					return nil, err
				}
				docs = append(docs, d)
			}
			rec.subscribers[addr] = docs
		}
	}
	return rec, nil
}

// ---- recovery -----------------------------------------------------------

// recoverState loads the newest snapshot (or builds the LDG from the store
// when none exists) and replays every WAL record appended since, yielding
// the state a crashed server had accumulated. The snapshot's document
// bytes are in the store (the snapshot flushed its staged bodies first);
// every body updated since rides its recDocPut, and the WAL carries the
// metadata that §4.5 would otherwise force the cluster to revoke and
// rebuild. resolve is the server's link resolver, the one every graph
// write uses.
func recoverState(wlog *wal.Log, st store.Store, resolve func(base, raw string) string) (*recoveredState, error) {
	var rec *recoveredState
	phase := time.Now()
	if data, lsn, ok := wlog.SnapshotData(); ok {
		var err error
		rec, err = decodeServerSnapshot(data)
		if err != nil {
			return nil, fmt.Errorf("dcws: decode snapshot: %w", err)
		}
		rec.snapshotLSN = lsn
	} else {
		ldg, err := graph.BuildWithResolver(st, resolve)
		if err != nil {
			return nil, err
		}
		rec = &recoveredState{
			ldg:         ldg,
			coops:       make(map[string]*coopSeed),
			ledger:      policy.NewLedger(),
			replicas:    make(map[string][]string),
			subscribers: make(map[string][]string),
			staged:      make(map[string][]byte),
		}
	}
	rec.snapshotDur = time.Since(phase)
	phase = time.Now()
	err := wlog.Replay(func(r wal.Record) error {
		rec.replayed++
		return rec.apply(r, st, resolve)
	})
	if err != nil {
		return nil, fmt.Errorf("dcws: replay WAL: %w", err)
	}
	rec.replayDur = time.Since(phase)
	return rec, nil
}

// apply folds one replayed record into the recovering state. Every record
// sets the state it names, so replaying one whose effect the snapshot
// already holds changes nothing (WriteSnapshot). Decode failures on
// individual records are tolerated (the record is skipped): a WAL written
// by a newer version must not brick an older server. Replay writes
// nothing to the store: a replayed body is staged again (rec.staged).
func (rec *recoveredState) apply(r wal.Record, st store.Store, resolve func(base, raw string) string) error {
	switch r.Type {
	case recDocPut:
		name, body, hasBody, err := decodeDocPut(r.Data)
		if err != nil {
			return nil
		}
		size := int64(len(body))
		if hasBody {
			body = bytes.Clone(body) // r.Data is reused
			rec.staged[name] = body
		} else {
			delete(rec.staged, name) // the store holds this body
			if size, body, err = storedPage(st, name); err != nil {
				return nil // deleted again later; a recDocDelete follows
			}
		}
		rec.ldg.AddDoc(name, size, pageLinks(name, body, resolve))
	case recDocDelete:
		name, _, err := getStr(r.Data)
		if err != nil {
			return nil
		}
		delete(rec.staged, name)
		rec.ldg.Remove(name)
	case recCoopAdmit:
		c, err := decodeCoopAdmit(r.Data)
		if err != nil {
			return nil
		}
		rec.coops[c.key] = &c
	case recCoopEvict:
		key, _, err := getStr(r.Data)
		if err != nil {
			return nil
		}
		if c, ok := rec.coops[key]; ok {
			c.present = false
			c.size = 0
		}
	case recCoopForget:
		key, _, err := getStr(r.Data)
		if err != nil {
			return nil
		}
		delete(rec.coops, key)
	case recMigrate:
		doc, coop, at, err := decodeMigrate(r.Data)
		if err != nil {
			return nil
		}
		rec.ldg.MarkMigrated(doc, coop)
		rec.ledger.Record(doc, coop, at)
		rec.replicas[doc] = []string{coop}
	case recRevoke:
		doc, _, err := getStr(r.Data)
		if err != nil {
			return nil
		}
		rec.ldg.MarkRevoked(doc)
		rec.ledger.Forget(doc)
		delete(rec.replicas, doc)
	case recReplicas:
		doc, addrs, err := decodeReplicas(r.Data)
		if err != nil {
			return nil
		}
		rec.replicas[doc] = addrs
	case recSubAdd:
		addr, name, err := decodeSubRecord(r.Data)
		if err != nil {
			return nil
		}
		for _, d := range rec.subscribers[addr] {
			if d == name {
				return nil
			}
		}
		rec.subscribers[addr] = append(rec.subscribers[addr], name)
	case recSubDel:
		addr, name, err := decodeSubRecord(r.Data)
		if err != nil {
			return nil
		}
		docs := rec.subscribers[addr]
		for i, d := range docs {
			if d == name {
				rec.subscribers[addr] = append(docs[:i], docs[i+1:]...)
				break
			}
		}
		if len(rec.subscribers[addr]) == 0 {
			delete(rec.subscribers, addr)
		}
	}
	return nil
}

// reconcile checks the recovered metadata against what actually survived
// in the store: hosted copies whose bytes are gone flip to absent (they
// re-fetch lazily), orphaned /~migrate files with no hosting record are
// deleted, and home documents that appeared while the server was down are
// parsed into the graph with resolve.
func (rec *recoveredState) reconcile(st store.Store, stats *recoveryStats, resolve func(base, raw string) string) error {
	names, err := st.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		if naming.IsMigrated(name) {
			if _, hosted := rec.coops[name]; !hosted {
				st.Delete(name)
				stats.coopDropped++
			}
			continue
		}
		if !rec.ldg.Has(name) {
			size, body, err := storedPage(st, name)
			if err != nil {
				continue
			}
			rec.ldg.AddDoc(name, size, pageLinks(name, body, resolve))
			stats.docsRestored++
		}
	}
	for _, c := range rec.coops {
		if c.present && !st.Has(c.key) {
			c.present = false
			c.size = 0
		}
		if c.present {
			stats.coopRestored++
		}
	}
	return nil
}

// storedPage reads a home document's size from the store, and its bytes
// when it is HTML (the only kind whose links the graph needs).
func storedPage(st store.Store, name string) (int64, []byte, error) {
	size, err := st.Size(name)
	if err != nil || !graph.IsHTML(name) {
		return size, nil, err
	}
	body, err := st.Get(name)
	return int64(len(body)), body, err
}

// ---- live appends -------------------------------------------------------

// walAppend logs one durable state change; a no-op without a WAL. Append
// failures are logged, not fatal: the server keeps serving and the
// operator sees the durability gap.
func (s *Server) walAppend(typ uint8, data []byte) {
	if s.wal == nil {
		return
	}
	if _, err := s.wal.Append(typ, data); err != nil {
		s.log.Printf("dcws %s: wal append type %d: %v", s.Addr(), typ, err)
	}
}

// writeSnapshot persists the full server state and prunes obsolete WAL
// segments. Called by the snapshot loop and on clean shutdown. The covered
// LSN is read first, under updMu, which an update holds from its record
// to its staged body: every record at or below it has taken its effect,
// so the staged bodies flushed and the state encoded after it hold them
// all, and whatever is appended meanwhile stays in the log to be
// replayed. A body that cannot be flushed keeps its record: no snapshot
// is written.
func (s *Server) writeSnapshot() error {
	if s.wal == nil {
		return nil
	}
	s.updMu.Lock()
	covered, appended := s.wal.LSN(), s.wal.AppendedBytes()
	s.updMu.Unlock()
	err := s.flushStaged()
	if err == nil {
		err = s.wal.WriteSnapshot(covered, s.encodeServerSnapshot())
	}
	if err != nil {
		s.log.Printf("dcws %s: write snapshot: %v", s.Addr(), err)
		return err
	}
	s.snapAppended.Store(appended)
	return nil
}

// ---- staged bodies ------------------------------------------------------

// A server with a WAL keeps in Server.staged the home documents whose
// newest body is durable only in its recDocPut record. An update writes
// the record and stages the body; the next snapshot, or Close, writes it
// through Store.Put and unstages it (flushStaged). Until then every read
// of the document's bytes answers from there (homeBody), and its file,
// which holds an older body or none, is never sent.

// stagedBody returns name's staged body, if one is staged. The bytes are
// shared and immutable.
func (s *Server) stagedBody(name string) ([]byte, bool) {
	if s.staged == nil || !s.staged.Has(name) {
		return nil, false
	}
	data, err := s.staged.GetShared(name)
	return data, err == nil
}

// homeBody returns a home document's bytes: its staged body while one is
// staged, else the store's. The bytes are shared and immutable.
func (s *Server) homeBody(name string) ([]byte, error) {
	if data, ok := s.stagedBody(name); ok {
		return data, nil
	}
	return store.GetShared(s.cfg.Store, name)
}

// flushStaged writes every staged body through Store.Put and unstages it,
// one document at a time under updMu, so an update or delete of the same
// document is ordered before or after its write, never across it.
func (s *Server) flushStaged() error {
	names, err := s.staged.List()
	if err != nil {
		return err
	}
	for _, name := range names {
		s.updMu.Lock()
		err := s.flushStagedLocked(name)
		s.updMu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// flushStagedLocked writes name's staged body, if any, through Store.Put
// and unstages it. updMu must be held.
func (s *Server) flushStagedLocked(name string) error {
	data, ok := s.stagedBody(name)
	if !ok {
		return nil
	}
	if err := s.cfg.Store.Put(name, data); err != nil {
		return fmt.Errorf("dcws: write staged %s: %w", name, err)
	}
	return s.staged.Delete(name)
}

// Recovery reports the last startup recovery's statistics (all zero when
// the server started fresh or has no WAL).
func (s *Server) Recovery() RecoveryInfo {
	return RecoveryInfo{
		Recovered:    s.recovery.recovered,
		Seconds:      s.recovery.seconds,
		ReplayedRecs: s.recovery.replayed,
		SnapshotLSN:  s.recovery.snapshotLSN,
		DocsRestored: s.recovery.docsRestored,
		CoopRestored: s.recovery.coopRestored,
		CoopDropped:  s.recovery.coopDropped,
	}
}

// RecoveryInfo is the public form of the last recovery's statistics.
type RecoveryInfo struct {
	// Recovered is true when startup state came from snapshot+replay
	// rather than a cold store scan.
	Recovered bool `json:"recovered"`
	// Seconds is the wall time recovery took inside New.
	Seconds float64 `json:"seconds"`
	// ReplayedRecs counts WAL records replayed since the snapshot.
	ReplayedRecs int `json:"replayed_records"`
	// SnapshotLSN is the LSN the loaded snapshot covered (0: none).
	SnapshotLSN uint64 `json:"snapshot_lsn"`
	// DocsRestored counts home documents found in the store but missing
	// from the recovered graph (parsed back in during reconciliation).
	DocsRestored int `json:"docs_restored"`
	// CoopRestored counts hosted co-op copies that survived with their
	// bytes intact — the copies §4.5 would have revoked cluster-wide.
	CoopRestored int `json:"coop_restored"`
	// CoopDropped counts orphaned /~migrate files deleted because no
	// hosting record claimed them.
	CoopDropped int `json:"coop_dropped"`
}

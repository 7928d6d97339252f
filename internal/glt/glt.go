// Package glt implements the Global Load Table of §3.3: each server's
// best-effort local view of every cooperating server's load. Entries are
// piggybacked on ordinary HTTP transfers as the X-DCWS-Load extension
// header, so communicating load costs no extra connections; a freshest-
// timestamp-wins merge keeps the views convergent without coordination.
//
// The table is hash-sharded into fixed stripes so concurrent merges from
// worker goroutines contend per stripe instead of on one table lock, and
// every accepted write is stamped with a monotonically increasing table
// version. The version drives delta gossip: a server tracks, per peer,
// the highest version that peer has acknowledged (echoed back in the
// peer's own header) and piggybacks only entries newer than that, capped
// and stalest-first, with a periodic anti-entropy exchange as the safety
// net. Metadata items in the header start with '!' and are skipped by the
// entry parser, so old decoders interoperate with new encoders.
//
// Two metadata extensions ride on that rule. A '!c' item carries a
// server's calibrated capacity and zone label alongside its load entry,
// so placement can rank peers by absolute headroom (capacity x spare
// fraction) and prefer zone-local targets; entries stay parseable by
// legacy decoders, which simply skip the item. A '!d' item carries
// per-shard content digests for push-pull anti-entropy: the requester
// sends one digest per stripe, the responder ships back only the entries
// of stripes whose digests differ (plus its own digests for them), and
// the requester pushes back any stripe still diverged — so the safety
// net's cost is proportional to divergence, not to cluster size.
package glt

import (
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// HeaderName is the HTTP extension header carrying piggybacked load
// entries.
const HeaderName = "X-DCWS-Load"

// DefaultShards is the number of stripes the table is hashed across. It
// is fixed at construction; 16 stripes keep per-stripe contention low at
// the 64–256-server scale the delta gossip targets.
const DefaultShards = 16

// maxPeerStates bounds the per-peer gossip-state map so arbitrary sender
// identities in forged headers cannot grow it without limit. Past the
// cap, unknown senders are served stateless full deltas.
const maxPeerStates = 4096

// Entry is one (Server, LoadMetric) tuple with the freshness timestamp used
// for best-effort merging.
type Entry struct {
	// Server is the server's address ("host:port").
	Server string
	// Load is the server's load metric (CPS by default; see §5.3). When
	// the server gossips a Capacity, Load is instead its utilization —
	// the fraction of that capacity in use — so heterogeneous machines
	// advertise comparable figures.
	Load float64
	// Updated is when the load figure was measured, by the measuring
	// server's clock.
	Updated time.Time
	// Capacity is the server's self-calibrated achievable throughput in
	// the load metric's units (connections/s). Zero means the server
	// never advertised one (a legacy sender); placement then falls back
	// to a unit capacity, which reduces headroom ranking to plain
	// least-load ordering.
	Capacity float64
	// Zone is the server's locality/failure-domain label ("" when
	// unlabeled). Placement prefers same-zone targets and spills across
	// zones only when local headroom is exhausted.
	Zone string
}

// EffectiveCapacity is the capacity used for ranking: the advertised one,
// or 1 for entries that never gossiped a capacity, so an all-legacy
// cluster degenerates to the paper's raw least-load ordering.
func (e Entry) EffectiveCapacity() float64 {
	if e.Capacity > 0 {
		return e.Capacity
	}
	return 1
}

// Headroom is the server's absolute spare throughput: capacity times the
// unused load fraction. With utilization loads it is "how many more
// connections per second this machine can absorb" — the quantity a
// migration or chain-replication target should maximize. It goes negative
// for overloaded (or legacy raw-load) entries, which still orders them
// correctly: descending headroom then equals ascending load.
func (e Entry) Headroom() float64 {
	return e.EffectiveCapacity() * (1 - e.Load)
}

// entryRec is an Entry plus the table version at which it was written,
// the unit of delta gossip.
type entryRec struct {
	e   Entry
	ver uint64
}

// shard is one stripe of the table. The version counter is advanced
// inside the stripe's critical section, so an encoder that snapshots the
// version and then takes the stripe lock is guaranteed to see every
// record with ver at or below the snapshot.
type shard struct {
	mu      sync.RWMutex
	entries map[string]entryRec
}

// peerState is the gossip bookkeeping for one peer: what it has
// acknowledged receiving from us, what we last saw of its version (our
// ack to it), when we last exchanged full tables, and the cached delta
// encoding.
type peerState struct {
	mu sync.Mutex
	// acked is the highest table version the peer confirmed receiving,
	// from the !a echo in its own header. Last-observed wins so a peer
	// restart (version reset) recovers.
	acked uint64
	// seen is the table version the peer last advertised (!v); it is
	// echoed back to the peer as our !a.
	seen uint64
	// lastFull is when a full-table (anti-entropy) exchange with this
	// peer last happened, in either direction.
	lastFull time.Time

	// Cached delta encoding, valid for one (version, acked, full, max)
	// tuple. In steady state the table version and the peer's ack are
	// both stable between requests, so serving costs a compare.
	encVer     uint64
	encAck     uint64
	encFull    bool
	encMax     int
	encEntries int
	enc        string
	encValid   bool
}

// PeerGossip is the externally visible gossip state for one peer, for
// status endpoints and telemetry.
type PeerGossip struct {
	// Acked is the highest table version the peer has acknowledged.
	Acked uint64
	// Seen is the table version the peer last advertised.
	Seen uint64
	// LastFull is when the last full-table anti-entropy exchange with
	// the peer completed (zero when never).
	LastFull time.Time
}

// Piggyback is a decoded X-DCWS-Load header value: the entry list plus
// the gossip metadata items ("!f" sender, "!v" advertised version, "!a"
// ack, "!g" full exchange). Headers from old encoders decode with only
// Entries set.
type Piggyback struct {
	// From is the sender's address ("" for legacy or client headers).
	From string
	// Version is the table version the sender advertised: the highest
	// version V such that every record the recipient has not acked, up
	// to V, is included in Entries.
	Version uint64
	// Ack is the sender's echo of the highest version it has seen from
	// the recipient; HasAck reports whether it was present.
	Ack    uint64
	HasAck bool
	// Full marks a full-table anti-entropy payload; the responder to a
	// Full request replies in full.
	Full bool
	// Entries is the piggybacked load-entry list.
	Entries []Entry
	// Digests is the per-shard digest list of a push-pull anti-entropy
	// exchange ("!d" item); HasDigests reports whether one was present.
	// A requester sends digests for every stripe; a responder answers
	// with digests for (and entries of) only the diverged stripes.
	Digests    []ShardDigest
	HasDigests bool
}

// ShardDigest summarizes the contents of one table stripe for push-pull
// anti-entropy. Hash is an order-independent XOR of per-entry FNV-64a
// fingerprints, so two tables agree on a stripe's hash exactly when they
// hold identical entries for it — stripe membership (shardFor) is the
// same deterministic function on every node.
type ShardDigest struct {
	// Shard is the stripe index.
	Shard int
	// Count is how many entries the stripe holds.
	Count int
	// MaxMs is the newest entry timestamp in the stripe (Unix
	// milliseconds; 0 for an empty stripe).
	MaxMs int64
	// Hash is the stripe's content fingerprint.
	Hash uint64
}

// Table is one server's local copy of the global load information.
type Table struct {
	self   string
	shards []shard

	// selfMu guards the owning server's advertised capacity and zone,
	// folded into the self entry by UpdateSelf/RefreshSelf. They change
	// rarely (calibration ticks), never on the request hot path.
	selfMu       sync.Mutex
	selfCapacity float64
	selfZone     string

	// version advances on every accepted entry change, inside the
	// owning stripe's critical section. It tags records for delta
	// gossip and keys every encoding cache.
	version atomic.Uint64
	// merged counts entries applied from peers (piggyback merge
	// freshness telemetry).
	merged atomic.Int64

	// encMu guards the cached full-table header encoding.
	encMu      sync.Mutex
	encVersion uint64
	encValid   bool
	encoded    string
	encEntries int
	regens     atomic.Int64 // times the cached full encoding was rebuilt

	// clientMu guards the cached self-entry-only header attached to
	// plain client responses, keyed by the self record's version.
	clientMu    sync.Mutex
	clientVer   uint64
	clientValid bool
	clientEnc   string

	// peerMu guards the per-peer gossip-state map. Lock order:
	// peerState.mu may be held while taking stripe locks; neither is
	// ever taken while holding the other direction.
	peerMu sync.RWMutex
	peers  map[string]*peerState

	// Emission telemetry: header kinds and the size of the last header
	// produced by any encoder.
	deltaEmits  atomic.Int64
	fullEmits   atomic.Int64
	clientEmits atomic.Int64
	deltaRegens atomic.Int64
	lastEntries atomic.Int64
	lastBytes   atomic.Int64
}

// NewTable returns a table for the server with the given address. The
// server itself starts present with zero load so it is immediately
// eligible as a migration target for peers.
func NewTable(self string) *Table {
	t := &Table{
		self:   self,
		shards: make([]shard, DefaultShards),
		peers:  make(map[string]*peerState),
	}
	for i := range t.shards {
		t.shards[i].entries = make(map[string]entryRec)
	}
	sh := t.shardFor(self)
	sh.mu.Lock()
	sh.entries[self] = entryRec{e: Entry{Server: self}, ver: t.version.Add(1)}
	sh.mu.Unlock()
	return t
}

// shardFor maps a server address to its stripe (FNV-1a).
func (t *Table) shardFor(server string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(server); i++ {
		h ^= uint32(server[i])
		h *= 16777619
	}
	return &t.shards[h%uint32(len(t.shards))]
}

// Self returns the owning server's address.
func (t *Table) Self() string { return t.self }

// SetSelfInfo records the owning server's calibrated capacity and zone
// label. Both are folded into every subsequent self entry and travel as
// a '!c' metadata item next to it, so legacy decoders still parse the
// plain entry. A change rewrites the self entry in place (same load and
// wire timestamp semantics as RefreshSelf) so peers pick the new figures
// up on the next exchange.
func (t *Table) SetSelfInfo(capacity float64, zone string) {
	if capacity < 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		capacity = 0
	}
	// Store the wire form of the zone, so local shard digests agree with
	// what peers compute from the decoded header.
	zone = sanitizeZone(zone)
	t.selfMu.Lock()
	changed := t.selfCapacity != capacity || t.selfZone != zone
	t.selfCapacity, t.selfZone = capacity, zone
	t.selfMu.Unlock()
	if !changed {
		return
	}
	sh := t.shardFor(t.self)
	sh.mu.Lock()
	cur := sh.entries[t.self]
	e := cur.e
	e.Server = t.self
	e.Capacity, e.Zone = capacity, zone
	if cur.e.Server != "" {
		// The wire-visible timestamp must advance when the advertised
		// content changes, or relays tie on freshest-wins and keep
		// whichever copy they saw first (see bumpSelfStamp).
		e.Updated = bumpSelfStamp(cur.e.Updated, cur.e.Updated)
	}
	sh.entries[t.self] = entryRec{e: e, ver: t.version.Add(1)}
	sh.mu.Unlock()
}

// selfInfo returns the capacity and zone to stamp on a fresh self entry.
func (t *Table) selfInfo() (float64, string) {
	t.selfMu.Lock()
	defer t.selfMu.Unlock()
	return t.selfCapacity, t.selfZone
}

// bumpSelfStamp pushes at forward just far enough that the entry's
// wire-visible (millisecond) timestamp strictly advances past prev when
// the advertised value changes. Two self advertisements carrying different
// loads at the same wire timestamp would tie in every relay's
// freshest-wins merge — each relay keeps whichever copy it saw first, and
// the cluster never reconverges on the owner's value.
func bumpSelfStamp(prev, at time.Time) time.Time {
	if at.UnixMilli() > prev.UnixMilli() {
		return at
	}
	return time.UnixMilli(prev.UnixMilli() + 1)
}

// UpdateSelf records the owning server's own load measurement.
func (t *Table) UpdateSelf(load float64, at time.Time) {
	capacity, zone := t.selfInfo()
	sh := t.shardFor(t.self)
	sh.mu.Lock()
	cur := sh.entries[t.self]
	if cur.e.Server != "" && at.UnixMilli() <= cur.e.Updated.UnixMilli() {
		if load == cur.e.Load {
			at = cur.e.Updated
		} else {
			at = bumpSelfStamp(cur.e.Updated, at)
		}
	}
	sh.entries[t.self] = entryRec{
		e:   Entry{Server: t.self, Load: load, Updated: at, Capacity: capacity, Zone: zone},
		ver: t.version.Add(1),
	}
	sh.mu.Unlock()
}

// RefreshSelf updates the owning server's entry only when the load value
// changed or the existing entry is older than maxAge — the request hot
// path uses it with a quantized load so the piggyback header (and its
// cached encodings) stays stable across requests instead of churning on
// every response. maxAge <= 0 forces the refresh. Reports whether the
// entry changed.
func (t *Table) RefreshSelf(load float64, now time.Time, maxAge time.Duration) bool {
	capacity, zone := t.selfInfo()
	sh := t.shardFor(t.self)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur := sh.entries[t.self]
	if maxAge > 0 && cur.e.Load == load && now.Sub(cur.e.Updated) < maxAge {
		return false
	}
	if cur.e.Server != "" && load != cur.e.Load {
		now = bumpSelfStamp(cur.e.Updated, now)
	}
	sh.entries[t.self] = entryRec{
		e:   Entry{Server: t.self, Load: load, Updated: now, Capacity: capacity, Zone: zone},
		ver: t.version.Add(1),
	}
	return true
}

// Observe merges one entry, keeping whichever of the existing and new
// entries is fresher. The server's own entry is never overwritten by a
// peer's echo — our own measurement is authoritative, so even a
// forged future-dated echo cannot move it.
func (t *Table) Observe(e Entry) {
	if e.Server == "" {
		return
	}
	sh := t.shardFor(e.Server)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cur, ok := sh.entries[e.Server]
	if ok && (e.Server == t.self || !e.Updated.After(cur.e.Updated)) {
		return
	}
	sh.entries[e.Server] = entryRec{e: e, ver: t.version.Add(1)}
	if e.Server != t.self {
		t.merged.Add(1)
	}
}

// Merge merges every entry in the list (e.g. a decoded piggyback header).
func (t *Table) Merge(entries []Entry) {
	for _, e := range entries {
		t.Observe(e)
	}
}

// Get returns the entry for server and whether it is known.
func (t *Table) Get(server string) (Entry, bool) {
	sh := t.shardFor(server)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.entries[server]
	return rec.e, ok
}

// Known reports whether the table currently holds an entry for server.
// The pinger's recovery path uses it to detect a declared-down peer that
// re-entered the table through piggybacked load (§4.5).
func (t *Table) Known(server string) bool {
	sh := t.shardFor(server)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.entries[server]
	return ok
}

// Snapshot returns all entries sorted by server address. The snapshot is
// per-stripe consistent, best-effort across stripes, matching the
// table's convergence semantics.
func (t *Table) Snapshot() []Entry {
	out := make([]Entry, 0, t.Len())
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.entries {
			out = append(out, rec.e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out
}

// Servers returns every known server address, sorted.
func (t *Table) Servers() []string {
	out := make([]string, 0, t.Len())
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for s := range sh.entries {
			out = append(out, s)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// headroomLess orders entries for placement: more headroom first, ties by
// ascending load (two equal-capacity machines at the same headroom are
// interchangeable, but with mixed capacities the lower utilization is the
// safer target), then by address for determinism. For capacity-less
// entries headroom is 1-load, so the order reduces to the paper's
// ascending-load rule.
func headroomLess(a, b Entry) bool {
	ha, hb := a.Headroom(), b.Headroom()
	if ha != hb {
		return ha > hb
	}
	if a.Load != b.Load {
		return a.Load < b.Load
	}
	return a.Server < b.Server
}

// RankedByHeadroom returns every non-excluded entry ordered by descending
// headroom (ties by ascending load, then address) — §4.2 picked "the
// server with the lowest LoadMetric value"; with gossiped capacities the
// same rule runs on headroom = capacity x spare fraction, which
// degenerates to lowest load when no capacities are advertised. When zone
// is non-empty, entries in that zone order before all others — the
// zone-local placement preference: a caller walking the list tries every
// same-zone candidate before spilling to a cross-zone one, so remote
// targets are used only when local headroom is exhausted.
func (t *Table) RankedByHeadroom(exclude map[string]bool, zone string) []Entry {
	var all []Entry
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.entries {
			if exclude[rec.e.Server] {
				continue
			}
			all = append(all, rec.e)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if zone != "" {
			li, lj := all[i].Zone == zone, all[j].Zone == zone
			if li != lj {
				return li
			}
		}
		return headroomLess(all[i], all[j])
	})
	return all
}

// StaleServers returns servers whose entries are older than maxAge as of
// now — the servers the pinger thread must contact artificially (§4.5).
// The owning server itself is never reported stale.
func (t *Table) StaleServers(now time.Time, maxAge time.Duration) []string {
	var out []string
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for s, rec := range sh.entries {
			if s == t.self {
				continue
			}
			if now.Sub(rec.e.Updated) > maxAge {
				out = append(out, s)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Strings(out)
	return out
}

// Remove deletes a server's entry (e.g. after it is declared down),
// along with any gossip state held for it, so a later reappearance
// starts from a clean ack.
func (t *Table) Remove(server string) {
	if server == t.self {
		return
	}
	sh := t.shardFor(server)
	sh.mu.Lock()
	if _, ok := sh.entries[server]; ok {
		delete(sh.entries, server)
		t.version.Add(1)
	}
	sh.mu.Unlock()
	t.peerMu.Lock()
	delete(t.peers, server)
	t.peerMu.Unlock()
}

// Len reports the number of entries, including the owning server's.
func (t *Table) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		n += len(sh.entries)
		sh.mu.RUnlock()
	}
	return n
}

// Merged reports how many peer entries have been applied from piggybacked
// headers since startup — the GLT merge-freshness counter.
func (t *Table) Merged() int64 { return t.merged.Load() }

// OldestAge reports the age of the stalest peer entry as of now (0 when
// no peers are known) — a gauge of how fresh this server's view of the
// cluster is.
func (t *Table) OldestAge(now time.Time) time.Duration {
	var oldest time.Duration
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for s, rec := range sh.entries {
			if s == t.self {
				continue
			}
			if age := now.Sub(rec.e.Updated); age > oldest {
				oldest = age
			}
		}
		sh.mu.RUnlock()
	}
	return oldest
}

// Version returns the current table version — the stamp of the newest
// accepted write.
func (t *Table) Version() uint64 { return t.version.Load() }

// ShardCount reports the number of stripes.
func (t *Table) ShardCount() int { return len(t.shards) }

// ShardSizes reports the entry count per stripe, for balance telemetry.
func (t *Table) ShardSizes() []int {
	out := make([]int, len(t.shards))
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		out[i] = len(sh.entries)
		sh.mu.RUnlock()
	}
	return out
}

// HeaderRegens reports how many times the cached full-table encoding had
// to be rebuilt because the table changed.
func (t *Table) HeaderRegens() int64 { return t.regens.Load() }

// DeltaRegens reports how many times a per-peer delta encoding had to be
// rebuilt (cache key: table version, peer ack, full flag, cap).
func (t *Table) DeltaRegens() int64 { return t.deltaRegens.Load() }

// HeaderBytes reports the size of the most recently emitted piggyback
// header value, of any kind (0 before the first encoding).
func (t *Table) HeaderBytes() int { return int(t.lastBytes.Load()) }

// LastHeaderEntries reports how many load entries the most recently
// emitted piggyback header carried.
func (t *Table) LastHeaderEntries() int { return int(t.lastEntries.Load()) }

// DeltaEmits, FullEmits and ClientEmits count emitted headers by kind:
// per-peer deltas, full-table exchanges (legacy EncodeHeader or
// anti-entropy), and self-entry-only client headers.
func (t *Table) DeltaEmits() int64  { return t.deltaEmits.Load() }
func (t *Table) FullEmits() int64   { return t.fullEmits.Load() }
func (t *Table) ClientEmits() int64 { return t.clientEmits.Load() }

// GossipPeers returns the per-peer gossip state, keyed by peer address.
func (t *Table) GossipPeers() map[string]PeerGossip {
	t.peerMu.RLock()
	defer t.peerMu.RUnlock()
	out := make(map[string]PeerGossip, len(t.peers))
	for a, ps := range t.peers {
		ps.mu.Lock()
		out[a] = PeerGossip{Acked: ps.acked, Seen: ps.seen, LastFull: ps.lastFull}
		ps.mu.Unlock()
	}
	return out
}

// peer returns the gossip state for addr, creating it if the state map
// has room; nil past the cap (callers then run stateless).
func (t *Table) peer(addr string) *peerState {
	t.peerMu.RLock()
	ps := t.peers[addr]
	t.peerMu.RUnlock()
	if ps != nil {
		return ps
	}
	t.peerMu.Lock()
	defer t.peerMu.Unlock()
	if ps := t.peers[addr]; ps != nil {
		return ps
	}
	if len(t.peers) >= maxPeerStates {
		return nil
	}
	ps = &peerState{}
	t.peers[addr] = ps
	return ps
}

// Absorb merges a decoded piggyback into the table and updates gossip
// state for the sender: its advertised version becomes our ack to it,
// its ack (bounded by our own version, so an ack from a previous life of
// this table resets instead of wedging gossip) becomes the delta floor
// for what we send next, and a full exchange stamps lastFull.
func (t *Table) Absorb(p Piggyback, now time.Time) {
	t.Merge(p.Entries)
	if p.From == "" || p.From == t.self {
		return
	}
	ps := t.peer(p.From)
	if ps == nil {
		return
	}
	ps.mu.Lock()
	// Versions are monotone within one table's life, so a peer whose
	// advertised version went backward restarted and lost everything it
	// acked before; clearing the floor resends it all. Last-observed
	// wins for seen for the same reason: echoing the dead high-water
	// mark forever would stop the restarted peer from ever resending.
	// A reordered in-flight header only causes a harmless resend.
	if p.Version < ps.seen {
		ps.acked = 0
	}
	ps.seen = p.Version
	if p.HasAck {
		if p.Ack > t.version.Load() {
			ps.acked = 0
		} else {
			ps.acked = p.Ack
		}
	}
	if p.Full || p.HasDigests {
		// A digest-bearing header is an anti-entropy touch: either the
		// request leg (responder side) or the response leg (requester
		// side) of the push-pull exchange.
		ps.lastFull = now
	}
	ps.mu.Unlock()
}

// encodeBufPool recycles the scratch buffers the encoders serialize
// into; encoding runs on every piggybacked response, so the buffer must
// not be reallocated per call.
var encodeBufPool = sync.Pool{New: func() any { return new([]byte) }}

// appendEntry serializes one entry as server=load@unixMilli. Addresses
// contain no '=' ',' or '@' so the encoding needs no escaping.
func appendEntry(buf []byte, e Entry) []byte {
	buf = append(buf, e.Server...)
	buf = append(buf, '=')
	buf = strconv.AppendFloat(buf, e.Load, 'g', -1, 64)
	buf = append(buf, '@')
	buf = strconv.AppendInt(buf, e.Updated.UnixMilli(), 10)
	return buf
}

// appendEntryWithMeta serializes one entry, followed — when the entry
// carries a capacity or zone — by its ",!c=server@capacity@zone" metadata
// item. The capacity rides as a separate '!'-item rather than a suffix on
// the entry because a legacy decoder parses everything after the entry's
// '@' as the timestamp: a suffix would make it drop the whole entry,
// while an unknown '!' key is skipped cleanly.
func appendEntryWithMeta(buf []byte, e Entry) []byte {
	buf = appendEntry(buf, e)
	if e.Capacity <= 0 && e.Zone == "" {
		return buf
	}
	buf = append(buf, ",!c="...)
	buf = append(buf, e.Server...)
	buf = append(buf, '@')
	buf = strconv.AppendFloat(buf, e.Capacity, 'g', -1, 64)
	buf = append(buf, '@')
	buf = append(buf, sanitizeZone(e.Zone)...)
	return buf
}

// sanitizeZone strips the characters that would corrupt the header
// encoding from a zone label (list separators and the entry/meta
// delimiters). Operators pick zone names; a hostile or fat-fingered one
// must not wedge every decoder in the cluster.
func sanitizeZone(zone string) string {
	if !strings.ContainsAny(zone, ",=@ \t") {
		return zone
	}
	var b strings.Builder
	for i := 0; i < len(zone); i++ {
		switch zone[i] {
		case ',', '=', '@', ' ', '\t':
		default:
			b.WriteByte(zone[i])
		}
	}
	return b.String()
}

func (t *Table) noteEmit(kind *atomic.Int64, entries, bytes int) {
	kind.Add(1)
	t.lastEntries.Store(int64(entries))
	t.lastBytes.Store(int64(bytes))
}

// EncodeHeader serializes the complete table in the legacy format:
//
//	server=load@unixMilli,server=load@unixMilli,...
//
// The encoding is cached against the table version: with the hot path's
// quantized, throttled self-refresh (RefreshSelf) the table is unchanged
// between most requests and re-encoding costs a version compare. Delta
// gossip replaces this on the inter-server path; it remains for tooling,
// benchmarks, and wire compatibility.
func (t *Table) EncodeHeader() string {
	t.encMu.Lock()
	defer t.encMu.Unlock()
	// Snapshot the version before scanning: a concurrent write during
	// the scan leaves the cache tagged older than the live version, so
	// the next call rebuilds rather than serving a stale entry.
	v := t.version.Load()
	if t.encValid && t.encVersion == v {
		t.noteEmit(&t.fullEmits, t.encEntries, len(t.encoded))
		return t.encoded
	}
	entries := t.Snapshot()
	bp := encodeBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	for i, e := range entries {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = appendEntryWithMeta(buf, e)
	}
	out := string(buf)
	*bp = buf
	encodeBufPool.Put(bp)
	t.encoded, t.encVersion, t.encValid, t.encEntries = out, v, true, len(entries)
	t.regens.Add(1)
	t.noteEmit(&t.fullEmits, len(entries), len(out))
	return out
}

// EncodeClientHeader serializes only the owning server's entry, for
// plain client responses: clients cannot ack versions, so sending them
// the whole cluster's table is wasted bytes that grow O(cluster). The
// encoding is cached against the self record's version, so at 256
// servers a client response still costs a compare and carries a
// constant-size header.
func (t *Table) EncodeClientHeader() string {
	sh := t.shardFor(t.self)
	sh.mu.RLock()
	rec := sh.entries[t.self]
	sh.mu.RUnlock()
	t.clientMu.Lock()
	if t.clientValid && t.clientVer == rec.ver {
		out := t.clientEnc
		t.clientMu.Unlock()
		t.noteEmit(&t.clientEmits, 1, len(out))
		return out
	}
	bp := encodeBufPool.Get().(*[]byte)
	buf := appendEntryWithMeta((*bp)[:0], rec.e)
	out := string(buf)
	*bp = buf
	encodeBufPool.Put(bp)
	t.clientEnc, t.clientVer, t.clientValid = out, rec.ver, true
	t.clientMu.Unlock()
	t.noteEmit(&t.clientEmits, 1, len(out))
	return out
}

// EncodePiggybackTo serializes the delta this peer has not yet
// acknowledged, newest entries last:
//
//	!f=self,!v=V,[!a=A,][!g=1,]server=load@unixMilli,...
//
// The advertised version V is chosen so that every record the peer has
// not acked with version ≤ V is included (or is the peer's own entry,
// which it holds authoritatively): candidates are sorted by version
// ascending — stalest information first — and when more than max remain
// the list is cut there and V drops to the last included record's
// version, so acks never cover entries that were never sent. full
// ignores the ack floor and the cap and adds !g=1, requesting a full
// table in return — the anti-entropy exchange. max <= 0 means uncapped.
func (t *Table) EncodePiggybackTo(peer string, now time.Time, max int, full bool) string {
	ps := t.peer(peer)
	var acked, seen uint64
	if ps != nil {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		acked, seen = ps.acked, ps.seen
	}
	v0 := t.version.Load()
	if ps != nil && ps.encValid && ps.encVer == v0 && ps.encAck == acked && ps.encFull == full && ps.encMax == max {
		if full {
			ps.lastFull = now
		}
		kind := &t.deltaEmits
		if full {
			kind = &t.fullEmits
		}
		t.noteEmit(kind, ps.encEntries, len(ps.enc))
		return ps.enc
	}
	floor := acked
	if full {
		floor = 0
	}
	var cands []entryRec
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.entries {
			// ver > v0 means the write raced past our version snapshot;
			// advertising v0 while omitting it would let the peer ack an
			// entry it never received, so it waits for the next delta.
			if rec.ver > floor && rec.ver <= v0 && rec.e.Server != peer {
				cands = append(cands, rec)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].ver < cands[j].ver })
	adv := v0
	if !full && max > 0 && len(cands) > max {
		cands = cands[:max]
		adv = cands[len(cands)-1].ver
	}
	bp := encodeBufPool.Get().(*[]byte)
	buf := (*bp)[:0]
	buf = append(buf, "!f="...)
	buf = append(buf, t.self...)
	buf = append(buf, ",!v="...)
	buf = strconv.AppendUint(buf, adv, 10)
	if seen > 0 {
		buf = append(buf, ",!a="...)
		buf = strconv.AppendUint(buf, seen, 10)
	}
	if full {
		buf = append(buf, ",!g=1"...)
	}
	for _, rec := range cands {
		buf = append(buf, ',')
		buf = appendEntryWithMeta(buf, rec.e)
	}
	out := string(buf)
	*bp = buf
	encodeBufPool.Put(bp)
	if ps != nil {
		ps.enc, ps.encVer, ps.encAck, ps.encFull, ps.encMax = out, v0, acked, full, max
		ps.encEntries, ps.encValid = len(cands), true
		if full {
			ps.lastFull = now
		}
	}
	t.deltaRegens.Add(1)
	kind := &t.deltaEmits
	if full {
		kind = &t.fullEmits
	}
	t.noteEmit(kind, len(cands), len(out))
	return out
}

// ---- push-pull shard-digest anti-entropy --------------------------------
//
// The protocol replaces the full-table safety-net exchange with three
// legs, each cost-proportional to divergence:
//
//	requester: !d=<digest of every non-empty stripe>          (no entries)
//	responder: !d=<its digests of the diverged stripes>, plus the
//	           entries of exactly those stripes
//	requester: entries of the stripes still diverged after absorbing
//	           the response (the push half of push-pull)
//
// Stripe membership (shardFor) is a fixed deterministic hash, so both
// sides agree which entries each digest covers without exchanging names.

// entryHash fingerprints one entry for shard digests, over its
// wire-visible values (millisecond timestamp, exact float bits), so a
// table and a peer that merged the same headers agree on the hash.
func entryHash(e Entry) uint64 {
	h := uint64(14695981039346656037)
	step := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for i := 0; i < len(e.Server); i++ {
		step(e.Server[i])
	}
	step(0)
	put64 := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			step(byte(v >> s))
		}
	}
	put64(math.Float64bits(e.Load))
	put64(uint64(e.Updated.UnixMilli()))
	put64(math.Float64bits(e.Capacity))
	for i := 0; i < len(e.Zone); i++ {
		step(e.Zone[i])
	}
	return h
}

// digestShard computes one stripe's digest. The per-entry hashes are
// XORed, not chained, so the digest is independent of map iteration
// order and comparable across nodes.
func (t *Table) digestShard(i int) ShardDigest {
	sh := &t.shards[i]
	d := ShardDigest{Shard: i}
	sh.mu.RLock()
	for _, rec := range sh.entries {
		d.Count++
		d.Hash ^= entryHash(rec.e)
		if ms := rec.e.Updated.UnixMilli(); ms > d.MaxMs {
			d.MaxMs = ms
		}
	}
	sh.mu.RUnlock()
	return d
}

// Digests returns a digest for every non-empty stripe, ordered by stripe
// index — the requester's half of a push-pull anti-entropy exchange.
func (t *Table) Digests() []ShardDigest {
	out := make([]ShardDigest, 0, len(t.shards))
	for i := range t.shards {
		if d := t.digestShard(i); d.Count > 0 {
			out = append(out, d)
		}
	}
	return out
}

// DiffShards returns the stripes whose local content differs from the
// remote digests, in either direction: a stripe the remote has and we
// lack diverges exactly like one we have and the remote lacks (an absent
// remote digest reads as empty). Indexes outside the local stripe range
// are ignored.
func (t *Table) DiffShards(remote []ShardDigest) []int {
	byShard := make(map[int]ShardDigest, len(remote))
	for _, d := range remote {
		if d.Shard >= 0 && d.Shard < len(t.shards) {
			byShard[d.Shard] = d
		}
	}
	var out []int
	for i := range t.shards {
		ld := t.digestShard(i)
		rd := byShard[i]
		if ld.Hash != rd.Hash || ld.Count != rd.Count {
			out = append(out, i)
		}
	}
	return out
}

// appendDigests serializes digests as a '!d' item:
// shard.count.maxMs.hash quads joined by ';' (count decimal, maxMs and
// hash hex). An empty list emits the "-" placeholder so the item stays
// wire-visible — its presence is what tells the requester the responder
// ran the digest protocol.
func appendDigests(buf []byte, ds []ShardDigest) []byte {
	buf = append(buf, "!d="...)
	if len(ds) == 0 {
		return append(buf, '-')
	}
	for i, d := range ds {
		if i > 0 {
			buf = append(buf, ';')
		}
		buf = strconv.AppendInt(buf, int64(d.Shard), 10)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, int64(d.Count), 10)
		buf = append(buf, '.')
		buf = strconv.AppendInt(buf, d.MaxMs, 16)
		buf = append(buf, '.')
		buf = strconv.AppendUint(buf, d.Hash, 16)
	}
	return buf
}

// peerSeen returns the version last advertised by peer (our ack to it).
func (t *Table) peerSeen(peer string) uint64 {
	ps := t.peer(peer)
	if ps == nil {
		return 0
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.seen
}

// appendGossipMeta serializes the standard metadata prefix (!f, !v, !a)
// shared by the digest-protocol encoders.
func (t *Table) appendGossipMeta(buf []byte, peer string) []byte {
	buf = append(buf, "!f="...)
	buf = append(buf, t.self...)
	buf = append(buf, ",!v="...)
	buf = strconv.AppendUint(buf, t.version.Load(), 10)
	if seen := t.peerSeen(peer); seen > 0 {
		buf = append(buf, ",!a="...)
		buf = strconv.AppendUint(buf, seen, 10)
	}
	return buf
}

// EncodeDigestTo serializes the digest-request leg of a push-pull
// anti-entropy exchange: gossip metadata plus a digest of every non-empty
// stripe, and no entries. Entries skipped by the advertised version are
// safe: any content the peer lacks surfaces as a stripe divergence and
// ships in the response or push-back leg.
func (t *Table) EncodeDigestTo(peer string) string {
	bp := encodeBufPool.Get().(*[]byte)
	buf := t.appendGossipMeta((*bp)[:0], peer)
	buf = append(buf, ',')
	buf = appendDigests(buf, t.Digests())
	out := string(buf)
	*bp = buf
	encodeBufPool.Put(bp)
	t.fullEmits.Add(1)
	t.lastEntries.Store(0)
	t.lastBytes.Store(int64(len(out)))
	return out
}

// shardEntries collects the entries of the given stripes, excluding the
// peer's own entry (the peer holds it authoritatively).
func (t *Table) shardEntries(shardIdx []int, peer string) []Entry {
	var out []Entry
	for _, i := range shardIdx {
		if i < 0 || i >= len(t.shards) {
			continue
		}
		sh := &t.shards[i]
		sh.mu.RLock()
		for _, rec := range sh.entries {
			if rec.e.Server != peer {
				out = append(out, rec.e)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Server < out[j].Server })
	return out
}

// EncodeDigestResponse serializes the responder leg: given the
// requester's digests, it carries the responder's own digests of the
// diverged stripes plus the entries of exactly those stripes. It returns
// the header value and how many stripes diverged.
func (t *Table) EncodeDigestResponse(peer string, remote []ShardDigest) (string, int) {
	diff := t.DiffShards(remote)
	local := make([]ShardDigest, 0, len(diff))
	for _, i := range diff {
		local = append(local, t.digestShard(i))
	}
	entries := t.shardEntries(diff, peer)
	bp := encodeBufPool.Get().(*[]byte)
	buf := t.appendGossipMeta((*bp)[:0], peer)
	buf = append(buf, ',')
	buf = appendDigests(buf, local)
	for _, e := range entries {
		buf = append(buf, ',')
		buf = appendEntryWithMeta(buf, e)
	}
	out := string(buf)
	*bp = buf
	encodeBufPool.Put(bp)
	t.fullEmits.Add(1)
	t.lastEntries.Store(int64(len(entries)))
	t.lastBytes.Store(int64(len(out)))
	return out, len(diff)
}

// StillDiverged returns the subset of the responder's reported stripes
// whose local digest still disagrees after the response was absorbed —
// the stripes the requester must push back.
func (t *Table) StillDiverged(remote []ShardDigest) []int {
	var out []int
	for _, rd := range remote {
		if rd.Shard < 0 || rd.Shard >= len(t.shards) {
			continue
		}
		ld := t.digestShard(rd.Shard)
		if ld.Hash != rd.Hash || ld.Count != rd.Count {
			out = append(out, rd.Shard)
		}
	}
	return out
}

// EncodeShardEntriesTo serializes the push-back leg: the entries of the
// given stripes, under the usual gossip metadata, with no digest item.
func (t *Table) EncodeShardEntriesTo(peer string, shardIdx []int) string {
	entries := t.shardEntries(shardIdx, peer)
	bp := encodeBufPool.Get().(*[]byte)
	buf := t.appendGossipMeta((*bp)[:0], peer)
	for _, e := range entries {
		buf = append(buf, ',')
		buf = appendEntryWithMeta(buf, e)
	}
	out := string(buf)
	*bp = buf
	encodeBufPool.Put(bp)
	t.fullEmits.Add(1)
	t.lastEntries.Store(int64(len(entries)))
	t.lastBytes.Store(int64(len(out)))
	return out
}

// DecodeHeader parses the entry list of a piggyback header value.
// Malformed items are skipped — extension headers from foreign
// implementations must never wedge the server.
func DecodeHeader(v string) []Entry {
	return DecodePiggyback(v).Entries
}

// entryMeta is a decoded '!c' item: the capacity and zone advertised for
// one server, re-associated with its entry after the scan.
type entryMeta struct {
	capacity float64
	zone     string
}

// decodeEntryMeta parses a '!c' value: server@capacity@zone. The zone may
// be empty; addresses contain no '@' so the first two separators are
// unambiguous.
func decodeEntryMeta(val string) (string, entryMeta, bool) {
	i := strings.IndexByte(val, '@')
	if i <= 0 {
		return "", entryMeta{}, false
	}
	server, rest := val[:i], val[i+1:]
	j := strings.IndexByte(rest, '@')
	if j < 0 {
		return "", entryMeta{}, false
	}
	capacity, err := strconv.ParseFloat(rest[:j], 64)
	if err != nil || capacity < 0 || math.IsNaN(capacity) || math.IsInf(capacity, 0) {
		return "", entryMeta{}, false
	}
	return server, entryMeta{capacity: capacity, zone: rest[j+1:]}, true
}

// decodeDigests parses a '!d' value: shard.count.maxMs.hash quads (all
// base-16 except the stripe index) joined by ';'. Malformed quads are
// skipped.
func decodeDigests(val string) []ShardDigest {
	var out []ShardDigest
	for _, item := range strings.Split(val, ";") {
		if item == "" {
			continue
		}
		f := strings.Split(item, ".")
		if len(f) != 4 {
			continue
		}
		shardIdx, err1 := strconv.Atoi(f[0])
		count, err2 := strconv.Atoi(f[1])
		maxMs, err3 := strconv.ParseInt(f[2], 16, 64)
		hash, err4 := strconv.ParseUint(f[3], 16, 64)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil ||
			shardIdx < 0 || count < 0 {
			continue
		}
		out = append(out, ShardDigest{Shard: shardIdx, Count: count, MaxMs: maxMs, Hash: hash})
	}
	return out
}

// DecodePiggyback parses a piggyback header value: load entries plus the
// '!'-prefixed gossip metadata items. Malformed items — entries or
// metadata — are skipped, and loads must be finite and non-negative, so
// an arbitrary header can never panic the decoder or poison the table.
func DecodePiggyback(v string) Piggyback {
	var p Piggyback
	if v == "" {
		return p
	}
	var meta map[string]entryMeta
	for _, part := range strings.Split(v, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part[0] == '!' {
			if len(part) < 4 || part[2] != '=' {
				continue
			}
			val := part[3:]
			switch part[1] {
			case 'f':
				if !strings.ContainsAny(val, "=@ ") {
					p.From = val
				}
			case 'v':
				if n, err := strconv.ParseUint(val, 10, 64); err == nil {
					p.Version = n
				}
			case 'a':
				if n, err := strconv.ParseUint(val, 10, 64); err == nil {
					p.Ack, p.HasAck = n, true
				}
			case 'g':
				if val == "1" {
					p.Full = true
				}
			case 'c':
				if server, m, ok := decodeEntryMeta(val); ok {
					if meta == nil {
						meta = make(map[string]entryMeta)
					}
					meta[server] = m
				}
			case 'd':
				p.Digests = decodeDigests(val)
				p.HasDigests = true
			}
			continue
		}
		eq := strings.LastIndexByte(part, '=')
		at := strings.LastIndexByte(part, '@')
		if eq <= 0 || at <= eq+1 || at == len(part)-1 {
			continue
		}
		load, err := strconv.ParseFloat(part[eq+1:at], 64)
		if err != nil || load < 0 || math.IsNaN(load) || math.IsInf(load, 0) {
			continue
		}
		ms, err := strconv.ParseInt(part[at+1:], 10, 64)
		if err != nil {
			continue
		}
		p.Entries = append(p.Entries, Entry{
			Server:  part[:eq],
			Load:    load,
			Updated: time.UnixMilli(ms),
		})
	}
	// Re-associate '!c' items with their entries by server name. Items
	// are emitted adjacent to their entry but order is not relied on, and
	// an item without a matching entry is dropped — it cannot create a
	// phantom server.
	if meta != nil {
		for i := range p.Entries {
			if m, ok := meta[p.Entries[i].Server]; ok {
				p.Entries[i].Capacity = m.capacity
				p.Entries[i].Zone = m.zone
			}
		}
	}
	return p
}

package dcws

import (
	"container/list"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcws/internal/glt"
	"dcws/internal/naming"
)

// CoopAction is the co-op core's answer to a request for a hosted copy.
type CoopAction int

const (
	// CoopServe: the copy is present; serve it.
	CoopServe CoopAction = iota
	// CoopValidate: the copy is present but its lease has run out; validate
	// it with its home before serving it.
	CoopValidate
	// CoopFetch: the copy is absent; this request fetches it from its home
	// (the lazy physical migration of §4.2).
	CoopFetch
)

// Validation outcomes (§4.5 case 1), as Coop.Validated decides them.
const (
	ValidCurrent   = "current"   // 304: the copy is current
	ValidRefreshed = "refreshed" // 200: the home sent a new copy
	ValidDropped   = "dropped"   // anything else: the copy is no longer ours
)

// CoopCopy is the read-only snapshot of one hosted copy's record that
// drivers work with outside the core's lock.
type CoopCopy struct {
	Home    string // the home server's address
	Name    string // the document's name at its home
	Present bool
	Hash    uint64
	Size    int64 // of the present copy; zero while absent
	// Leased / LeaseUntil mirror the record's lease state (push
	// invalidation); a never-leased record reports Leased == false.
	Leased     bool
	LeaseUntil time.Time
}

// coopDoc is a document this server hosts on behalf of a home server. Its
// fields are guarded by the owning Coop's lock.
type coopDoc struct {
	key       string // the naming-encoded /~migrate path
	home      string // home server address
	name      string // original document name at home
	present   bool   // physically fetched
	hash      uint64 // content hash for validation
	size      int64
	windowHit int64         // hits this window (for hot-spot reporting)
	elem      *list.Element // position in the LRU (present copies)
	siblings  []string      // other coops hosting replicas of this document,
	// learned from X-DCWS-Replicas on fetch/validation responses; hedged
	// fetches race one of these against the home server

	// leased / leaseUntil implement push invalidation's lease state: while
	// leaseUntil is in the future the copy may be served without polling
	// (the home pushes invalidations instead). Renewed in bulk by channel
	// liveness and per-doc by successful validations. A record that never
	// subscribed keeps leased == false and the legacy polling semantics.
	leased     bool
	leaseUntil time.Time
}

// peerHealth is what the pinger knows of one peer.
type peerHealth struct {
	fails int       // consecutive failed probes
	down  bool      // declared down (§4.5)
	stamp int64     // the peer's last stamp when it was declared down
	heard time.Time // last message from the peer itself, not relayed
}

// Coop is the co-op side of one server, written once for the live server
// and the simulator (§4.5): the copies it hosts for other homes — their
// presence, window hits, hash and lease — and the health of the peers its
// pinger probes. It is transport-free, like Controller: drivers carry the
// requests it asks for and report the answers back.
// Hosted copies are keyed by their naming-encoded /~migrate path. The
// records sit in a map plus a container/list LRU of the present copies and
// a running byte total, so the disk budget is enforced in O(evictions).
type Coop struct {
	params Params
	table  *glt.Table

	mu    sync.RWMutex
	docs  map[string]*coopDoc
	lru   *list.List // of *coopDoc, present copies only; front = most recent
	bytes int64      // running total of present copy sizes

	peerMu sync.Mutex
	peers  map[string]*peerHealth
}

// NewCoop returns the co-op core of the server owning table. params must
// be resolved (WithDefaults).
func NewCoop(params Params, table *glt.Table) *Coop {
	return &Coop{
		params: params,
		table:  table,
		docs:   make(map[string]*coopDoc),
		lru:    list.New(),
		peers:  make(map[string]*peerHealth),
	}
}

// ---- hosted copies -------------------------------------------------------

// Touch counts one request for key, creating its record on first touch,
// and decides how to answer it — all in one critical section: a present
// copy is served unless its lease has run out, an absent one is fetched.
func (c *Coop) Touch(key string, now time.Time) (CoopCopy, CoopAction) {
	c.mu.Lock()
	cd := c.ensureLocked(key)
	cd.windowHit++
	if cd.elem != nil {
		c.lru.MoveToFront(cd.elem)
	}
	act := CoopFetch
	switch {
	case cd.present && cd.leased && !cd.leaseUntil.After(now):
		act = CoopValidate
	case cd.present:
		act = CoopServe
	}
	v := cd.viewLocked()
	c.mu.Unlock()
	return v, act
}

// ensureLocked returns key's record, creating it if unknown; lock held. A
// new record keeps private copies of its strings: they arrive as
// substrings of a request head or a pushed frame, which a record must not
// keep alive. key must be a naming-encoded path; callers check it.
func (c *Coop) ensureLocked(key string) *coopDoc {
	cd, ok := c.docs[key]
	if !ok {
		home, name, _ := naming.Decode(key)
		cd = &coopDoc{key: strings.Clone(key), home: home.Addr(), name: strings.Clone(name)}
		c.docs[cd.key] = cd
	}
	return cd
}

// View returns the record for key without touching its accounting.
func (c *Coop) View(key string) (CoopCopy, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if cd, ok := c.docs[key]; ok {
		return cd.viewLocked(), true
	}
	return CoopCopy{}, false
}

func (cd *coopDoc) viewLocked() CoopCopy {
	return CoopCopy{
		Home: cd.home, Name: cd.name, Present: cd.present, Hash: cd.hash,
		Size: cd.presentSize(), Leased: cd.leased, LeaseUntil: cd.leaseUntil,
	}
}

// restore hosts a copy recovered from the durable state: surviving copies
// join the LRU as most recent, there being no better ordering signal than
// "it survived".
func (c *Coop) restore(seed coopSeed) {
	c.mu.Lock()
	if cd := c.ensureLocked(seed.key); seed.present {
		c.presentLocked(cd, seed.size, seed.hash)
	}
	c.mu.Unlock()
}

// Host creates key's record if it is unknown. Only a copy that arrives
// unasked needs it: a chain push, which Admit then stores, or recovery. It
// counts no hit: only a client request does.
func (c *Coop) Host(key string) {
	c.mu.Lock()
	c.ensureLocked(key)
	c.mu.Unlock()
}

// Admit records that a copy of key of size bytes and content hash has
// arrived — by a fetch, a validation refresh or a chain push — and
// enforces the co-op disk budget (§4.5: hosted data is kept until disk
// space forces it out). It reports false, changing nothing, when the
// record is gone: the copy was revoked while its bytes were on the way,
// and its home sends this host no updates for it. evicted names the least
// recently used other copies now absent, for the caller to delete outside
// the lock: they stay hosted, and the next request for one fetches it
// again. The arrived copy is the most recent and is never evicted. With
// leases on, the copy is leased: a fresh copy is as good as a pushed frame.
func (c *Coop) Admit(key string, size int64, hash uint64, now time.Time) (ok bool, evicted []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cd, ok := c.docs[key]
	if !ok {
		return false, nil
	}
	c.presentLocked(cd, size, hash)
	if c.params.LeaseDuration > 0 {
		cd.leased, cd.leaseUntil = true, now.Add(c.params.LeaseDuration)
	}
	for budget := c.params.CoopCacheBytes; budget > 0 && c.bytes > budget && c.lru.Back() != cd.elem; {
		old := c.lru.Back().Value.(*coopDoc)
		c.dropPresenceLocked(old)
		evicted = append(evicted, old.key)
	}
	return true, evicted
}

// presentLocked records cd's copy present in the store as the most
// recently used; lock held.
func (c *Coop) presentLocked(cd *coopDoc, size int64, hash uint64) {
	c.bytes += size - cd.presentSize()
	cd.present, cd.hash, cd.size = true, hash, size
	if cd.elem == nil {
		cd.elem = c.lru.PushFront(cd)
	} else {
		c.lru.MoveToFront(cd.elem)
	}
}

// markAbsent records that the physical copy for key is gone (evicted or
// vanished from the store); the document remains logically hosted and is
// re-fetched lazily on its next request.
func (c *Coop) markAbsent(key string) {
	c.mu.Lock()
	if cd, ok := c.docs[key]; ok {
		c.dropPresenceLocked(cd)
	}
	c.mu.Unlock()
}

// Drop forgets key entirely (revocation, a home that no longer places the
// document here). It reports whether the key was hosted at all.
func (c *Coop) Drop(key string) bool {
	c.mu.Lock()
	cd, ok := c.docs[key]
	if ok {
		c.dropPresenceLocked(cd)
		delete(c.docs, key)
	}
	c.mu.Unlock()
	return ok
}

// dropPresenceLocked clears a record's physical presence; lock held.
func (c *Coop) dropPresenceLocked(cd *coopDoc) {
	if cd.present {
		c.bytes -= cd.size
	}
	cd.present = false
	cd.size = 0
	if cd.elem != nil {
		c.lru.Remove(cd.elem)
		cd.elem = nil
	}
}

// Sweep is the validator's work list for one T_val pass: the present
// copies to poll, in key order, and how many it skipped. With push
// invalidation on, a copy whose lease is unexpired and whose home's
// subscription channel is live (subscribed reports it; nil means none is)
// is skipped: the home promises to push changes, so polling it is waste.
// Copies without that cover fall back to the paper's conditional GET.
func (c *Coop) Sweep(now time.Time, subscribed func(home string) bool) (poll []string, skipped int) {
	type entry struct {
		key, home string
		leased    bool
	}
	c.mu.RLock()
	present := make([]entry, 0, c.lru.Len())
	for e := c.lru.Front(); e != nil; e = e.Next() {
		cd := e.Value.(*coopDoc)
		present = append(present, entry{cd.key, cd.home, cd.leased && cd.leaseUntil.After(now)})
	}
	c.mu.RUnlock()
	sort.Slice(present, func(i, j int) bool { return present[i].key < present[j].key })
	for _, e := range present {
		if e.leased && subscribed != nil && subscribed(e.home) {
			skipped++
			continue
		}
		poll = append(poll, e.key)
	}
	return poll, skipped
}

// Validated reads a home's answer to the validation of key: 304 means the
// copy is current and renews its lease, 200 means the home sent a refresh
// (the caller stores it through Admit), and anything else means the home
// no longer places the document here (the caller drops the copy).
func (c *Coop) Validated(key string, status int, now time.Time) string {
	switch status {
	case 304:
		if c.params.LeaseDuration > 0 {
			c.renewLease(key, now.Add(c.params.LeaseDuration))
		}
		return ValidCurrent
	case 200:
		return ValidRefreshed
	}
	return ValidDropped
}

// RollWindows zeroes the per-document hit counters (statistics tick).
func (c *Coop) RollWindows() {
	c.mu.Lock()
	for _, cd := range c.docs {
		cd.windowHit = 0
	}
	c.mu.Unlock()
}

// HotReport returns this window's hits on every document hosted for one
// home that has any: the per-home hot report a co-op piggybacks on its
// fetch and validation requests to that home (replication extension).
func (c *Coop) HotReport(home string) map[string]int64 {
	var hits map[string]int64
	c.mu.RLock()
	c.forHomeLocked(home, func(cd *coopDoc) {
		if cd.windowHit > 0 {
			if hits == nil {
				hits = make(map[string]int64)
			}
			hits[cd.name] = cd.windowHit
		}
	})
	c.mu.RUnlock()
	return hits
}

// count reports how many documents are hosted (present or pending fetch).
func (c *Coop) count() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// keys returns every hosted key, sorted.
func (c *Coop) keys() []string {
	c.mu.RLock()
	out := make([]string, 0, len(c.docs))
	for k := range c.docs {
		out = append(out, k)
	}
	c.mu.RUnlock()
	sort.Strings(out)
	return out
}

// setSiblings replaces the known sibling-replica addresses for key, when
// the key is hosted. An empty slice clears them.
func (c *Coop) setSiblings(key string, sibs []string) {
	c.mu.Lock()
	if cd, ok := c.docs[key]; ok {
		cd.siblings = sibs
	}
	c.mu.Unlock()
}

// dropSibling removes one address from key's sibling list — the peer
// answered a hedge probe without a usable copy, so its replica is gone
// (revoked or evicted) and racing toward it again would only burn a leg.
func (c *Coop) dropSibling(key, peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cd, ok := c.docs[key]; ok {
		cd.siblings = removeAddr(cd.siblings, peer)
	}
}

// evictSibling removes peer from every hosted document's sibling list
// (the peer was declared down).
func (c *Coop) evictSibling(peer string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cd := range c.docs {
		cd.siblings = removeAddr(cd.siblings, peer)
	}
}

// removeAddr returns addrs without peer, building a fresh slice only on a
// hit: siblingsOf readers copy under the lock, but an in-place shuffle
// would still corrupt a slice captured by a prior setSiblings caller.
func removeAddr(addrs []string, peer string) []string {
	if !slices.Contains(addrs, peer) {
		return addrs
	}
	out := slices.DeleteFunc(slices.Clone(addrs), func(a string) bool { return a == peer })
	if len(out) == 0 {
		return nil
	}
	return out
}

// siblingsOf returns a copy of the known sibling-replica addresses for
// key; nil when the key is unknown or has no siblings.
func (c *Coop) siblingsOf(key string) []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cd, ok := c.docs[key]
	if !ok || len(cd.siblings) == 0 {
		return nil
	}
	return append([]string(nil), cd.siblings...)
}

// A hot report travels as X-DCWS-Hot: "name=hits" pairs joined by ',' and
// sorted. A name's '%' and ',' are percent-escaped, so the separator never
// occurs inside one; every other byte of the name travels as is.
var (
	hotEscape   = strings.NewReplacer("%", "%25", ",", "%2C")
	hotUnescape = strings.NewReplacer("%25", "%", "%2C", ",")
)

func encodeHot(hits map[string]int64) string {
	parts := make([]string, 0, len(hits))
	for name, n := range hits {
		parts = append(parts, hotEscape.Replace(name)+"="+strconv.FormatInt(n, 10))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// decodeHot reads a hot report back. Malformed pairs and zero counts are
// skipped, and a name reported twice keeps its larger count.
func decodeHot(v string) map[string]int64 {
	report := make(map[string]int64)
	for _, part := range strings.Split(v, ",") {
		eq := strings.LastIndexByte(part, '=')
		if eq <= 0 {
			continue
		}
		hits, err := strconv.ParseInt(part[eq+1:], 10, 64)
		if err != nil {
			continue
		}
		if name := hotUnescape.Replace(part[:eq]); hits > report[name] {
			report[name] = hits
		}
	}
	return report
}

// snapshotSeeds captures every hosted-document record in durable form,
// sorted by key (the coop section of the state snapshot).
func (c *Coop) snapshotSeeds() []coopSeed {
	c.mu.RLock()
	out := make([]coopSeed, 0, len(c.docs))
	for _, cd := range c.docs {
		out = append(out, coopSeed{
			key:     cd.key,
			home:    cd.home,
			name:    cd.name,
			present: cd.present,
			size:    cd.presentSize(),
			hash:    cd.hash,
		})
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

func (cd *coopDoc) presentSize() int64 {
	if cd.present {
		return cd.size
	}
	return 0
}

// ---- leases (push invalidation) -----------------------------------------

// renewLease grants or extends one document's lease.
func (c *Coop) renewLease(key string, until time.Time) {
	c.mu.Lock()
	if cd, ok := c.docs[key]; ok {
		cd.leased = true
		cd.leaseUntil = until
	}
	c.mu.Unlock()
}

// renewHome extends the lease of every document hosted from one home
// server — the bulk renewal applied whenever a frame arrives on that
// home's subscription channel (channel liveness IS the renewal).
func (c *Coop) renewHome(home string, until time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.forHomeLocked(home, func(cd *coopDoc) { cd.leased, cd.leaseUntil = true, until })
}

// forHomeLocked calls fn on every record hosted from home; lock held.
func (c *Coop) forHomeLocked(home string, fn func(*coopDoc)) {
	for _, cd := range c.docs {
		if cd.home == home {
			fn(cd)
		}
	}
}

// inventory returns the (name, hash) pairs of documents hosted from one
// home server, sorted by name — the frameSubscribe payload.
func (c *Coop) inventory(home string) []invDoc {
	var out []invDoc
	c.mu.RLock()
	c.forHomeLocked(home, func(cd *coopDoc) { out = append(out, invDoc{name: cd.name, hash: cd.hash}) })
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// homes returns every distinct home address documents are hosted for,
// sorted (the recovery path re-subscribes to each).
func (c *Coop) homes() []string {
	c.mu.RLock()
	seen := make(map[string]bool)
	for _, cd := range c.docs {
		seen[cd.home] = true
	}
	c.mu.RUnlock()
	out := make([]string, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// leasedCount reports how many hosted documents hold an unexpired lease
// at now (status, metrics).
func (c *Coop) leasedCount(now time.Time) int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := 0
	for _, cd := range c.docs {
		if cd.leased && cd.leaseUntil.After(now) {
			n++
		}
	}
	return n
}

// ---- peer health (the pinger, §4.5) --------------------------------------

// peerLocked returns peer's health record, creating it; peerMu held.
func (c *Coop) peerLocked(peer string) *peerHealth {
	h, ok := c.peers[peer]
	if !ok {
		h = &peerHealth{}
		c.peers[peer] = h
	}
	return h
}

// Absorb merges a piggybacked load-table delta received straight from its
// sender, p.From, and notes the direct contact. It also checks the delta
// against the declared-down peers (§4.5 recovery). A header the peer sent
// itself proves it came back, whatever its stamps say (its clock may have
// restarted behind). So does a relayed entry stamped above the one
// recorded at the declaration: the peer published after it was declared
// down. Either way it is re-admitted with its probe failures cleared, and
// returned so the driver can reset what else it keeps of the peer (the
// live circuit breaker). Any other relayed entry of a down peer is a stale
// echo — other servers may keep relaying it long after the crash — and is
// scrubbed from the table so a dead peer is never falsely resurrected. No
// clock reading enters the decision.
func (c *Coop) Absorb(p glt.Piggyback, now time.Time) (readmitted []string) {
	c.table.Absorb(p, now)
	var scrub []string
	c.peerMu.Lock()
	if p.From != "" {
		h := c.peerLocked(p.From)
		h.heard = now
		if h.down {
			h.down, h.fails = false, 0
			readmitted = append(readmitted, p.From)
		}
	}
	for _, e := range p.Entries {
		h, ok := c.peers[e.Server]
		switch {
		case !ok || !h.down || e.Server == p.From:
		case e.Stamp > h.stamp:
			h.down, h.fails = false, 0
			readmitted = append(readmitted, e.Server)
		default:
			scrub = append(scrub, e.Server)
		}
	}
	c.peerMu.Unlock()
	for _, peer := range scrub {
		c.table.Remove(peer)
	}
	if slices.Contains(readmitted, p.From) {
		// The peer's own entry may not be in its header (it last sent it
		// before the declaration). Until it next publishes, it rejoins as
		// a configured peer does at boot: known, load unknown. A real
		// entry always wins over this stamp-0 one.
		c.table.Observe(glt.Entry{Server: p.From, Updated: now})
	}
	return readmitted
}

// ProbeTargets lists, sorted, the peers the pinger probes this T_pi round:
// every known peer whose load entry has gone stale, that has not been
// heard from directly within T_pi, or that is suspect. A relayed entry
// proves only that the peer reached someone, perhaps before it was cut
// off; it must not keep the peer from being probed. A suspect peer is
// probed every round, even while it keeps calling in, because only a
// probe it answers clears the suspicion.
func (c *Coop) ProbeTargets(now time.Time) []string {
	maxAge := c.params.PingerInterval
	due := c.table.StaleServers(now, maxAge)
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	for _, p := range c.table.Servers() {
		h := c.peers[p]
		if p != c.table.Self() && !slices.Contains(due, p) && (h == nil || now.Sub(h.heard) > maxAge || h.fails > 0) {
			due = append(due, p)
		}
	}
	sort.Strings(due)
	return due
}

// ProbeFailed records a failed probe of peer and returns its consecutive
// failure count. At Params.MaxPingFailures the peer is declared down: its
// last stamp is recorded (only a higher one, or a header from the peer
// itself, re-admits it; see Absorb), its sibling listings are removed, and
// down reports true. The driver then recalls the documents placed on the
// peer and removes its load-table entry, so it is never chosen as a
// target.
func (c *Coop) ProbeFailed(peer string) (fails int, down bool) {
	last, _ := c.table.Get(peer)
	c.peerMu.Lock()
	h := c.peerLocked(peer)
	if h.down {
		c.peerMu.Unlock()
		return 0, false
	}
	h.fails++
	fails = h.fails
	if fails >= c.params.MaxPingFailures {
		h.down, h.fails, h.stamp = true, 0, last.Stamp
	}
	down = h.down
	c.peerMu.Unlock()
	if down {
		c.evictSibling(peer)
	}
	return fails, down
}

// ProbeOK records a probe peer answered: its failures and down state are
// cleared. It reports whether there were any, i.e. whether the peer has
// recovered.
func (c *Coop) ProbeOK(peer string) (recovered bool) {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	h, ok := c.peers[peer]
	if !ok {
		return false
	}
	recovered = h.down || h.fails > 0
	h.down, h.fails = false, 0
	return recovered
}

// Suspect reports whether peer has unresolved probe failures or was
// declared down. Suspect peers receive no new migrations or replicas until
// they prove healthy again — the wobble between "fine" and "declared down"
// must not attract documents it would immediately strand.
func (c *Coop) Suspect(peer string) bool {
	c.peerMu.Lock()
	defer c.peerMu.Unlock()
	h, ok := c.peers[peer]
	return ok && (h.down || h.fails > 0)
}

// Down lists the peers declared down, sorted.
func (c *Coop) Down() []string {
	c.peerMu.Lock()
	var out []string
	for p, h := range c.peers {
		if h.down {
			out = append(out, p)
		}
	}
	c.peerMu.Unlock()
	sort.Strings(out)
	return out
}

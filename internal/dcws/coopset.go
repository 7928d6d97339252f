package dcws

import (
	"container/list"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcws/internal/naming"
)

// coopView is the read-only snapshot of a hosted document's record that
// request handlers work with outside the coopSet lock.
type coopView struct {
	home    naming.Origin
	name    string
	present bool
	hash    uint64
	size    int64 // of the present copy; zero while absent
	// leased / leaseUntil mirror the record's lease state (push
	// invalidation); a never-leased record reports leased == false.
	leased     bool
	leaseUntil time.Time
}

// coopSet owns every document this server hosts on behalf of other
// servers. It replaces the former global-mutex map: an RWMutex guards a
// map plus a container/list LRU of the physically present copies and a
// running byte total, so the §4.5 disk-budget enforcement is O(evictions)
// instead of an O(n) scan of the whole map under lock.
type coopSet struct {
	mu    sync.RWMutex
	docs  map[string]*coopDoc
	lru   *list.List // of *coopDoc, present copies only; front = most recent
	bytes int64      // running total of present copy sizes
}

func newCoopSet() *coopSet {
	return &coopSet{docs: make(map[string]*coopDoc), lru: list.New()}
}

// touch returns the record for key, creating it if unknown, and performs
// all per-request accounting — windowHit bump and LRU position — in the
// same critical section.
func (cs *coopSet) touch(key string, home naming.Origin, name string) coopView {
	cs.mu.Lock()
	cd, ok := cs.docs[key]
	if !ok {
		cd = &coopDoc{key: key, home: home, name: name}
		cs.docs[key] = cd
	}
	cd.windowHit++
	if cd.elem != nil {
		cs.lru.MoveToFront(cd.elem)
	}
	v := cd.viewLocked()
	cs.mu.Unlock()
	return v
}

// view returns the record for key without touching its accounting.
func (cs *coopSet) view(key string) (coopView, bool) {
	cs.mu.RLock()
	cd, ok := cs.docs[key]
	if !ok {
		cs.mu.RUnlock()
		return coopView{}, false
	}
	v := cd.viewLocked()
	cs.mu.RUnlock()
	return v, true
}

func (cd *coopDoc) viewLocked() coopView {
	return coopView{
		home: cd.home, name: cd.name, present: cd.present, hash: cd.hash,
		size: cd.presentSize(), leased: cd.leased, leaseUntil: cd.leaseUntil,
	}
}

// host creates c's record if it is unknown, and records the copy present
// when c says so. Only a copy that arrives unasked needs it: a chain push,
// which admitCopy then stores, or recovery, whose surviving copies join
// the LRU as most recent (there is no better ordering signal than "it
// survived"). It counts no hit: only a client request does.
func (cs *coopSet) host(c coopSeed) {
	cs.mu.Lock()
	if _, ok := cs.docs[c.key]; !ok {
		cs.docs[c.key] = &coopDoc{key: c.key, home: c.home, name: c.name}
	}
	cs.mu.Unlock()
	if c.present {
		cs.markFetched(c)
	}
}

// markFetched records that the physical copy c describes is now in the
// store. It reports false, changing nothing, when the record is gone: the
// copy was revoked while its bytes were on the way.
func (cs *coopSet) markFetched(c coopSeed) bool {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cd, ok := cs.docs[c.key]
	if !ok {
		return false
	}
	cs.bytes += c.size - cd.presentSize()
	cd.present = true
	cd.hash = c.hash
	cd.size = c.size
	if cd.elem == nil {
		cd.elem = cs.lru.PushFront(cd)
	} else {
		cs.lru.MoveToFront(cd.elem)
	}
	return true
}

// markAbsent records that the physical copy for key is gone (evicted or
// vanished from the store); the document remains logically hosted and is
// re-fetched lazily on its next request.
func (cs *coopSet) markAbsent(key string) {
	cs.mu.Lock()
	if cd, ok := cs.docs[key]; ok {
		cs.dropPresenceLocked(cd)
	}
	cs.mu.Unlock()
}

// remove forgets key entirely (revocation, stale 301 from home). It
// reports whether the key was hosted at all.
func (cs *coopSet) remove(key string) bool {
	cs.mu.Lock()
	cd, ok := cs.docs[key]
	if ok {
		cs.dropPresenceLocked(cd)
		delete(cs.docs, key)
	}
	cs.mu.Unlock()
	return ok
}

// dropPresenceLocked clears a record's physical presence; lock held.
func (cs *coopSet) dropPresenceLocked(cd *coopDoc) {
	if cd.present {
		cs.bytes -= cd.size
	}
	cd.present = false
	cd.size = 0
	if cd.elem != nil {
		cs.lru.Remove(cd.elem)
		cd.elem = nil
	}
}

// evictOver marks least-recently-used present copies absent until the
// byte total fits within budget, never evicting the copy named by keep.
// It returns the evicted keys so the caller can delete the stored bytes
// outside the lock. budget <= 0 means unlimited.
func (cs *coopSet) evictOver(budget int64, keep string) []string {
	if budget <= 0 {
		return nil
	}
	var evicted []string
	cs.mu.Lock()
	for cs.bytes > budget {
		elem := cs.lru.Back()
		for elem != nil && elem.Value.(*coopDoc).key == keep {
			elem = elem.Prev()
		}
		if elem == nil {
			break
		}
		cd := elem.Value.(*coopDoc)
		cs.dropPresenceLocked(cd)
		evicted = append(evicted, cd.key)
	}
	cs.mu.Unlock()
	return evicted
}

// count reports how many documents are hosted (present or pending fetch).
func (cs *coopSet) count() int {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return len(cs.docs)
}

// presentBytes reports the running byte total of physically present
// copies.
func (cs *coopSet) presentBytes() int64 {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	return cs.bytes
}

// keys returns every hosted key, sorted.
func (cs *coopSet) keys() []string {
	cs.mu.RLock()
	out := make([]string, 0, len(cs.docs))
	for k := range cs.docs {
		out = append(out, k)
	}
	cs.mu.RUnlock()
	sort.Strings(out)
	return out
}

// presentKeys returns the keys of physically present copies, sorted (the
// validator's work list).
func (cs *coopSet) presentKeys() []string {
	cs.mu.RLock()
	out := make([]string, 0, cs.lru.Len())
	for e := cs.lru.Front(); e != nil; e = e.Next() {
		out = append(out, e.Value.(*coopDoc).key)
	}
	cs.mu.RUnlock()
	sort.Strings(out)
	return out
}

// setSiblings replaces the known sibling-replica addresses for key, when
// the key is hosted. An empty slice clears them.
func (cs *coopSet) setSiblings(key string, sibs []string) {
	cs.mu.Lock()
	if cd, ok := cs.docs[key]; ok {
		cd.siblings = sibs
	}
	cs.mu.Unlock()
}

// dropSibling removes one address from key's sibling list — the peer
// answered a hedge probe without a usable copy, so its replica is gone
// (revoked or evicted) and racing toward it again would only burn a leg.
func (cs *coopSet) dropSibling(key, peer string) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	cd, ok := cs.docs[key]
	if !ok {
		return
	}
	cd.siblings = removeAddr(cd.siblings, peer)
}

// evictSibling removes peer from every hosted document's sibling list
// (the peer was declared down) and reports how many lists shrank.
func (cs *coopSet) evictSibling(peer string) int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	n := 0
	for _, cd := range cs.docs {
		if sibs := removeAddr(cd.siblings, peer); len(sibs) != len(cd.siblings) {
			cd.siblings = sibs
			n++
		}
	}
	return n
}

// removeAddr returns addrs without peer, building a fresh slice only on a
// hit: siblingsOf readers copy under the lock, but an in-place shuffle
// would still corrupt a slice captured by a prior setSiblings caller.
func removeAddr(addrs []string, peer string) []string {
	for i, a := range addrs {
		if a != peer {
			continue
		}
		out := make([]string, 0, len(addrs)-1)
		out = append(out, addrs[:i]...)
		for _, b := range addrs[i+1:] {
			if b != peer {
				out = append(out, b)
			}
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}
	return addrs
}

// siblingsOf returns a copy of the known sibling-replica addresses for
// key; nil when the key is unknown or has no siblings.
func (cs *coopSet) siblingsOf(key string) []string {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	cd, ok := cs.docs[key]
	if !ok || len(cd.siblings) == 0 {
		return nil
	}
	out := make([]string, len(cd.siblings))
	copy(out, cd.siblings)
	return out
}

// rollWindows zeroes the per-document hit counters (statistics tick).
func (cs *coopSet) rollWindows() {
	cs.mu.Lock()
	for _, cd := range cs.docs {
		cd.windowHit = 0
	}
	cs.mu.Unlock()
}

// hotReport returns the X-DCWS-Hot value for one home server: the window
// hits of every document hosted from it that has any (the replication
// extension's piggybacked hot-spot report).
func (cs *coopSet) hotReport(homeAddr string) string {
	hits := make(map[string]int64)
	cs.mu.RLock()
	for _, cd := range cs.docs {
		if cd.windowHit > 0 && cd.home.Addr() == homeAddr {
			hits[cd.name] = cd.windowHit
		}
	}
	cs.mu.RUnlock()
	return encodeHot(hits)
}

// A hot report is "name=hits" pairs joined by ',' and sorted. A name's '%'
// and ',' are percent-escaped, so the separator never occurs inside one;
// every other byte of the name travels as is.
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
func (cs *coopSet) snapshotSeeds() []coopSeed {
	cs.mu.RLock()
	out := make([]coopSeed, 0, len(cs.docs))
	for _, cd := range cs.docs {
		out = append(out, coopSeed{
			key:     cd.key,
			home:    cd.home,
			name:    cd.name,
			present: cd.present,
			size:    cd.presentSize(),
			hash:    cd.hash,
		})
	}
	cs.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// ---- leases (push invalidation) -----------------------------------------

// renewLease grants or extends one document's lease.
func (cs *coopSet) renewLease(key string, until time.Time) {
	cs.mu.Lock()
	if cd, ok := cs.docs[key]; ok {
		cd.leased = true
		cd.leaseUntil = until
	}
	cs.mu.Unlock()
}

// renewHome extends the lease of every document hosted from one home
// server — the bulk renewal applied whenever a frame arrives on that
// home's subscription channel (channel liveness IS the renewal).
func (cs *coopSet) renewHome(homeAddr string, until time.Time) {
	cs.mu.Lock()
	for _, cd := range cs.docs {
		if cd.home.Addr() == homeAddr {
			cd.leased = true
			cd.leaseUntil = until
		}
	}
	cs.mu.Unlock()
}

// inventory returns the (name, hash) pairs of documents hosted from one
// home server, sorted by name — the frameSubscribe payload.
func (cs *coopSet) inventory(homeAddr string) []invDoc {
	cs.mu.RLock()
	var out []invDoc
	for _, cd := range cs.docs {
		if cd.home.Addr() == homeAddr {
			out = append(out, invDoc{name: cd.name, hash: cd.hash})
		}
	}
	cs.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// homes returns every distinct home address documents are hosted for,
// sorted (the recovery path re-subscribes to each).
func (cs *coopSet) homes() []string {
	cs.mu.RLock()
	seen := make(map[string]bool)
	for _, cd := range cs.docs {
		seen[cd.home.Addr()] = true
	}
	cs.mu.RUnlock()
	out := make([]string, 0, len(seen))
	for h := range seen {
		out = append(out, h)
	}
	sort.Strings(out)
	return out
}

// leasedCount reports how many hosted documents hold an unexpired lease
// at now (status, metrics).
func (cs *coopSet) leasedCount(now time.Time) int {
	cs.mu.RLock()
	defer cs.mu.RUnlock()
	n := 0
	for _, cd := range cs.docs {
		if cd.leased && cd.leaseUntil.After(now) {
			n++
		}
	}
	return n
}

func (cd *coopDoc) presentSize() int64 {
	if cd.present {
		return cd.size
	}
	return 0
}

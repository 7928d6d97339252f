package dcws

import (
	"container/list"
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
)

// renderShardCount is the number of lock stripes in the rendered-document
// cache. Power of two so the hash maps to a shard with a mask.
const renderShardCount = 16

// renderCacheBytes is the server's rendered-document cache budget (the
// home-form bytes; a co-op copy's hash costs no budget).
const renderCacheBytes = 64 << 20

// renderEntry is what the cache knows of one document at one generation:
// its home-form bytes, once rendered, and the hash of its co-op copy, once
// computed. The co-op copy's bytes are never kept: they are read at most
// once per co-op, which keeps them after that, so only the hash — which
// answers validations, the subscribe catch-up and migrationHash — stays.
type renderEntry struct {
	name   string
	gen    uint64
	data   []byte // home form; nil until rendered at gen
	hash   uint64 // co-op copy's content hash, valid when hashed
	hashed bool
	elem   *list.Element
}

// renderShard is one lock stripe: an LRU-ordered map with a byte budget.
type renderShard struct {
	mu      sync.Mutex
	entries map[string]*renderEntry
	lru     *list.List // of *renderEntry; front = most recently used
	bytes   int64
	budget  int64
}

// renderCache holds, per document and LDG generation, the home-form
// rendered bytes and the co-op copy's hash. The generation advances
// whenever a document's rendered form may have changed (content replaced,
// the document dirtied by a neighbour's migration/revocation/recall, or
// its own location changed), so a lookup with the current generation can
// never return a rendering against stale link locations. This preserves
// the paper's §4.3 "latest-possible-time regeneration" semantics:
// regeneration still happens on first demand after a change — the cache
// only removes the re-parse on every request after it.
type renderCache struct {
	shards [renderShardCount]renderShard
	seed   maphash.Seed
	hits   atomic.Int64
	misses atomic.Int64
}

// newRenderCache returns a cache bounded by budget bytes split evenly
// across the shards.
func newRenderCache(budget int64) *renderCache {
	c := &renderCache{seed: maphash.MakeSeed()}
	per := budget / renderShardCount
	for i := range c.shards {
		c.shards[i] = renderShard{
			entries: make(map[string]*renderEntry),
			lru:     list.New(),
			budget:  per,
		}
	}
	return c
}

func (c *renderCache) shard(name string) *renderShard {
	return &c.shards[maphash.String(c.seed, name)&(renderShardCount-1)]
}

// lookup runs read on name's entry if it is at generation gen, and counts
// a hit when read reports one. An entry at another generation is dropped
// on the spot.
func (c *renderCache) lookup(name string, gen uint64, read func(e *renderEntry) bool) bool {
	sh := c.shard(name)
	sh.mu.Lock()
	e, ok := sh.entries[name]
	hit := false
	if ok && e.gen == gen {
		if hit = read(e); hit {
			sh.lru.MoveToFront(e.elem)
		}
	} else if ok {
		sh.removeLocked(e)
	}
	sh.mu.Unlock()
	if hit {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return hit
}

// get returns the cached home-form bytes for name if they were rendered at
// the given generation. The returned bytes are shared and must be treated
// as immutable.
func (c *renderCache) get(name string, gen uint64) (data []byte, ok bool) {
	ok = c.lookup(name, gen, func(e *renderEntry) bool {
		data = e.data
		return data != nil
	})
	return data, ok
}

// copyHash returns the hash of name's co-op copy if it was computed at the
// given generation.
func (c *renderCache) copyHash(name string, gen uint64) (hash uint64, ok bool) {
	ok = c.lookup(name, gen, func(e *renderEntry) bool {
		hash = e.hash
		return e.hashed
	})
	return hash, ok
}

// put caches name's home-form bytes rendered at gen. Documents larger
// than the whole shard budget are not cached (they would only thrash the
// shard). data is retained: callers must not mutate it.
func (c *renderCache) put(name string, gen uint64, data []byte) {
	if int64(len(data)) > c.shard(name).budget {
		return
	}
	c.store(name, gen, func(e *renderEntry) { e.data = data })
}

// putCopyHash records the hash of name's co-op copy rendered at gen.
func (c *renderCache) putCopyHash(name string, gen uint64, hash uint64) {
	c.store(name, gen, func(e *renderEntry) { e.hash, e.hashed = hash, true })
}

// store applies set to name's entry at gen — an entry at another
// generation starts over — and evicts least-recently-used entries while
// the shard is over its budget.
func (c *renderCache) store(name string, gen uint64, set func(e *renderEntry)) {
	sh := c.shard(name)
	sh.mu.Lock()
	e, ok := sh.entries[name]
	if !ok {
		// A new entry keeps its own copy of name, which may be a
		// substring of the request head it came from.
		e = &renderEntry{name: strings.Clone(name)}
		e.elem = sh.lru.PushFront(e)
		sh.entries[e.name] = e
	} else {
		sh.lru.MoveToFront(e.elem)
	}
	if e.gen != gen {
		sh.bytes -= int64(len(e.data))
		*e = renderEntry{name: e.name, gen: gen, elem: e.elem}
	}
	before := len(e.data)
	set(e)
	sh.bytes += int64(len(e.data) - before)
	for sh.bytes > sh.budget {
		back := sh.lru.Back()
		if back == nil {
			break
		}
		sh.removeLocked(back.Value.(*renderEntry))
	}
	sh.mu.Unlock()
}

// removeLocked unlinks an entry; the shard lock must be held.
func (sh *renderShard) removeLocked(e *renderEntry) {
	sh.lru.Remove(e.elem)
	delete(sh.entries, e.name)
	sh.bytes -= int64(len(e.data))
}

// invalidate drops what the cache holds of name immediately. Generation
// comparison already keeps stale entries from being served; eager removal
// releases their memory at migration/revocation time instead of waiting
// for LRU pressure.
func (c *renderCache) invalidate(name string) {
	sh := c.shard(name)
	sh.mu.Lock()
	if e, ok := sh.entries[name]; ok {
		sh.removeLocked(e)
	}
	sh.mu.Unlock()
}

// counts reports cumulative cache hits and misses.
func (c *renderCache) counts() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// len reports the number of cached entries (tests and status tooling).
func (c *renderCache) len() int {
	n := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

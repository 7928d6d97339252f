package dcws

import (
	"container/list"
	"hash/maphash"
	"strings"
	"sync"
	"sync/atomic"
)

// renderKind distinguishes the two rendered forms of a document the
// serving engine caches.
type renderKind uint8

const (
	// renderHome is the form served to browsers by the home server
	// (hyperlinks to migrated neighbours rewritten to their co-ops).
	renderHome renderKind = iota
	// renderMigration is the form shipped to co-op servers: every local
	// hyperlink absolutized (§4.2).
	renderMigration
)

// renderShardCount is the number of lock stripes in the rendered-document
// cache. Power of two so the hash maps to a shard with a mask.
const renderShardCount = 16

// renderCacheBytes is the server's rendered-document cache budget
// (home-form and migration-prepared copies together).
const renderCacheBytes = 64 << 20

type renderKey struct {
	name string
	kind renderKind
}

type renderEntry struct {
	key  renderKey
	gen  uint64
	data []byte
	hash uint64 // content hash (filled for migration copies)
	elem *list.Element
}

// renderShard is one lock stripe: an LRU-ordered map with a byte budget.
type renderShard struct {
	mu      sync.Mutex
	entries map[renderKey]*renderEntry
	lru     *list.List // of *renderEntry; front = most recently used
	bytes   int64
	budget  int64
}

// renderCache holds rendered document bytes keyed by (name, kind,
// generation). The generation comes from the LDG: it advances whenever a
// document's rendered form may have changed (content replaced, the
// document dirtied by a neighbour's migration/revocation/recall, or its
// own location changed), so a lookup with the current generation can
// never return a copy rendered against stale link locations. This
// preserves the paper's §4.3 "latest-possible-time regeneration"
// semantics: regeneration still happens on first demand after a change —
// the cache only removes the re-parse on every request after it.
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
			entries: make(map[renderKey]*renderEntry),
			lru:     list.New(),
			budget:  per,
		}
	}
	return c
}

func (c *renderCache) shard(name string) *renderShard {
	return &c.shards[maphash.String(c.seed, name)&(renderShardCount-1)]
}

// get returns the cached rendered bytes and content hash for (name, kind)
// if the entry was rendered at the given generation. A stale entry is
// dropped on the spot. The returned bytes are shared and must be treated
// as immutable.
func (c *renderCache) get(name string, kind renderKind, gen uint64) ([]byte, uint64, bool) {
	sh := c.shard(name)
	key := renderKey{name: name, kind: kind}
	sh.mu.Lock()
	e, ok := sh.entries[key]
	if ok && e.gen == gen {
		sh.lru.MoveToFront(e.elem)
		data, hash := e.data, e.hash
		sh.mu.Unlock()
		c.hits.Add(1)
		return data, hash, true
	}
	if ok {
		sh.removeLocked(e)
	}
	sh.mu.Unlock()
	c.misses.Add(1)
	return nil, 0, false
}

// put caches rendered bytes for (name, kind) at the given generation,
// evicting least-recently-used entries if the shard budget is exceeded.
// Documents larger than the whole shard budget are not cached (they would
// only thrash the shard). data is retained: callers must not mutate it.
func (c *renderCache) put(name string, kind renderKind, gen uint64, data []byte, hash uint64) {
	sh := c.shard(name)
	if int64(len(data)) > sh.budget {
		return
	}
	key := renderKey{name: name, kind: kind}
	sh.mu.Lock()
	if e, ok := sh.entries[key]; ok {
		sh.bytes += int64(len(data)) - int64(len(e.data))
		e.gen, e.data, e.hash = gen, data, hash
		sh.lru.MoveToFront(e.elem)
	} else {
		// A new entry keeps its own copy of name, which may be a
		// substring of the request head it came from.
		key.name = strings.Clone(name)
		e := &renderEntry{key: key, gen: gen, data: data, hash: hash}
		e.elem = sh.lru.PushFront(e)
		sh.entries[key] = e
		sh.bytes += int64(len(data))
	}
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
	delete(sh.entries, e.key)
	sh.bytes -= int64(len(e.data))
}

// invalidate drops every rendered form of name immediately. Generation
// comparison already keeps stale entries from being served; eager removal
// releases their memory at migration/revocation time instead of waiting
// for LRU pressure.
func (c *renderCache) invalidate(name string) {
	sh := c.shard(name)
	sh.mu.Lock()
	for _, kind := range [...]renderKind{renderHome, renderMigration} {
		if e, ok := sh.entries[renderKey{name: name, kind: kind}]; ok {
			sh.removeLocked(e)
		}
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

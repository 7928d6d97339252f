// Package graph implements the Local Document Graph (LDG) of §3.3: one
// tuple (Name, Location, Size, Hits, LinkTo, LinkFrom, Dirty) per document,
// hash-indexed by name because the tuple is consulted on every request the
// server processes. The graph is built at server initialization by scanning
// the store and parsing every HTML document, and mutated afterwards by
// migrations, revocations, and content updates.
package graph

import (
	"errors"
	"fmt"
	"path"
	"slices"
	"sort"
	"strings"
	"sync"

	"dcws/internal/hypertext"
	"dcws/internal/store"
)

// ErrUnknownDoc is returned for operations on documents not in the graph.
var ErrUnknownDoc = errors.New("graph: unknown document")

// Doc is a read-only snapshot of one LDG tuple.
type Doc struct {
	// Name is the rooted document path, e.g. "/dir/foo.html".
	Name string
	// Location is the co-op server currently hosting the document, or ""
	// while the document is at home.
	Location string
	// Size is the document's byte size.
	Size int64
	// Hits is the cumulative request count.
	Hits int64
	// WindowHits is the request count since the last RollWindow — the load
	// figure Algorithm 1 thresholds on.
	WindowHits int64
	// LinkTo lists documents this document references.
	LinkTo []string
	// LinkFrom lists documents referencing this document.
	LinkFrom []string
	// Dirty marks documents whose hyperlinks must be regenerated because a
	// LinkTo target moved.
	Dirty bool
	// EntryPoint marks well-known entry points, which never migrate (§3.1).
	EntryPoint bool
	// Gen is the document's invalidation generation: it advances whenever
	// the document's rendered form may have changed (content replaced, the
	// document dirtied by a neighbour's migration or revocation, or its own
	// location changed). Caches key rendered copies by (name, Gen).
	Gen uint64
}

// entry is the mutable tuple behind the lock. name is the graph's only
// stored copy of the document's name, and the edges point at entries, so
// nothing the graph keeps aliases a parsed page or a request.
type entry struct {
	name       string
	location   string
	size       int64
	hits       int64
	windowHits int64
	linkTo     []*entry
	linkFrom   []*entry
	dirty      bool
	entryPoint bool
	gen        uint64
}

// LDG is the local document graph. All methods are safe for concurrent use.
type LDG struct {
	mu   sync.RWMutex
	docs map[string]*entry
}

// New returns an empty graph.
func New() *LDG {
	return &LDG{docs: make(map[string]*entry)}
}

// IsHTML reports whether a document name looks like an HTML page (the only
// kind that carries hyperlinks).
func IsHTML(name string) bool {
	lower := strings.ToLower(name)
	return strings.HasSuffix(lower, ".html") || strings.HasSuffix(lower, ".htm")
}

// ResolveLink resolves a raw link URL found in document base to a rooted
// document name on the same server. It returns "" for off-site absolute
// URLs, fragments, mailto links, and already-migrated (~migrate) URLs.
func ResolveLink(base, raw string) string {
	if raw == "" || strings.HasPrefix(raw, "#") {
		return ""
	}
	if strings.Contains(raw, "://") || strings.HasPrefix(raw, "mailto:") {
		return ""
	}
	if i := strings.IndexAny(raw, "#?"); i >= 0 {
		raw = raw[:i]
		if raw == "" {
			return ""
		}
	}
	var resolved string
	if strings.HasPrefix(raw, "/") {
		resolved = raw
	} else {
		resolved = path.Join(path.Dir(base), raw)
	}
	cleaned, err := store.CleanName(resolved)
	if err != nil {
		return ""
	}
	if strings.HasPrefix(cleaned, "/~migrate/") {
		return ""
	}
	return cleaned
}

// Build scans st, parses every HTML document, and constructs the graph.
// Non-HTML documents become leaf nodes. A dangling link (to a document not
// in the store) is recorded in LinkTo and creates a zero-size node.
func Build(st store.Store) (*LDG, error) {
	return BuildWithResolver(st, ResolveLink)
}

// BuildWithResolver is Build with a custom link resolver. The DCWS server
// supplies a resolver that also recognizes absolute URLs naming itself and
// ~migrate URLs whose home component is this server, so a graph rebuilt
// from regenerated documents (whose hyperlinks may be absolute) is
// identical to one built from pristine sources.
func BuildWithResolver(st store.Store, resolve func(base, raw string) string) (*LDG, error) {
	g := New()
	names, err := st.List()
	if err != nil {
		return nil, fmt.Errorf("graph: list store: %w", err)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, name := range names {
		size, err := st.Size(name)
		if err != nil {
			return nil, err
		}
		g.ensureLocked(name).size = size
	}
	for _, name := range names {
		if !IsHTML(name) {
			continue
		}
		data, err := st.Get(name)
		if err != nil {
			return nil, err
		}
		g.linkLocked(g.ensureLocked(name), LinkTargets(name, hypertext.Parse(string(data)), resolve))
	}
	return g, nil
}

// LinkTargets resolves every hyperlink of the parsed page name with
// resolve; "" marks a link that names no document here. Its result is
// what AddDoc takes, so a caller that parses a page for another reason
// too parses it once.
func LinkTargets(name string, doc *hypertext.Document, resolve func(base, raw string) string) []string {
	raws := doc.LinkURLs()
	targets := make([]string, len(raws))
	for i, raw := range raws {
		targets[i] = resolve(name, raw)
	}
	return targets
}

// ensureLocked returns the entry for name, creating it if absent. A new
// entry takes its own copy of name: callers pass substrings of page bodies
// and request heads, which the graph must not keep alive.
func (g *LDG) ensureLocked(name string) *entry {
	e, ok := g.docs[name]
	if !ok {
		e = &entry{name: strings.Clone(name)}
		g.docs[e.name] = e
	}
	return e
}

// linkLocked replaces e's outgoing edges with one edge to each distinct
// target (sorted in place; "" and e itself are skipped), keeping every
// LinkFrom list the exact inverse of the LinkTo lists.
func (g *LDG) linkLocked(e *entry, targets []string) {
	for _, te := range e.linkTo {
		te.linkFrom = unlink(te.linkFrom, e)
	}
	slices.Sort(targets)
	targets = slices.Compact(targets)
	e.linkTo = make([]*entry, 0, len(targets))
	for _, to := range targets {
		if to == "" || to == e.name {
			continue
		}
		te := g.ensureLocked(to)
		e.linkTo = append(e.linkTo, te)
		te.linkFrom = append(te.linkFrom, e)
	}
}

// unlink swap-deletes e from an edge list, which holds it at most once.
func unlink(es []*entry, e *entry) []*entry {
	for i, x := range es {
		if x == e {
			last := len(es) - 1
			es[i], es[last] = es[last], nil
			return es[:last]
		}
	}
	return es
}

// AddDoc inserts or refreshes a document node whose content now links to
// linkTo, the resolved targets of its hyperlinks (LinkTargets; "" entries
// are skipped, nil for a page without links or a non-HTML document).
// Existing outgoing links are replaced; incoming links are preserved. It
// advances the document's generation and returns the new one, under which
// a caller may cache what it rendered from the same content. Used when an
// administrator changes page content. linkTo is sorted in place.
func (g *LDG) AddDoc(name string, size int64, linkTo []string) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.ensureLocked(name)
	e.size = size
	e.gen++
	g.linkLocked(e, linkTo)
	return e.gen
}

// Has reports whether the graph contains a tuple for name.
func (g *LDG) Has(name string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.docs[name]
	return ok
}

// Get returns a snapshot of the tuple for name.
func (g *LDG) Get(name string) (Doc, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.docs[name]
	if !ok {
		return Doc{}, fmt.Errorf("%w: %s", ErrUnknownDoc, name)
	}
	return e.snapshot(), nil
}

func (e *entry) snapshot() Doc {
	return Doc{
		Name:       e.name,
		Location:   e.location,
		Size:       e.size,
		Hits:       e.hits,
		WindowHits: e.windowHits,
		LinkTo:     edgeNames(e.linkTo),
		LinkFrom:   edgeNames(e.linkFrom),
		Dirty:      e.dirty,
		EntryPoint: e.entryPoint,
		Gen:        e.gen,
	}
}

// edgeNames returns the sorted names of an edge list's entries.
func edgeNames(es []*entry) []string {
	out := make([]string, len(es))
	for i, x := range es {
		out[i] = x.name
	}
	sort.Strings(out)
	return out
}

// RecordHit counts one request for name, creating the tuple if needed so
// hit accounting is never lost for dynamically added content.
func (g *LDG) RecordHit(name string) {
	g.mu.Lock()
	e := g.ensureLocked(name)
	e.hits++
	e.windowHits++
	g.mu.Unlock()
}

// RollWindow zeroes every document's WindowHits, starting a fresh
// measurement interval (called by the statistics module every T_st).
func (g *LDG) RollWindow() {
	g.mu.Lock()
	for _, e := range g.docs {
		e.windowHits = 0
	}
	g.mu.Unlock()
}

// SetEntryPoint marks name as a well-known entry point.
func (g *LDG) SetEntryPoint(name string, isEntry bool) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.docs[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownDoc, name)
	}
	e.entryPoint = isEntry
	return nil
}

// MarkMigrated records that name now lives on coop, and sets the Dirty bit
// on every document in name's LinkFrom list so their hyperlinks are
// regenerated on next request (§4.2). It returns the dirtied names.
func (g *LDG) MarkMigrated(name, coop string) ([]string, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.docs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownDoc, name)
	}
	e.location = coop
	e.gen++
	dirtied := make([]string, 0, len(e.linkFrom))
	for _, fe := range e.linkFrom {
		fe.dirty = true
		fe.gen++
		dirtied = append(dirtied, fe.name)
	}
	sort.Strings(dirtied)
	return dirtied, nil
}

// MarkRevoked returns name to its home server, dirtying LinkFrom documents
// so their hyperlinks point home again (§4.5).
func (g *LDG) MarkRevoked(name string) ([]string, error) {
	return g.MarkMigrated(name, "")
}

// Location returns the co-op hosting name ("" if local) and whether the
// document exists.
func (g *LDG) Location(name string) (string, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.docs[name]
	if !ok {
		return "", false
	}
	return e.location, true
}

// ServeInfoSize returns everything the request hot path needs about name
// in one lock acquisition: its location, Dirty bit, generation, and size —
// which decides, before any I/O, whether the body is sent from its file.
// ok is false for unknown documents.
func (g *LDG) ServeInfoSize(name string) (location string, dirty bool, gen uint64, size int64, ok bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, found := g.docs[name]
	if !found {
		return "", false, 0, 0, false
	}
	return e.location, e.dirty, e.gen, e.size, true
}

// ServeInfo is ServeInfoSize without the size.
func (g *LDG) ServeInfo(name string) (location string, dirty bool, gen uint64, ok bool) {
	location, dirty, gen, _, ok = g.ServeInfoSize(name)
	return location, dirty, gen, ok
}

// Generation returns the invalidation generation for name (0 for unknown
// documents).
func (g *LDG) Generation(name string) uint64 {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.docs[name]
	if !ok {
		return 0
	}
	return e.gen
}

// IsDirty reports the Dirty bit for name.
func (g *LDG) IsDirty(name string) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.docs[name]
	return ok && e.dirty
}

// ClearDirty resets the Dirty bit after a document has been regenerated.
func (g *LDG) ClearDirty(name string) {
	g.mu.Lock()
	if e, ok := g.docs[name]; ok {
		e.dirty = false
	}
	g.mu.Unlock()
}

// SetSize updates the recorded size of name (after regeneration changes
// the document's length).
func (g *LDG) SetSize(name string, size int64) {
	g.mu.Lock()
	if e, ok := g.docs[name]; ok {
		e.size = size
	}
	g.mu.Unlock()
}

// Snapshot returns every tuple, sorted by name.
func (g *LDG) Snapshot() []Doc {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]Doc, 0, len(g.docs))
	for _, e := range g.docs {
		out = append(out, e.snapshot())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Migrated returns the names of all documents currently hosted by co-op
// servers, with their locations.
func (g *LDG) Migrated() map[string]string {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[string]string)
	for name, e := range g.docs {
		if e.location != "" {
			out[name] = e.location
		}
	}
	return out
}

// Len reports the number of documents in the graph.
func (g *LDG) Len() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.docs)
}

// RemoteLinkFromCount counts LinkFrom documents of name that do not reside
// on the home server (i.e. have a non-empty Location) — the quantity
// Algorithm 1 step 4 minimizes to avoid remote hyperlink updates.
func (g *LDG) RemoteLinkFromCount(name string) (int, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	e, ok := g.docs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrUnknownDoc, name)
	}
	n := 0
	for _, fe := range e.linkFrom {
		if fe.location != "" {
			n++
		}
	}
	return n, nil
}

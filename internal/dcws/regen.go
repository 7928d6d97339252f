package dcws

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"dcws/internal/graph"
	"dcws/internal/hypertext"
	"dcws/internal/naming"
	"dcws/internal/store"
)

// contentHash fingerprints a document for co-op validation (§4.5).
func contentHash(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// originResolver returns a link resolver that recognizes every hyperlink
// form that can appear in the given server's documents:
//
//   - relative and rooted paths ("msg2.html", "/dir/msg2.html")
//   - absolute URLs naming the server ("http://self:port/dir/msg2.html")
//   - ~migrate URLs whose home component is the server (written into
//     documents by an earlier regeneration)
//
// It resolves to a local document name, or "" for anything else (off-site
// links, other servers' migrated documents). Both request handling and the
// start-up graph build use it, so a restart over regenerated documents
// reconstructs the same graph.
func originResolver(origin naming.Origin) func(base, raw string) string {
	selfAddr := origin.Addr()
	return func(base, raw string) string {
		addr, p, err := naming.SplitURL(raw)
		if err != nil || addr == "" {
			// Relative or rooted form (SplitURL only handles absolute
			// http URLs and rooted paths); ResolveLink also rejects
			// foreign schemes and fragments.
			return graph.ResolveLink(base, raw)
		}
		if naming.IsMigrated(p) {
			home, doc, err := naming.Decode(p)
			if err != nil || home != origin {
				return ""
			}
			cleaned, err := store.CleanName(doc)
			if err != nil {
				return ""
			}
			return cleaned
		}
		if addr != selfAddr {
			return ""
		}
		cleaned, err := store.CleanName(p)
		if err != nil {
			return ""
		}
		return cleaned
	}
}

// pageLinks parses a home document's body and resolves its hyperlinks
// with resolve, for graph.LDG.AddDoc; a non-HTML document links nowhere.
func pageLinks(name string, body []byte, resolve func(base, raw string) string) []string {
	if !graph.IsHTML(name) {
		return nil
	}
	return graph.LinkTargets(name, hypertext.Parse(string(body)), resolve)
}

// isAbsoluteURL reports whether a raw link has a scheme.
func isAbsoluteURL(raw string) bool { return strings.Contains(raw, "://") }

// linkMapping computes the hyperlink rewrites for one document.
//
// When forMigration is false (serving from home), links to documents still
// at home keep their original form, and links to migrated documents become
// absolute ~migrate URLs at their co-op servers. When forMigration is true
// (preparing the copy shipped to a co-op server), every local link becomes
// absolute — at-home targets point back at this server, migrated targets at
// their co-ops — because relative links would dangle on the co-op.
func (s *Server) linkMapping(name string, doc *hypertext.Document, forMigration bool) map[string]string {
	mapping := make(map[string]string)
	for _, raw := range doc.LinkURLs() {
		target := s.resolve(name, raw)
		if target == "" {
			continue
		}
		loc, known := s.ldg.Location(target)
		if !known {
			continue
		}
		var newURL string
		if loc == "" {
			if forMigration {
				newURL = naming.HomeURL(s.cfg.Origin, target)
			} else if isAbsoluteURL(raw) {
				// Was rewritten while the target was migrated; the target
				// is home again, restore the plain rooted form.
				newURL = target
			} else {
				continue
			}
		} else {
			referrer := ""
			if forMigration {
				referrer = name
			}
			coop, err := naming.ParseOrigin(s.pickReplica(target, referrer))
			if err != nil {
				continue
			}
			u, err := naming.MigratedURL(coop, s.cfg.Origin, target)
			if err != nil {
				continue
			}
			newURL = u
		}
		if newURL != raw {
			mapping[raw] = newURL
		}
	}
	return mapping
}

// regenerate reparses a dirty document, replaces the hyperlinks whose
// targets have moved, writes the result back (rewriteHome), and clears the
// Dirty bit (§4.3). It returns the regenerated bytes. gen is the LDG
// generation the caller observed before regenerating; the rendered result
// is cached under it so subsequent requests at the same generation skip
// the parse entirely (ClearDirty and SetSize do not advance generations,
// so the observed value stays correct for the regenerated bytes).
func (s *Server) regenerate(name string, gen uint64) ([]byte, error) {
	start := time.Now()
	defer func() { s.tel.regenSeconds.Observe(time.Since(start)) }()
	data, err := s.homeBody(name)
	if err != nil {
		return nil, err
	}
	if !graph.IsHTML(name) {
		s.ldg.ClearDirty(name)
		return data, nil
	}
	doc := hypertext.Parse(string(data))
	mapping := s.linkMapping(name, doc, false)
	if len(mapping) > 0 {
		if n := doc.Rewrite(mapping); n > 0 {
			out := []byte(doc.Render())
			if err := s.rewriteHome(name, gen, out); err != nil {
				return nil, fmt.Errorf("dcws: write regenerated %s: %w", name, err)
			}
			data = out
		}
	}
	s.ldg.ClearDirty(name)
	s.stats.Rebuilds.Inc()
	s.rcache.put(name, gen, data)
	return data, nil
}

// rewriteHome writes a document regenerated at generation gen back where
// its body lives: over the staged body while one is staged (it is the
// newest body; the update's record keeps the bytes it was given), else
// through Store.Put. An update since gen supersedes the regenerated bytes,
// which are then left in the render cache under gen alone; updMu orders
// the check against UpdateDocument.
func (s *Server) rewriteHome(name string, gen uint64, out []byte) error {
	s.updMu.Lock()
	defer s.updMu.Unlock()
	if s.ldg.Generation(name) != gen {
		return nil
	}
	if _, ok := s.stagedBody(name); ok {
		s.staged.Put(name, out)
	} else if err := s.cfg.Store.Put(name, out); err != nil {
		return err
	}
	s.ldg.SetSize(name, int64(len(out)))
	return nil
}

// prepareForMigration renders the copy of a document shipped to a co-op
// server: every local hyperlink absolutized to its current location. The
// home copy is not modified.
func (s *Server) prepareForMigration(name string) ([]byte, error) {
	data, err := s.homeBody(name)
	if err != nil {
		return nil, err
	}
	if !graph.IsHTML(name) {
		return data, nil
	}
	return s.migrationCopy(name, hypertext.Parse(string(data)), data), nil
}

// migrationCopy renders the co-op copy of the HTML document name from doc,
// its parse of data. doc's links are rewritten in place.
func (s *Server) migrationCopy(name string, doc *hypertext.Document, data []byte) []byte {
	mapping := s.linkMapping(name, doc, true)
	if len(mapping) == 0 {
		return data
	}
	doc.Rewrite(mapping)
	return []byte(doc.Render())
}

// pickReplica returns the co-op address to use for the next reference to a
// migrated document: the replica table's rotation (ReplicaTable.Pick), or,
// in the co-op copy of referrer, the replica that referrer always names
// (ReplicaTable.PickFor); the document's location when no replica set is
// recorded.
func (s *Server) pickReplica(name, referrer string) string {
	var rep string
	if referrer != "" {
		rep = s.replicas.PickFor(name, referrer)
	} else {
		rep = s.replicas.Pick(name)
	}
	if rep != "" {
		return rep
	}
	loc, _ := s.ldg.Location(name)
	return loc
}

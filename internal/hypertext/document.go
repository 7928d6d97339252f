package hypertext

import (
	"strings"
)

// LinkKind classifies the references DCWS tracks in the local document
// graph. The paper's entry-point hypotheses (§3.1) distinguish navigational
// hyperlinks (which users follow) from embedded images (fetched
// automatically, seldom published, and a large share of bandwidth) and
// frame content (internal pages behind a published frame template).
type LinkKind int

// Link kinds.
const (
	LinkAnchor LinkKind = iota // <a href>, <area href>
	LinkImage                  // <img src>
	LinkFrame                  // <frame src>, <iframe src>
)

func (k LinkKind) String() string {
	switch k {
	case LinkAnchor:
		return "anchor"
	case LinkImage:
		return "image"
	case LinkFrame:
		return "frame"
	default:
		return "unknown"
	}
}

// Link is one outgoing reference found in a document.
type Link struct {
	Kind LinkKind
	// URL is the raw attribute value as written in the source.
	URL string
	// tokenIndex/attr locate the link for rewriting.
	tokenIndex int
	attrName   string
}

// Document is a parsed HTML document: a token stream plus an index of its
// links. It is the paper's "simple parse tree".
type Document struct {
	tokens []Token
	links  []Link
}

// linkAttrs maps tag name to the attribute that carries its reference.
var linkAttrs = map[string]struct {
	attr string
	kind LinkKind
}{
	"a":      {"href", LinkAnchor},
	"area":   {"href", LinkAnchor},
	"img":    {"src", LinkImage},
	"frame":  {"src", LinkFrame},
	"iframe": {"src", LinkFrame},
}

// Parse tokenizes src and indexes its hyperlinks.
func Parse(src string) *Document {
	tokens := Tokenize(src)
	d := &Document{tokens: tokens}
	for i := range tokens {
		t := &tokens[i]
		if t.Kind != StartTag && t.Kind != SelfCloseTag {
			continue
		}
		spec, ok := linkAttrs[t.Name]
		if !ok {
			continue
		}
		if v, ok := t.Attr(spec.attr); ok && v != "" {
			d.links = append(d.links, Link{
				Kind:       spec.kind,
				URL:        v,
				tokenIndex: i,
				attrName:   spec.attr,
			})
		}
	}
	return d
}

// Links returns the document's outgoing references in source order.
func (d *Document) Links() []Link {
	out := make([]Link, len(d.links))
	copy(out, d.links)
	return out
}

// LinkURLs returns the URLs of links of the given kinds (all kinds if none
// specified), deduplicated, in first-appearance order.
func (d *Document) LinkURLs(kinds ...LinkKind) []string {
	want := func(k LinkKind) bool {
		if len(kinds) == 0 {
			return true
		}
		for _, w := range kinds {
			if w == k {
				return true
			}
		}
		return false
	}
	seen := make(map[string]bool)
	var out []string
	for _, l := range d.links {
		if !want(l.Kind) || seen[l.URL] {
			continue
		}
		seen[l.URL] = true
		out = append(out, l.URL)
	}
	return out
}

// Rewrite replaces link URLs according to the mapping (old URL -> new URL)
// and reports how many link occurrences were changed. Only exact URL
// matches are rewritten; everything else in the document is untouched.
func (d *Document) Rewrite(mapping map[string]string) int {
	changed := 0
	for i := range d.links {
		l := &d.links[i]
		newURL, ok := mapping[l.URL]
		if !ok || newURL == l.URL {
			continue
		}
		if d.tokens[l.tokenIndex].SetAttr(l.attrName, newURL) {
			l.URL = newURL
			changed++
		}
	}
	return changed
}

// Render serializes the document back to HTML. Tokens that were not
// modified render as their original bytes, so Render(Parse(x)) == x.
func (d *Document) Render() string {
	var b strings.Builder
	for i := range d.tokens {
		d.tokens[i].render(&b)
	}
	return b.String()
}

// Title returns the contents of the first <title> element, or "".
func (d *Document) Title() string {
	for i := range d.tokens {
		if d.tokens[i].Kind == StartTag && d.tokens[i].Name == "title" {
			var b strings.Builder
			for j := i + 1; j < len(d.tokens); j++ {
				t := &d.tokens[j]
				if t.Kind == EndTag && t.Name == "title" {
					return strings.TrimSpace(b.String())
				}
				if t.Kind == TextToken {
					b.WriteString(t.Raw)
				}
			}
			return strings.TrimSpace(b.String())
		}
	}
	return ""
}

// TokenCount reports the number of lexical tokens, used by diagnostics and
// the parsing-overhead experiment.
func (d *Document) TokenCount() int { return len(d.tokens) }

// RewriteHTML parses src, applies the link mapping, and renders the result.
// It returns the rewritten HTML and the number of replaced occurrences.
func RewriteHTML(src string, mapping map[string]string) (string, int) {
	d := Parse(src)
	n := d.Rewrite(mapping)
	if n == 0 {
		return src, 0
	}
	return d.Render(), n
}

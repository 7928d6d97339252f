// Package hypertext implements the HTML machinery DCWS needs: a tokenizer,
// a document model, hyperlink extraction, and — the heart of the paper's
// load-balancing mechanism — hyperlink rewriting with faithful
// re-serialization (§4.3: "a HTML parser builds a simple parse tree ...
// modified links are then replaced in the parse tree, the parse tree is
// turned back into a stream of HTML tokens, and then written back").
//
// Tokens keep their original raw bytes, so rendering an unmodified document
// reproduces the input exactly; only tags whose attributes were rewritten
// are re-serialized.
package hypertext

import (
	"strings"
)

// TokenKind identifies the kind of an HTML token.
type TokenKind int

// Token kinds.
const (
	TextToken    TokenKind = iota // character data between tags
	StartTag                      // <name attr=...>
	EndTag                        // </name>
	SelfCloseTag                  // <name ... />
	CommentToken                  // <!-- ... -->
	DoctypeToken                  // <!DOCTYPE ...> and other <! ...> markup
)

// Attr is one attribute of a tag. Quote records the quoting style of the
// original source ('"', '\” or 0 for unquoted/valueless) so rewriting
// preserves the author's style.
type Attr struct {
	Name  string
	Value string
	Quote byte
	// HasValue distinguishes `selected` from `selected=""`.
	HasValue bool
}

// Token is one lexical element of an HTML document.
type Token struct {
	Kind TokenKind
	// Name is the lower-cased tag name for StartTag/EndTag/SelfCloseTag.
	Name string
	// Attrs are the tag attributes in source order.
	Attrs []Attr
	// Raw is the exact source text of the token. It is used verbatim when
	// rendering unless the token has been modified.
	Raw string
	// modified marks tags whose attributes changed and which must be
	// re-serialized from Name/Attrs.
	modified bool
}

// Attr returns the value of the named attribute (case-insensitive) and
// whether it is present.
func (t *Token) Attr(name string) (string, bool) {
	for i := range t.Attrs {
		if strings.EqualFold(t.Attrs[i].Name, name) {
			return t.Attrs[i].Value, true
		}
	}
	return "", false
}

// SetAttr replaces the value of the named attribute if present, marking the
// token modified. It reports whether the attribute was found.
func (t *Token) SetAttr(name, value string) bool {
	for i := range t.Attrs {
		if strings.EqualFold(t.Attrs[i].Name, name) {
			t.Attrs[i].Value = value
			t.Attrs[i].HasValue = true
			if t.Attrs[i].Quote == 0 {
				t.Attrs[i].Quote = '"'
			}
			t.modified = true
			return true
		}
	}
	return false
}

// renderedLen is the length of the token's HTML form (render).
func (t *Token) renderedLen() int {
	if !t.modified {
		return len(t.Raw)
	}
	n := len("</") + len(t.Name) + len(" />")
	for _, a := range t.Attrs {
		n += len(" ") + len(a.Name) + len(`=""`) + len(a.Value)
	}
	return n
}

// render writes the token's HTML form to b.
func (t *Token) render(b *strings.Builder) {
	if !t.modified {
		b.WriteString(t.Raw)
		return
	}
	b.WriteByte('<')
	if t.Kind == EndTag {
		b.WriteByte('/')
	}
	b.WriteString(t.Name)
	for _, a := range t.Attrs {
		b.WriteByte(' ')
		b.WriteString(a.Name)
		if !a.HasValue {
			continue
		}
		b.WriteByte('=')
		q := a.Quote
		if q == 0 {
			q = '"'
		}
		b.WriteByte(q)
		b.WriteString(a.Value)
		b.WriteByte(q)
	}
	if t.Kind == SelfCloseTag {
		b.WriteString(" /")
	}
	b.WriteByte('>')
}

package hypertext

import (
	"strings"
)

// Tokenize splits HTML source into tokens. The lexer is permissive in the
// way 1990s-era browsers were: unknown constructs and malformed tags are
// preserved as text rather than rejected, so serving a quirky document
// never fails.
func Tokenize(src string) []Token {
	// Every token but text starts at a '<', and text tokens never follow
	// one another, so 2·count('<')+1 tokens is the most src can yield: one
	// allocation holds them all.
	tokens := make([]Token, 0, 2*strings.Count(src, "<")+1)
	i := 0
	n := len(src)
	textStart := 0

	flushText := func(end int) {
		if end > textStart {
			tokens = append(tokens, Token{Kind: TextToken, Raw: src[textStart:end]})
		}
	}

	for i < n {
		if src[i] != '<' {
			next := strings.IndexByte(src[i:], '<')
			if next < 0 {
				break
			}
			i += next
		}
		// Comment?
		if strings.HasPrefix(src[i:], "<!--") {
			end := strings.Index(src[i+4:], "-->")
			if end < 0 {
				// Unterminated comment: treat the rest as a comment.
				flushText(i)
				tokens = append(tokens, Token{Kind: CommentToken, Raw: src[i:]})
				textStart = n
				i = n
				break
			}
			stop := i + 4 + end + 3
			flushText(i)
			tokens = append(tokens, Token{Kind: CommentToken, Raw: src[i:stop]})
			i = stop
			textStart = i
			continue
		}
		// Doctype or other declaration?
		if i+1 < n && src[i+1] == '!' {
			stop := strings.IndexByte(src[i:], '>')
			if stop < 0 {
				i++
				continue
			}
			stop += i + 1
			flushText(i)
			tokens = append(tokens, Token{Kind: DoctypeToken, Raw: src[i:stop]})
			i = stop
			textStart = i
			continue
		}
		// Tag?
		tok, stop, ok := lexTag(src, i)
		if !ok {
			i++
			continue
		}
		flushText(i)
		tokens = append(tokens, tok)
		i = stop
		textStart = i
		// <script> and <style> content is raw text until the closing tag.
		if tok.Kind == StartTag && (tok.Name == "script" || tok.Name == "style") {
			closing := "</" + tok.Name
			// Byte-wise ASCII case folding: strings.ToLower would change
			// byte offsets on invalid UTF-8.
			idx := indexASCIIFold(src[i:], closing)
			if idx < 0 {
				idx = len(src) - i
			}
			if idx > 0 {
				tokens = append(tokens, Token{Kind: TextToken, Raw: src[i : i+idx]})
			}
			i += idx
			textStart = i
		}
	}
	flushText(n)
	return tokens
}

// lexTag parses a tag starting at src[start] == '<'. It returns the token,
// the index just past '>', and whether a well-formed tag was found.
func lexTag(src string, start int) (Token, int, bool) {
	i := start + 1
	n := len(src)
	end := false
	if i < n && src[i] == '/' {
		end = true
		i++
	}
	nameStart := i
	for i < n && isNameByte(src[i]) {
		i++
	}
	if i == nameStart {
		return Token{}, 0, false
	}
	name := strings.ToLower(src[nameStart:i])

	var attrs []Attr
	selfClose := false
	for i < n {
		// Skip whitespace.
		for i < n && isSpace(src[i]) {
			i++
		}
		if i >= n {
			return Token{}, 0, false // unterminated tag
		}
		if src[i] == '>' {
			i++
			break
		}
		if src[i] == '/' && i+1 < n && src[i+1] == '>' {
			selfClose = true
			i += 2
			break
		}
		attr, next, ok := lexAttr(src, i)
		if !ok {
			// Skip one byte of garbage and keep going, browser-style.
			i++
			continue
		}
		attrs = append(attrs, attr)
		i = next
	}
	if i > n {
		return Token{}, 0, false
	}
	kind := StartTag
	if end {
		kind = EndTag
	} else if selfClose {
		kind = SelfCloseTag
	}
	return Token{Kind: kind, Name: name, Attrs: attrs, Raw: src[start:i]}, i, true
}

func lexAttr(src string, start int) (Attr, int, bool) {
	i := start
	n := len(src)
	nameStart := i
	for i < n && isAttrNameByte(src[i]) {
		i++
	}
	if i == nameStart {
		return Attr{}, 0, false
	}
	name := src[nameStart:i]
	// Skip whitespace before '='.
	j := i
	for j < n && isSpace(src[j]) {
		j++
	}
	if j >= n || src[j] != '=' {
		return Attr{Name: name}, i, true // valueless attribute
	}
	j++
	for j < n && isSpace(src[j]) {
		j++
	}
	if j >= n {
		return Attr{}, 0, false
	}
	if src[j] == '"' || src[j] == '\'' {
		q := src[j]
		j++
		vStart := j
		for j < n && src[j] != q {
			j++
		}
		if j >= n {
			return Attr{}, 0, false // unterminated quote
		}
		return Attr{Name: name, Value: src[vStart:j], Quote: q, HasValue: true}, j + 1, true
	}
	vStart := j
	for j < n && !isSpace(src[j]) && src[j] != '>' && src[j] != '/' {
		j++
	}
	return Attr{Name: name, Value: src[vStart:j], HasValue: true}, j, true
}

// indexASCIIFold returns the byte offset of the first occurrence of substr
// in s under ASCII case folding, or -1. Unlike strings.Index over
// strings.ToLower(s), it never shifts byte offsets on non-UTF-8 input.
func indexASCIIFold(s, substr string) int {
	n, m := len(s), len(substr)
	if m == 0 {
		return 0
	}
	for i := 0; i+m <= n; i++ {
		match := true
		for j := 0; j < m; j++ {
			a, b := s[i+j], substr[j]
			if 'A' <= a && a <= 'Z' {
				a += 'a' - 'A'
			}
			if 'A' <= b && b <= 'Z' {
				b += 'a' - 'A'
			}
			if a != b {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

func isNameByte(c byte) bool {
	return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9' || c == '-' || c == '_' || c == ':'
}

func isAttrNameByte(c byte) bool {
	return isNameByte(c) || c == '.'
}

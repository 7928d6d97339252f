package hypertext

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

const samplePage = `<!DOCTYPE html>
<html>
<head><title>Mailing List Archive</title></head>
<body>
<!-- navigation buttons -->
<a href="/msg0001.html"><img src="/buttons/next.gif"></a>
<a href='/msg0003.html'><img src='/buttons/prev.gif'></a>
<A HREF="/index.html">Index</A>
<frame src="/inner/frame1.html">
<p>Some text with a stray < bracket and an &amp; entity.</p>
<area href="/map/region.html">
<iframe src="/embedded.html"></iframe>
<img src="/buttons/next.gif">
</body>
</html>`

func TestRenderParseIdentity(t *testing.T) {
	docs := []string{
		samplePage,
		"",
		"plain text only",
		"<p>unclosed",
		`<a href=unquoted.html>x</a>`,
		`<img src="a.gif" alt="with spaces and = signs">`,
		"<!-- just a comment -->",
		"<script>if (a<b) { x > y; }</script>",
		"<style>a { color: red; }</style>",
		`<a   href="spaced.html"  >weird spacing</a>`,
		"<br/>",
		"text <",
		"<",
		"<>",
		"<!DOCTYPE html><p>hi</p>",
		"<a href=\"x\" disabled>valueless attr</a>",
	}
	for _, src := range docs {
		if got := Parse(src).Render(); got != src {
			t.Errorf("Render(Parse(x)) != x:\n in: %q\nout: %q", src, got)
		}
	}
}

func TestLinkExtraction(t *testing.T) {
	d := Parse(samplePage)
	anchors := d.LinkURLs(LinkAnchor)
	wantAnchors := []string{"/msg0001.html", "/msg0003.html", "/index.html", "/map/region.html"}
	if !reflect.DeepEqual(anchors, wantAnchors) {
		t.Fatalf("anchors = %v, want %v", anchors, wantAnchors)
	}
	images := d.LinkURLs(LinkImage)
	wantImages := []string{"/buttons/next.gif", "/buttons/prev.gif"}
	if !reflect.DeepEqual(images, wantImages) {
		t.Fatalf("images = %v, want %v", images, wantImages)
	}
	frames := d.LinkURLs(LinkFrame)
	wantFrames := []string{"/inner/frame1.html", "/embedded.html"}
	if !reflect.DeepEqual(frames, wantFrames) {
		t.Fatalf("frames = %v, want %v", frames, wantFrames)
	}
}

func TestLinkURLsDeduplicates(t *testing.T) {
	d := Parse(samplePage)
	all := d.LinkURLs()
	seen := map[string]bool{}
	for _, u := range all {
		if seen[u] {
			t.Fatalf("duplicate URL %q in LinkURLs", u)
		}
		seen[u] = true
	}
	// next.gif appears twice in source but once here.
	if !seen["/buttons/next.gif"] {
		t.Fatal("missing deduped image link")
	}
}

func TestRewriteChangesOnlyTargetedLinks(t *testing.T) {
	mapping := map[string]string{
		"/msg0001.html": "http://coop:81/~migrate/home/80/msg0001.html",
	}
	out, n := RewriteHTML(samplePage, mapping)
	if n != 1 {
		t.Fatalf("rewrote %d occurrences, want 1", n)
	}
	if !strings.Contains(out, `href="http://coop:81/~migrate/home/80/msg0001.html"`) {
		t.Fatalf("rewritten link missing:\n%s", out)
	}
	if !strings.Contains(out, `/msg0003.html`) {
		t.Fatal("untouched link was altered")
	}
	// Everything else byte-identical: remove the single changed tag region
	// by re-rewriting back and comparing.
	back, n2 := RewriteHTML(out, map[string]string{
		"http://coop:81/~migrate/home/80/msg0001.html": "/msg0001.html",
	})
	if n2 != 1 {
		t.Fatalf("reverse rewrite count = %d", n2)
	}
	if back != samplePage {
		t.Fatalf("rewrite round trip not identical:\n%s", back)
	}
}

func TestRewriteAllOccurrences(t *testing.T) {
	src := `<img src="/hot.jpg"><img src="/hot.jpg"><a href="/hot.jpg">dl</a>`
	out, n := RewriteHTML(src, map[string]string{"/hot.jpg": "/new.jpg"})
	if n != 3 {
		t.Fatalf("rewrote %d, want 3", n)
	}
	if strings.Contains(out, "/hot.jpg") {
		t.Fatalf("old URL remains: %s", out)
	}
}

func TestRewriteNoMatchReturnsInputUnchanged(t *testing.T) {
	out, n := RewriteHTML(samplePage, map[string]string{"/nonexistent": "/x"})
	if n != 0 || out != samplePage {
		t.Fatal("no-op rewrite altered the document")
	}
}

func TestRewritePreservesQuoteStyle(t *testing.T) {
	src := `<a href='/single.html'>x</a>`
	out, n := RewriteHTML(src, map[string]string{"/single.html": "/other.html"})
	if n != 1 {
		t.Fatal("rewrite missed single-quoted link")
	}
	if !strings.Contains(out, `href='/other.html'`) {
		t.Fatalf("quote style not preserved: %s", out)
	}
}

func TestRewriteUnquotedGainsQuotes(t *testing.T) {
	src := `<a href=plain.html>x</a>`
	out, n := RewriteHTML(src, map[string]string{"plain.html": "/q.html"})
	if n != 1 {
		t.Fatal("rewrite missed unquoted link")
	}
	if !strings.Contains(out, `href="/q.html"`) {
		t.Fatalf("rewritten unquoted attr: %s", out)
	}
}

func TestRewrittenDocumentStillParses(t *testing.T) {
	mapping := map[string]string{
		"/msg0001.html":     "http://coop/~migrate/h/80/msg0001.html",
		"/buttons/next.gif": "http://coop/~migrate/h/80/buttons/next.gif",
	}
	out, _ := RewriteHTML(samplePage, mapping)
	d := Parse(out)
	urls := d.LinkURLs()
	found := 0
	for _, u := range urls {
		if strings.Contains(u, "~migrate") {
			found++
		}
	}
	if found != 2 {
		t.Fatalf("rewritten doc has %d migrate links, want 2: %v", found, urls)
	}
}

func TestTitle(t *testing.T) {
	if got := Parse(samplePage).Title(); got != "Mailing List Archive" {
		t.Fatalf("Title = %q", got)
	}
	if got := Parse("<p>no title</p>").Title(); got != "" {
		t.Fatalf("Title of titleless doc = %q", got)
	}
	if got := Parse("<title>unterminated").Title(); got != "unterminated" {
		t.Fatalf("Title = %q", got)
	}
}

func TestScriptContentNotParsedAsTags(t *testing.T) {
	src := `<script>document.write("<a href='/fake.html'>");</script><a href="/real.html">r</a>`
	d := Parse(src)
	urls := d.LinkURLs(LinkAnchor)
	if len(urls) != 1 || urls[0] != "/real.html" {
		t.Fatalf("script content leaked into links: %v", urls)
	}
	if d.Render() != src {
		t.Fatal("script round trip failed")
	}
}

func TestCommentedLinksIgnored(t *testing.T) {
	src := `<!-- <a href="/commented.html">x</a> --><a href="/live.html">y</a>`
	urls := Parse(src).LinkURLs(LinkAnchor)
	if len(urls) != 1 || urls[0] != "/live.html" {
		t.Fatalf("links = %v", urls)
	}
}

func TestEmptyHrefIgnored(t *testing.T) {
	src := `<a href="">empty</a><a>none</a>`
	if urls := Parse(src).LinkURLs(); len(urls) != 0 {
		t.Fatalf("links = %v, want none", urls)
	}
}

func TestTokenKinds(t *testing.T) {
	toks := Tokenize(`<!DOCTYPE html><!-- c --><p class="x">text</p><br/>`)
	kinds := make([]TokenKind, len(toks))
	for i, tok := range toks {
		kinds[i] = tok.Kind
	}
	want := []TokenKind{DoctypeToken, CommentToken, StartTag, TextToken, EndTag, SelfCloseTag}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
}

func TestLinkKindString(t *testing.T) {
	if LinkAnchor.String() != "anchor" || LinkImage.String() != "image" ||
		LinkFrame.String() != "frame" || LinkKind(99).String() != "unknown" {
		t.Fatal("LinkKind.String mismatch")
	}
}

// Property: for generated documents, Render∘Parse is the identity and
// rewriting to fresh URLs then back restores the original.
func TestRewriteRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src, urls := randomDoc(rng)
		if Parse(src).Render() != src {
			return false
		}
		fwd := make(map[string]string, len(urls))
		rev := make(map[string]string, len(urls))
		for i, u := range urls {
			nu := fmt.Sprintf("/~migrate/h/80/doc%d.html", i)
			fwd[u] = nu
			rev[nu] = u
		}
		out, _ := RewriteHTML(src, fwd)
		back, _ := RewriteHTML(out, rev)
		return back == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the set of link URLs survives a render round trip.
func TestLinkSetPreservedProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src, _ := randomDoc(rng)
		d := Parse(src)
		again := Parse(d.Render())
		return reflect.DeepEqual(d.LinkURLs(), again.LinkURLs())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// randomDoc builds a small random HTML document and returns it with the
// distinct link URLs it contains.
func randomDoc(rng *rand.Rand) (string, []string) {
	var b strings.Builder
	b.WriteString("<html><body>\n")
	seen := map[string]bool{}
	var urls []string
	n := 1 + rng.Intn(8)
	for i := 0; i < n; i++ {
		u := fmt.Sprintf("/p%c/file%d.html", 'a'+rng.Intn(4), rng.Intn(20))
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, `<a href="%s">link %d</a>`, u, i)
		case 1:
			u = strings.TrimSuffix(u, ".html") + ".gif"
			fmt.Fprintf(&b, `<img src="%s">`, u)
		default:
			fmt.Fprintf(&b, `<frame src='%s'>`, u)
		}
		b.WriteString("\n<p>filler ")
		b.WriteString(strings.Repeat("x", rng.Intn(30)))
		b.WriteString("</p>\n")
		if !seen[u] {
			seen[u] = true
			urls = append(urls, u)
		}
	}
	b.WriteString("</body></html>\n")
	return b.String(), urls
}

func BenchmarkTokenize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Tokenize(samplePage)
	}
}

func BenchmarkParseAndExtract(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Parse(samplePage).LinkURLs()
	}
}

func BenchmarkRewrite(b *testing.B) {
	mapping := map[string]string{"/msg0001.html": "/~migrate/h/80/msg0001.html"}
	for i := 0; i < b.N; i++ {
		RewriteHTML(samplePage, mapping)
	}
}

// Property: the tokenizer and renderer never panic on arbitrary bytes and
// Render(Parse(x)) == x holds even for garbage — the server must survive
// any file an administrator drops into the document root.
func TestTokenizerNeverPanicsAndRoundTrips(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("panic on %q: %v", data, r)
			}
		}()
		src := string(data)
		return Parse(src).Render() == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: rewriting with an empty mapping is always the identity.
func TestEmptyRewriteIsIdentity(t *testing.T) {
	f := func(data []byte) bool {
		src := string(data)
		out, n := RewriteHTML(src, nil)
		return n == 0 && out == src
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

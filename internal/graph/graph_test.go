package graph

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"dcws/internal/hypertext"
	"dcws/internal/store"
)

// paperStore builds the document set of Figure 1/2: documents A..E on one
// server, where A->C, B->{D,E}, E->D.
func paperStore(t *testing.T) store.Store {
	t.Helper()
	s := store.NewMem()
	put := func(name, body string) {
		if err := s.Put(name, []byte(body)); err != nil {
			t.Fatal(err)
		}
	}
	put("/A.html", `<html><a href="/C.html">C</a></html>`)
	put("/B.html", `<html><a href="/D.html">D</a><a href="/E.html">E</a></html>`)
	put("/C.html", `<html>leaf C</html>`)
	put("/D.html", `<html>leaf D</html>`)
	put("/E.html", `<html><a href="/D.html">D</a></html>`)
	return s
}

func TestBuildPaperExample(t *testing.T) {
	g, err := Build(paperStore(t))
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 5 {
		t.Fatalf("Len = %d, want 5", g.Len())
	}
	b, err := g.Get("/B.html")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.LinkTo, []string{"/D.html", "/E.html"}) {
		t.Fatalf("B.LinkTo = %v", b.LinkTo)
	}
	d, _ := g.Get("/D.html")
	if !reflect.DeepEqual(d.LinkFrom, []string{"/B.html", "/E.html"}) {
		t.Fatalf("D.LinkFrom = %v", d.LinkFrom)
	}
	a, _ := g.Get("/A.html")
	if len(a.LinkFrom) != 0 {
		t.Fatalf("A.LinkFrom = %v, want empty", a.LinkFrom)
	}
	c, _ := g.Get("/C.html")
	if !reflect.DeepEqual(c.LinkFrom, []string{"/A.html"}) {
		t.Fatalf("C.LinkFrom = %v", c.LinkFrom)
	}
}

// TestMigrationMatchesFigure2 reproduces the paper's Figure 2 state: after
// D migrates to server #2, B and E are dirty, D's location is #2, and the
// other documents are clean.
func TestMigrationMatchesFigure2(t *testing.T) {
	g, _ := Build(paperStore(t))
	dirtied, err := g.MarkMigrated("/D.html", "server2:80")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dirtied, []string{"/B.html", "/E.html"}) {
		t.Fatalf("dirtied = %v", dirtied)
	}
	for name, wantDirty := range map[string]bool{
		"/A.html": false, "/B.html": true, "/C.html": false,
		"/D.html": false, "/E.html": true,
	} {
		if got := g.IsDirty(name); got != wantDirty {
			t.Errorf("Dirty(%s) = %v, want %v", name, got, wantDirty)
		}
	}
	loc, ok := g.Location("/D.html")
	if !ok || loc != "server2:80" {
		t.Fatalf("Location(D) = %q, %v", loc, ok)
	}
}

func TestRevokeDirtiesLinkFromAgain(t *testing.T) {
	g, _ := Build(paperStore(t))
	g.MarkMigrated("/D.html", "server2:80")
	g.ClearDirty("/B.html")
	g.ClearDirty("/E.html")
	dirtied, err := g.MarkRevoked("/D.html")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dirtied, []string{"/B.html", "/E.html"}) {
		t.Fatalf("dirtied = %v", dirtied)
	}
	if loc, _ := g.Location("/D.html"); loc != "" {
		t.Fatalf("Location after revoke = %q", loc)
	}
}

func TestHitsAndWindow(t *testing.T) {
	g, _ := Build(paperStore(t))
	for i := 0; i < 7; i++ {
		g.RecordHit("/C.html")
	}
	c, _ := g.Get("/C.html")
	if c.Hits != 7 || c.WindowHits != 7 {
		t.Fatalf("Hits = %d, WindowHits = %d", c.Hits, c.WindowHits)
	}
	g.RollWindow()
	g.RecordHit("/C.html")
	c, _ = g.Get("/C.html")
	if c.Hits != 8 || c.WindowHits != 1 {
		t.Fatalf("after roll: Hits = %d, WindowHits = %d", c.Hits, c.WindowHits)
	}
}

func TestRecordHitUnknownDocCreatesTuple(t *testing.T) {
	g := New()
	g.RecordHit("/surprise.html")
	d, err := g.Get("/surprise.html")
	if err != nil || d.Hits != 1 {
		t.Fatalf("Get = %+v, %v", d, err)
	}
}

func TestEntryPoint(t *testing.T) {
	g, _ := Build(paperStore(t))
	if err := g.SetEntryPoint("/A.html", true); err != nil {
		t.Fatal(err)
	}
	a, _ := g.Get("/A.html")
	if !a.EntryPoint {
		t.Fatal("entry point flag not set")
	}
	if err := g.SetEntryPoint("/missing.html", true); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("err = %v", err)
	}
}

func TestMarkMigratedUnknownDoc(t *testing.T) {
	g := New()
	if _, err := g.MarkMigrated("/ghost.html", "x:1"); !errors.Is(err, ErrUnknownDoc) {
		t.Fatalf("err = %v", err)
	}
}

func TestMigratedMap(t *testing.T) {
	g, _ := Build(paperStore(t))
	g.MarkMigrated("/D.html", "s2:80")
	g.MarkMigrated("/C.html", "s3:80")
	got := g.Migrated()
	want := map[string]string{"/D.html": "s2:80", "/C.html": "s3:80"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Migrated = %v", got)
	}
}

func TestRemoteLinkFromCount(t *testing.T) {
	g, _ := Build(paperStore(t))
	// D is linked from B and E; initially both local.
	n, err := g.RemoteLinkFromCount("/D.html")
	if err != nil || n != 0 {
		t.Fatalf("count = %d, %v", n, err)
	}
	g.MarkMigrated("/E.html", "s2:80")
	n, _ = g.RemoteLinkFromCount("/D.html")
	if n != 1 {
		t.Fatalf("count after E migrates = %d, want 1", n)
	}
}

// addPage is AddDoc for a document's content: an HTML page's links are
// resolved by ResolveLink, any other document links nowhere.
func addPage(g *LDG, name string, size int64, content []byte) {
	var linkTo []string
	if IsHTML(name) {
		linkTo = LinkTargets(name, hypertext.Parse(string(content)), ResolveLink)
	}
	g.AddDoc(name, size, linkTo)
}

func TestAddDocReplacesLinks(t *testing.T) {
	g, _ := Build(paperStore(t))
	// B now links only to C.
	addPage(g, "/B.html", 40, []byte(`<a href="/C.html">C</a>`))
	b, _ := g.Get("/B.html")
	if !reflect.DeepEqual(b.LinkTo, []string{"/C.html"}) {
		t.Fatalf("B.LinkTo = %v", b.LinkTo)
	}
	d, _ := g.Get("/D.html")
	for _, from := range d.LinkFrom {
		if from == "/B.html" {
			t.Fatal("stale LinkFrom entry for B on D")
		}
	}
	c, _ := g.Get("/C.html")
	found := false
	for _, from := range c.LinkFrom {
		if from == "/B.html" {
			found = true
		}
	}
	if !found {
		t.Fatal("new LinkFrom entry missing on C")
	}
	if b.Size != 40 {
		t.Fatalf("size = %d", b.Size)
	}
}

func TestSetSize(t *testing.T) {
	g, _ := Build(paperStore(t))
	g.SetSize("/A.html", 12345)
	a, _ := g.Get("/A.html")
	if a.Size != 12345 {
		t.Fatalf("Size = %d", a.Size)
	}
}

func TestSnapshotSorted(t *testing.T) {
	g, _ := Build(paperStore(t))
	snap := g.Snapshot()
	if len(snap) != 5 {
		t.Fatalf("snapshot len = %d", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %s >= %s", snap[i-1].Name, snap[i].Name)
		}
	}
}

func TestResolveLink(t *testing.T) {
	cases := []struct{ base, raw, want string }{
		{"/a/b.html", "/c.html", "/c.html"},
		{"/a/b.html", "c.html", "/a/c.html"},
		{"/a/b.html", "../c.html", "/c.html"},
		{"/a/b.html", "../../../c.html", "/c.html"}, // cannot escape the root
		{"/b.html", "sub/c.html", "/sub/c.html"},
		{"/b.html", "#frag", ""},
		{"/b.html", "c.html#frag", "/c.html"},
		{"/b.html", "c.html?q=1", "/c.html"},
		{"/b.html", "http://other/x.html", ""},
		{"/b.html", "mailto:x@y", ""},
		{"/b.html", "", ""},
		{"/b.html", "/~migrate/h/80/d.html", ""},
		{"/b.html", "?q=only", ""},
	}
	for _, c := range cases {
		if got := ResolveLink(c.base, c.raw); got != c.want {
			t.Errorf("ResolveLink(%q, %q) = %q, want %q", c.base, c.raw, got, c.want)
		}
	}
}

func TestIsHTML(t *testing.T) {
	for name, want := range map[string]bool{
		"/a.html": true, "/a.HTM": true, "/a.Html": true,
		"/a.gif": false, "/html": false, "/a.html.gif": false,
	} {
		if got := IsHTML(name); got != want {
			t.Errorf("IsHTML(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestDanglingLinksTracked(t *testing.T) {
	s := store.NewMem()
	s.Put("/a.html", []byte(`<a href="/gone.html">missing</a>`))
	g, err := Build(s)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := g.Get("/a.html")
	if !reflect.DeepEqual(a.LinkTo, []string{"/gone.html"}) {
		t.Fatalf("LinkTo = %v", a.LinkTo)
	}
	// The dangling target exists as a node with zero size.
	gone, err := g.Get("/gone.html")
	if err != nil || gone.Size != 0 {
		t.Fatalf("dangling node = %+v, %v", gone, err)
	}
}

func TestSelfLinksIgnored(t *testing.T) {
	s := store.NewMem()
	s.Put("/a.html", []byte(`<a href="/a.html">self</a>`))
	g, _ := Build(s)
	a, _ := g.Get("/a.html")
	if len(a.LinkTo) != 0 {
		t.Fatalf("self link recorded: %v", a.LinkTo)
	}
}

// Property: LinkTo and LinkFrom are mutual inverses for any generated site.
func TestLinkInversionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := store.NewMem()
		n := 2 + rng.Intn(12)
		for i := 0; i < n; i++ {
			var body string
			for j := 0; j < rng.Intn(4); j++ {
				body += fmt.Sprintf(`<a href="/doc%d.html">x</a>`, rng.Intn(n))
			}
			s.Put(fmt.Sprintf("/doc%d.html", i), []byte("<html>"+body+"</html>"))
		}
		g, err := Build(s)
		if err != nil {
			return false
		}
		docs := g.Snapshot()
		byName := make(map[string]Doc, len(docs))
		for _, d := range docs {
			byName[d.Name] = d
		}
		for _, d := range docs {
			for _, to := range d.LinkTo {
				if !contains(byName[to].LinkFrom, d.Name) {
					return false
				}
			}
			for _, from := range d.LinkFrom {
				if !contains(byName[from].LinkTo, d.Name) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: migrating any document dirties exactly its LinkFrom set.
func TestMigrationDirtySetProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := store.NewMem()
		n := 2 + rng.Intn(10)
		for i := 0; i < n; i++ {
			var body string
			for j := 0; j < rng.Intn(4); j++ {
				body += fmt.Sprintf(`<a href="/doc%d.html">x</a>`, rng.Intn(n))
			}
			s.Put(fmt.Sprintf("/doc%d.html", i), []byte(body))
		}
		g, err := Build(s)
		if err != nil {
			return false
		}
		victim := fmt.Sprintf("/doc%d.html", rng.Intn(n))
		before, _ := g.Get(victim)
		dirtied, err := g.MarkMigrated(victim, "coop:1")
		if err != nil {
			return false
		}
		if !reflect.DeepEqual(dirtied, before.LinkFrom) {
			return false
		}
		for _, d := range g.Snapshot() {
			if d.Dirty != contains(before.LinkFrom, d.Name) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

package graph

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"dcws/internal/dataset"
	"dcws/internal/store"
)

// bigPage returns a page of at least size bytes whose links are rooted,
// relative, dangling, duplicated, self-referencing and off-site.
func bigPage(i, pages, size int) []byte {
	var b strings.Builder
	next := (i + 1) % pages
	fmt.Fprintf(&b, `<html><a href="/p%d.html">r</a><a href="/p%d.html">dup</a>`, next, next)
	fmt.Fprintf(&b, `<a href="p%d.html">rel</a><a href="/gone%d.html">dangling</a>`, (i+2)%pages, i)
	fmt.Fprintf(&b, `<a href="/p%d.html">self</a><a href="http://elsewhere/x.html">off</a>`, i)
	b.WriteString(strings.Repeat("filler text ", size/12+1))
	b.WriteString("</html>")
	return []byte(b.String())
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestGraphRetainsNoDocumentText: once the pages a graph was built from
// are dropped, the graph holds its names and edges only — not the bodies
// its link targets were parsed out of. 16 pages of 512 KiB are 8 MiB.
func TestGraphRetainsNoDocumentText(t *testing.T) {
	const pages, size = 16, 512 << 10
	viaBuild := func() *LDG {
		st := store.NewMem()
		for i := 0; i < pages; i++ {
			st.Put(fmt.Sprintf("/p%d.html", i), bigPage(i, pages, size))
		}
		g, err := Build(st)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	viaAddDoc := func() *LDG {
		g := New()
		for i := 0; i < pages; i++ {
			body := bigPage(i, pages, size)
			addPage(g, fmt.Sprintf("/p%d.html", i), int64(len(body)), body)
		}
		return g
	}
	for _, tc := range []struct {
		name  string
		build func() *LDG
	}{{"Build", viaBuild}, {"AddDoc", viaAddDoc}} {
		before := liveHeap()
		g := tc.build()
		held := liveHeap() - before
		if g.Len() != 2*pages {
			t.Fatalf("%s: Len = %d, want %d", tc.name, g.Len(), 2*pages)
		}
		d, _ := g.Get("/p0.html")
		if want := []string{"/gone0.html", "/p1.html", "/p2.html"}; !reflect.DeepEqual(d.LinkTo, want) {
			t.Fatalf("%s: LinkTo = %v, want %v", tc.name, d.LinkTo, want)
		}
		if held >= 1<<20 {
			t.Errorf("%s: graph of %d nodes holds %d KiB after its pages were dropped", tc.name, g.Len(), held>>10)
		}
		runtime.KeepAlive(g)
	}
}

// within reports whether s's bytes lie inside src's.
func within(s, src string) bool {
	p, lo := uintptr(unsafe.Pointer(unsafe.StringData(s))), uintptr(unsafe.Pointer(unsafe.StringData(src)))
	return p >= lo && p < lo+uintptr(len(src))
}

// TestStoredNamesAreCopies: a node created from a request path keeps its
// own name, not a window into the string it came from, and its map key and
// tuple share that one copy.
func TestStoredNamesAreCopies(t *testing.T) {
	head := strings.Clone("GET /hit.html HTTP/1.1\r\nHost: x\r\n\r\n")
	g := New()
	g.RecordHit(head[4:13])
	g.AddDoc(head[4:13], 1, nil)
	g.mu.RLock()
	defer g.mu.RUnlock()
	for name, e := range g.docs {
		if within(name, head) {
			t.Errorf("stored name %q points into the request head", name)
		}
		if unsafe.StringData(name) != unsafe.StringData(e.name) {
			t.Errorf("%q: map key and tuple name are two copies", name)
		}
	}
}

// TestSnapshotGoldenDigests pins EncodeSnapshot over two trace-derived
// sites, so a change of the graph's representation cannot change the
// durable snapshot's bytes.
func TestSnapshotGoldenDigests(t *testing.T) {
	for _, tc := range []struct {
		site   func() *dataset.Site
		docs   int
		digest string
	}{
		{dataset.MAPUG, 1534, "73fc193f9757dd2bb590ed26ecc7a1618204a27eacde32a33fbd28f1e44932af"},
		{dataset.SBLog, 402, "32a2327d089de175653b7df929a551d0ebe830600b4f8d86ea0e45d14d9af23e"},
	} {
		site := tc.site()
		st := store.NewMem()
		if err := site.Materialize(st, 1); err != nil {
			t.Fatal(err)
		}
		g, err := Build(st)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(g.EncodeSnapshot())
		if g.Len() != tc.docs || hex.EncodeToString(sum[:]) != tc.digest {
			t.Errorf("%s: %d docs, snapshot sha256 %x; want %d, %s", site.Name, g.Len(), sum, tc.docs, tc.digest)
		}
	}
}

// model is the reference LDG the property test checks the graph against:
// one record per name, edges as a set of target names, LinkFrom derived.
type model map[string]*modelDoc

type modelDoc struct {
	location           string
	size, hits, window int64
	gen                uint64
	dirty              bool
	linkTo             map[string]bool
}

func (m model) ensure(name string) *modelDoc {
	d, ok := m[name]
	if !ok {
		d = &modelDoc{linkTo: map[string]bool{}}
		m[name] = d
	}
	return d
}

// dirtyLinkers dirties every document linking to name and returns them
// sorted; unlink also drops those edges.
func (m model) dirtyLinkers(name string, unlink bool) []string {
	var out []string
	for from, d := range m {
		if d.linkTo[name] {
			d.dirty = true
			d.gen++
			if unlink {
				delete(d.linkTo, name)
			}
			out = append(out, from)
		}
	}
	sort.Strings(out)
	return out
}

func (m model) snapshot() []Doc {
	out := make([]Doc, 0, len(m))
	for name, d := range m {
		doc := Doc{Name: name, Location: d.location, Size: d.size, Hits: d.hits, WindowHits: d.window,
			LinkTo: []string{}, LinkFrom: []string{}, Dirty: d.dirty, Gen: d.gen}
		for to := range d.linkTo {
			doc.LinkTo = append(doc.LinkTo, to)
		}
		for from, f := range m {
			if f.linkTo[name] {
				doc.LinkFrom = append(doc.LinkFrom, from)
			}
		}
		sort.Strings(doc.LinkTo)
		sort.Strings(doc.LinkFrom)
		out = append(out, doc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TestGraphMatchesModelProperty runs random sequences of content updates
// (with duplicate, self, dangling and off-site links), migrations,
// revocations, removals, hits and snapshot round trips against the
// reference model; Snapshot must equal the model's after every step.
func TestGraphMatchesModelProperty(t *testing.T) {
	names := []string{"/a.html", "/b.html", "/c.html", "/d.html", "/e.html", "/img.gif"}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g, m := New(), model{}
		for step := 0; step < 60; step++ {
			name := names[rng.Intn(len(names))]
			var op string
			var gotDirty, wantDirty []string
			switch r := rng.Intn(10); {
			case r < 4:
				op = "AddDoc"
				var page strings.Builder
				want := map[string]bool{}
				for k := rng.Intn(6); k > 0; k-- {
					to := names[rng.Intn(len(names))]
					switch rng.Intn(5) {
					case 0:
						fmt.Fprintf(&page, `<a href="%s">rooted</a>`, to)
					case 1:
						fmt.Fprintf(&page, `<a href="%s#frag">relative</a>`, to[1:])
					case 2:
						to = "/gone.html"
						fmt.Fprintf(&page, `<a href="%s">dangling</a>`, to)
					case 3:
						to = ""
						page.WriteString(`<a href="http://elsewhere/x.html">off</a><a href="#top">top</a>`)
					case 4:
						to = name
						fmt.Fprintf(&page, `<a href="%s">self</a>`, to)
					}
					if to != "" && to != name {
						want[to] = true
					}
				}
				size := int64(rng.Intn(1000))
				addPage(g, name, size, []byte(page.String()))
				d := m.ensure(name)
				d.size, d.linkTo = size, map[string]bool{}
				d.gen++
				if IsHTML(name) {
					d.linkTo = want
					for to := range want {
						m.ensure(to)
					}
				}
			case r < 5:
				op = "RecordHit"
				g.RecordHit(name)
				d := m.ensure(name)
				d.hits++
				d.window++
			case r < 7:
				op = "MarkMigrated"
				coop := []string{"", "coop1:80", "coop2:80"}[rng.Intn(3)]
				var err error
				gotDirty, err = g.MarkMigrated(name, coop)
				if d, ok := m[name]; ok {
					d.location = coop
					d.gen++
					wantDirty = m.dirtyLinkers(name, false)
					if wantDirty == nil {
						wantDirty = []string{}
					}
				} else if err == nil {
					t.Fatalf("seed %d step %d: MarkMigrated(%s) of an unknown doc succeeded", seed, step, name)
				}
			case r < 8:
				op = "MarkRevoked"
				gotDirty, _ = g.MarkRevoked(name)
				if d, ok := m[name]; ok {
					d.location = ""
					d.gen++
					wantDirty = m.dirtyLinkers(name, false)
					if wantDirty == nil {
						wantDirty = []string{}
					}
				}
			case r < 9:
				op = "Remove"
				gotDirty = g.Remove(name)
				if _, ok := m[name]; ok {
					wantDirty = m.dirtyLinkers(name, true)
					delete(m, name)
				}
			default:
				op = "round trip"
				g2, err := DecodeSnapshot(g.EncodeSnapshot())
				if err != nil {
					t.Fatalf("seed %d step %d: %v", seed, step, err)
				}
				g = g2
				for _, d := range m {
					d.window = 0
				}
			}
			if !reflect.DeepEqual(gotDirty, wantDirty) {
				t.Fatalf("seed %d step %d %s(%s): dirtied %v, model %v", seed, step, op, name, gotDirty, wantDirty)
			}
			if got, want := g.Snapshot(), m.snapshot(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d %s(%s):\n got %+v\nwant %+v", seed, step, op, name, got, want)
			}
		}
	}
}

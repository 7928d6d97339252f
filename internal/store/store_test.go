package store

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

// storeImpls returns fresh instances of every Store implementation.
func storeImpls(t *testing.T) map[string]Store {
	t.Helper()
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Store{
		"mem": NewMem(),
		"dir": dir,
	}
}

func TestStorePutGet(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("/a/b.html", []byte("<html>x</html>")); err != nil {
				t.Fatal(err)
			}
			got, err := s.Get("/a/b.html")
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != "<html>x</html>" {
				t.Fatalf("Get = %q", got)
			}
		})
	}
}

func TestStoreGetMissing(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			_, err := s.Get("/missing.html")
			if !errors.Is(err, ErrNotFound) {
				t.Fatalf("err = %v, want ErrNotFound", err)
			}
		})
	}
}

func TestStoreOverwrite(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("/d.html", []byte("v1"))
			s.Put("/d.html", []byte("v2"))
			got, _ := s.Get("/d.html")
			if string(got) != "v2" {
				t.Fatalf("Get after overwrite = %q", got)
			}
		})
	}
}

func TestStoreDelete(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("/d.html", []byte("x"))
			if err := s.Delete("/d.html"); err != nil {
				t.Fatal(err)
			}
			if s.Has("/d.html") {
				t.Fatal("document still present after Delete")
			}
			if err := s.Delete("/d.html"); err != nil {
				t.Fatalf("double delete errored: %v", err)
			}
		})
	}
}

func TestStoreHas(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if s.Has("/x") {
				t.Fatal("Has on empty store")
			}
			s.Put("/x", []byte("1"))
			if !s.Has("/x") {
				t.Fatal("Has after Put = false")
			}
		})
	}
}

func TestStoreListSorted(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("/b.html", []byte("b"))
			s.Put("/a/z.html", []byte("z"))
			s.Put("/a/a.html", []byte("a"))
			names, err := s.List()
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"/a/a.html", "/a/z.html", "/b.html"}
			if len(names) != 3 {
				t.Fatalf("List = %v", names)
			}
			for i := range want {
				if names[i] != want[i] {
					t.Fatalf("List = %v, want %v", names, want)
				}
			}
		})
	}
}

func TestStoreSize(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("/d", make([]byte, 4096))
			sz, err := s.Size("/d")
			if err != nil || sz != 4096 {
				t.Fatalf("Size = %d, %v", sz, err)
			}
			if _, err := s.Size("/missing"); !errors.Is(err, ErrNotFound) {
				t.Fatalf("Size(missing) err = %v", err)
			}
		})
	}
}

func TestStoreNameNormalization(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			s.Put("noslash.html", []byte("x"))
			if !s.Has("/noslash.html") {
				t.Fatal("unrooted Put not normalized")
			}
			s.Put("/a/./b.html", []byte("y"))
			if !s.Has("/a/b.html") {
				t.Fatal("dot segments not cleaned")
			}
		})
	}
}

func TestStoreRejectsEscapingNames(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := s.Put("/../../etc/passwd", []byte("evil")); err == nil {
				t.Fatal("path escape accepted")
			}
			if err := s.Put("", []byte("x")); err == nil {
				t.Fatal("empty name accepted")
			}
		})
	}
}

func TestMemGetReturnsCopy(t *testing.T) {
	s := NewMem()
	s.Put("/d", []byte("orig"))
	got, _ := s.Get("/d")
	got[0] = 'X'
	again, _ := s.Get("/d")
	if string(again) != "orig" {
		t.Fatal("Get exposed internal buffer")
	}
}

func TestMemPutCopiesInput(t *testing.T) {
	s := NewMem()
	data := []byte("orig")
	s.Put("/d", data)
	data[0] = 'X'
	got, _ := s.Get("/d")
	if string(got) != "orig" {
		t.Fatal("Put retained caller's buffer")
	}
}

func TestStoreConcurrentAccess(t *testing.T) {
	for name, s := range storeImpls(t) {
		t.Run(name, func(t *testing.T) {
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					doc := fmt.Sprintf("/doc%d.html", i)
					for j := 0; j < 50; j++ {
						s.Put(doc, []byte(fmt.Sprintf("v%d", j)))
						s.Get(doc)
						s.Has(doc)
					}
				}(i)
			}
			wg.Wait()
			names, _ := s.List()
			if len(names) != 8 {
				t.Fatalf("List after concurrent writes = %d entries", len(names))
			}
		})
	}
}

func TestCopy(t *testing.T) {
	src := NewMem()
	src.Put("/a.html", []byte("a"))
	src.Put("/sub/b.gif", []byte("bb"))
	dst := NewMem()
	if err := Copy(dst, src); err != nil {
		t.Fatal(err)
	}
	got, err := dst.Get("/sub/b.gif")
	if err != nil || string(got) != "bb" {
		t.Fatalf("copied doc = %q, %v", got, err)
	}
}

func TestTotalBytes(t *testing.T) {
	s := NewMem()
	s.Put("/a", make([]byte, 100))
	s.Put("/b", make([]byte, 250))
	total, err := TotalBytes(s)
	if err != nil || total != 350 {
		t.Fatalf("TotalBytes = %d, %v", total, err)
	}
}

func TestDirPersistence(t *testing.T) {
	root := t.TempDir()
	d1, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	d1.Put("/persist/x.html", []byte("still here"))
	// A second store over the same directory sees the document.
	d2, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.Get("/persist/x.html")
	if err != nil || string(got) != "still here" {
		t.Fatalf("Get via second store = %q, %v", got, err)
	}
}

func TestCleanName(t *testing.T) {
	cases := map[string]string{
		"/a/b.html":  "/a/b.html",
		"a/b.html":   "/a/b.html",
		"/a/./b":     "/a/b",
		"//double":   "/double",
		"/trailing/": "/trailing",
	}
	for in, want := range cases {
		got, err := CleanName(in)
		if err != nil || got != want {
			t.Errorf("CleanName(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for _, bad := range []string{"", "/..", "/a/../b", "../up"} {
		if _, err := CleanName(bad); err == nil {
			t.Errorf("CleanName(%q) succeeded", bad)
		}
	}
}

// Property: Put/Get round-trips arbitrary binary content for both
// implementations.
func TestStoreRoundTripProperty(t *testing.T) {
	dir, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	impls := map[string]Store{"mem": NewMem(), "dir": dir}
	for name, s := range impls {
		s := s
		f := func(data []byte, n uint8) bool {
			doc := fmt.Sprintf("/p/doc%d.bin", n)
			if err := s.Put(doc, data); err != nil {
				return false
			}
			got, err := s.Get(doc)
			if err != nil {
				return false
			}
			return bytes.Equal(got, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// TestMemKeyIsACopy: a stored name never points into the string it was
// taken from (a request head), on the first Put and on a replacing one.
func TestMemKeyIsACopy(t *testing.T) {
	head := strings.Clone("POST /doc.html HTTP/1.1\r\n\r\n")
	m := NewMem()
	for i := 0; i < 2; i++ {
		if err := m.Put(head[5:14], []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(head)))
	for k := range m.docs {
		if p := uintptr(unsafe.Pointer(unsafe.StringData(k))); p >= lo && p < lo+uintptr(len(head)) {
			t.Errorf("stored key %q points into the request head", k)
		}
	}
}

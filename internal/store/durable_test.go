package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"
)

// TestDirPutLeftoverTempIgnored: a crash mid-Put leaves a temp file
// behind; it must never surface as a document through List/Has/Get, and a
// retried Put must succeed around it.
func TestDirPutLeftoverTempIgnored(t *testing.T) {
	root := t.TempDir()
	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Put("/dir/doc.html", []byte("good")); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn write a crash leaves: a partial temp file next to
	// the document.
	torn := filepath.Join(root, "dir", ".put-crashed.tmp")
	if err := os.WriteFile(torn, []byte("par"), 0o644); err != nil {
		t.Fatal(err)
	}
	names, err := d.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if n != "/dir/doc.html" {
			t.Fatalf("List surfaced %q", n)
		}
	}
	if d.Has("/dir/.put-crashed.tmp") {
		t.Fatal("Has reported the torn temp file")
	}
	got, err := d.Get("/dir/doc.html")
	if err != nil || string(got) != "good" {
		t.Fatalf("Get after torn write: %q, %v", got, err)
	}
	if err := d.Put("/dir/doc.html", []byte("newer")); err != nil {
		t.Fatalf("Put with leftover temp present: %v", err)
	}
	got, _ = d.Get("/dir/doc.html")
	if string(got) != "newer" {
		t.Fatalf("after retry Get = %q", got)
	}
}

// TestDirPutConcurrentSameName: unique temp names mean concurrent Puts to
// one document can never clobber each other's temp file; the final content
// is one of the writers' payloads, whole.
func TestDirPutConcurrentSameName(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var wg sync.WaitGroup
	payloads := make([][]byte, 8)
	for i := range payloads {
		payloads[i] = bytes.Repeat([]byte{byte('a' + i)}, 1024)
		wg.Add(1)
		go func(p []byte) {
			defer wg.Done()
			for j := 0; j < 20; j++ {
				if err := d.Put("/contended.html", p); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
			}
		}(payloads[i])
	}
	wg.Wait()
	got, err := d.Get("/contended.html")
	if err != nil {
		t.Fatal(err)
	}
	whole := false
	for _, p := range payloads {
		if bytes.Equal(got, p) {
			whole = true
			break
		}
	}
	if !whole {
		t.Fatalf("document torn after concurrent Put: %d bytes, first byte %q", len(got), got[0])
	}
	// No temp debris left behind.
	debris, _ := filepath.Glob(filepath.Join(d.root, ".put-*.tmp"))
	if len(debris) != 0 {
		t.Fatalf("leftover temp files: %v", debris)
	}
}

func TestDirGetSharedSmallCopies(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Put("/small.html", []byte("tiny"))
	got, err := GetShared(d, "/small.html")
	if err != nil || string(got) != "tiny" {
		t.Fatalf("GetShared small: %q, %v", got, err)
	}
}

// TestDirGetSharedLargeCopies: a Dir has no zero-copy path, so a body of
// any size comes back as a private copy its reader may keep, and change,
// without touching the store.
func TestDirGetSharedLargeCopies(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("0123456789abcdef"), LargeBody/16+16)
	if err := d.Put("/big.bin", big); err != nil {
		t.Fatal(err)
	}
	a, err := GetShared(d, "/big.bin")
	if err != nil || !bytes.Equal(a, big) {
		t.Fatalf("GetShared large: %d bytes, %v", len(a), err)
	}
	a[0] = 'X'
	b, err := GetShared(d, "/big.bin")
	if err != nil || !bytes.Equal(b, big) {
		t.Fatal("a reader's change to its body reached the stored document")
	}
}

// TestDirGetSharedSurvivesTruncate: a writer outside the store that
// truncates a document in place must not take down a process still
// reading a body it got earlier. A body that maps the file faults on the
// first read past the new end, and a fault is fatal to the process unless
// the goroutine asked to panic on faults, as this one does so that the
// test can report it.
func TestDirGetSharedSurvivesTruncate(t *testing.T) {
	root := t.TempDir()
	d, err := NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("page"), 1<<18)
	if err := d.Put("/big.bin", big); err != nil {
		t.Fatal(err)
	}
	body, err := GetShared(d, "/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(filepath.Join(root, "big.bin"), 0); err != nil {
		t.Fatal(err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("reading the body after its file shrank faulted: %v", r)
		}
	}()
	for i := 0; i < len(body); i += 4096 {
		if body[i] != big[i] {
			t.Fatalf("byte %d changed after the file shrank", i)
		}
	}
}

// readFileAll reads the n bytes of f from offset 0.
func readFileAll(t *testing.T, f *os.File, n int64) []byte {
	t.Helper()
	b, err := io.ReadAll(io.NewSectionReader(f, 0, n))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDirOpenFileAcrossPut: OpenFile returns the document's file and its
// size. A file opened before a Put keeps the content it was opened with —
// Put renames a new file into place — and the next OpenFile sees the new
// one.
func TestDirOpenFileAcrossPut(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v1 := bytes.Repeat([]byte("v1"), LargeBody)
	v2 := bytes.Repeat([]byte("v2v2"), LargeBody/2+64)
	if err := d.Put("/doc.bin", v1); err != nil {
		t.Fatal(err)
	}
	old, n, err := d.OpenFile("/doc.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	if err := d.Put("/doc.bin", v2); err != nil {
		t.Fatal(err)
	}
	cur, m, err := d.OpenFile("/doc.bin")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	if n != int64(len(v1)) || m != int64(len(v2)) {
		t.Fatalf("sizes %d and %d, want %d and %d", n, m, len(v1), len(v2))
	}
	if !bytes.Equal(readFileAll(t, old, n), v1) {
		t.Fatal("a file opened before Put changed content")
	}
	if !bytes.Equal(readFileAll(t, cur, m), v2) {
		t.Fatal("OpenFile after Put returned the old content")
	}
}

// TestDirOpenFileMissing: a document that is not there — never written, or
// deleted — is ErrNotFound, and OpenFile refuses what Get refuses: names
// escaping the root, the reserved .tmp suffix, and anything that is not a
// regular file.
func TestDirOpenFileMissing(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	d.Put("/gone.bin", bytes.Repeat([]byte("x"), LargeBody+128))
	d.Put("/sub/doc.html", []byte("<html></html>"))
	if err := d.Delete("/gone.bin"); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/gone.bin", "/never.bin"} {
		f, _, err := d.OpenFile(name)
		if !errors.Is(err, ErrNotFound) {
			t.Errorf("OpenFile(%q) = %v, want ErrNotFound", name, err)
		}
		if f != nil {
			f.Close()
		}
	}
	for _, name := range []string{"/../escape.bin", "/sub/.put-1.tmp", "", "/sub"} {
		f, _, err := d.OpenFile(name)
		if err == nil || errors.Is(err, ErrNotFound) {
			t.Errorf("OpenFile(%q) = %v, want a refusal", name, err)
		}
		if f != nil {
			f.Close()
		}
	}
}

func TestDirGetSharedConcurrent(t *testing.T) {
	d, err := NewDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte("concurrency"), LargeBody/11+32)
	for i := 0; i < 4; i++ {
		d.Put(fmt.Sprintf("/doc-%d.bin", i), big)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("/doc-%d.bin", i%4)
				data, err := GetShared(d, name)
				if err != nil {
					t.Errorf("GetShared: %v", err)
					return
				}
				if len(data) != len(big) {
					t.Errorf("short body: %d", len(data))
					return
				}
				if g == 0 && i%10 == 0 {
					d.Put(name, big)
				}
			}
		}(g)
	}
	wg.Wait()
}

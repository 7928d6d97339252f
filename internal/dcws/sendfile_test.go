package dcws

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/naming"
	"dcws/internal/store"
)

// countingDir is a store.Dir that counts OpenFile calls and, when armed,
// truncates the file it has just opened to half its size — a writer
// outside the store shrinking a document between the server's fstat and
// its sendfile.
type countingDir struct {
	*store.Dir
	root  string
	opens atomic.Int64
	armed atomic.Bool
}

func newCountingDir(t *testing.T) *countingDir {
	t.Helper()
	root := t.TempDir()
	d, err := store.NewDir(root)
	if err != nil {
		t.Fatal(err)
	}
	return &countingDir{Dir: d, root: root}
}

func (d *countingDir) OpenFile(name string) (*os.File, int64, error) {
	d.opens.Add(1)
	f, n, err := d.Dir.OpenFile(name)
	if err == nil && d.armed.CompareAndSwap(true, false) {
		if err := os.Truncate(filepath.Join(d.root, filepath.FromSlash(name)), n/2); err != nil {
			panic(err)
		}
	}
	return f, n, err
}

// quietParams keeps every background loop of a real-clock server from
// running during a test, so only the test's own requests open sockets and
// files.
func quietParams() Params {
	return Params{
		StatsInterval:       time.Hour,
		PingerInterval:      time.Hour,
		ValidateInterval:    time.Hour,
		AntiEntropyInterval: -1,
		SnapshotInterval:    -1,
		SLOCheckInterval:    -1,
		HotReplicateRate:    -1,
	}
}

// startTCP boots a server on a free loopback port over real TCP.
func startTCP(t *testing.T, st store.Store, docs map[string][]byte, peers []string) *Server {
	t.Helper()
	for name, body := range docs {
		if err := st.Put(name, body); err != nil {
			t.Fatal(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no TCP: %v", err)
	}
	port := l.Addr().(*net.TCPAddr).Port
	l.Close()
	srv, err := New(Config{
		Origin:  naming.Origin{Host: "127.0.0.1", Port: port},
		Store:   st,
		Network: memnet.TCP{},
		Peers:   peers,
		Params:  quietParams(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Skipf("cannot bind TCP: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func patterned(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(i*7) ^ seed
	}
	return b
}

// TestLargeBodiesLeaveByFile runs a home and a co-op over real TCP, both on
// store.Dir roots: a large document is served from its file on GET and
// HEAD at the home, after UpdateDocument, and from the co-op's copy; a
// small one never opens a file; a large dirty page is regenerated; and a
// large file removed behind the server's back is 404.
func TestLargeBodiesLeaveByFile(t *testing.T) {
	homeDir, coopDir := newCountingDir(t), newCountingDir(t)
	big := patterned(300<<10, 1)
	small := []byte("<html><a href=\"/big.bin\">raster</a></html>")
	coop := startTCP(t, coopDir, nil, nil)
	page := append([]byte(`<html><a href="/page.html">page</a>`), bytes.Repeat([]byte("<p>filler</p>\n"), store.LargeBody/8)...)
	home := startTCP(t, homeDir, map[string][]byte{
		"/index.html": small,
		"/big.bin":    big,
		"/big.html":   append(page, "</html>"...),
		"/page.html":  small,
		"/gone.bin":   patterned(store.LargeBody, 2),
	}, []string{coop.Addr()})
	client := httpx.NewClient(httpx.DialerFunc(memnet.TCP{}.Dial))
	do := func(addr, method, path string) *httpx.Response {
		t.Helper()
		resp, err := client.Do(addr, httpx.NewRequest(method, path))
		if err != nil {
			t.Fatalf("%s %s%s: %v", method, addr, path, err)
		}
		return resp
	}

	if resp := do(home.Addr(), "GET", "/index.html"); resp.Status != 200 || !bytes.Equal(resp.Body, small) {
		t.Fatalf("small GET = %d, %d bytes", resp.Status, len(resp.Body))
	}
	if n := homeDir.opens.Load(); n != 0 {
		t.Fatalf("a small document opened %d files", n)
	}

	resp := do(home.Addr(), "GET", "/big.bin")
	if resp.Status != 200 || !bytes.Equal(resp.Body, big) || resp.Header.Get("Content-Length") != strconv.Itoa(len(big)) {
		t.Fatalf("large GET = %d, %d bytes, Content-Length %q", resp.Status, len(resp.Body), resp.Header.Get("Content-Length"))
	}
	resp = do(home.Addr(), "HEAD", "/big.bin")
	if resp.Status != 200 || len(resp.Body) != 0 || resp.Header.Get("Content-Length") != strconv.Itoa(len(big)) {
		t.Fatalf("large HEAD = %d, %d bytes, Content-Length %q", resp.Status, len(resp.Body), resp.Header.Get("Content-Length"))
	}
	if n := homeDir.opens.Load(); n != 2 {
		t.Fatalf("a large GET and HEAD opened %d files, want 2", n)
	}

	v2 := patterned(200<<10, 3)
	if err := home.UpdateDocument("/big.bin", v2); err != nil {
		t.Fatal(err)
	}
	if resp := do(home.Addr(), "GET", "/big.bin"); resp.Status != 200 || !bytes.Equal(resp.Body, v2) {
		t.Fatalf("GET after UpdateDocument = %d, %d bytes, want the new %d", resp.Status, len(resp.Body), len(v2))
	}

	// A large HTML page whose link target migrates is dirty: it is
	// regenerated from bytes, links rewritten, and then sent from the
	// rewritten file.
	home.migrate("/page.html", coop.Addr())
	for i := 0; i < 2; i++ {
		resp := do(home.Addr(), "GET", "/big.html")
		if resp.Status != 200 || !bytes.Contains(resp.Body, []byte("/~migrate/")) || len(resp.Body) < store.LargeBody {
			t.Fatalf("GET %d of a dirty large page = %d, %d bytes, links rewritten: %v", i, resp.Status, len(resp.Body), bytes.Contains(resp.Body, []byte("/~migrate/")))
		}
	}

	home.migrate("/big.bin", coop.Addr())
	key, err := naming.Encode(home.cfg.Origin, "/big.bin")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // the lazy fetch, then the stored copy
		if resp := do(coop.Addr(), "GET", key); resp.Status != 200 || !bytes.Equal(resp.Body, v2) {
			t.Fatalf("co-op GET %d = %d, %d bytes", i, resp.Status, len(resp.Body))
		}
	}
	if resp := do(coop.Addr(), "HEAD", key); resp.Status != 200 || resp.Header.Get("Content-Length") != strconv.Itoa(len(v2)) {
		t.Fatalf("co-op HEAD = %d, Content-Length %q", resp.Status, resp.Header.Get("Content-Length"))
	}
	if n := coopDir.opens.Load(); n != 3 {
		t.Fatalf("the co-op opened %d files for two GETs and a HEAD of its present copy, want 3", n)
	}

	if err := os.Remove(filepath.Join(homeDir.root, "gone.bin")); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"GET", "HEAD"} {
		if resp := do(home.Addr(), method, "/gone.bin"); resp.Status != 404 {
			t.Errorf("%s of a removed large file = %d, want 404", method, resp.Status)
		}
	}
}

// TestFileShrunkBeforeSendfile: a file truncated between the server's
// fstat and its sendfile cannot fill the Content-Length already promised;
// the server closes that connection, stays up, and serves the next GET at
// the new size.
func TestFileShrunkBeforeSendfile(t *testing.T) {
	dir := newCountingDir(t)
	big := patterned(1<<20, 4)
	home := startTCP(t, dir, map[string][]byte{"/big.bin": big}, nil)
	client := httpx.NewClient(httpx.DialerFunc(memnet.TCP{}.Dial))

	dir.armed.Store(true)
	if resp, err := client.Get(home.Addr(), "/big.bin", nil); err == nil {
		t.Fatalf("GET of a file shrunk under the server = %d with %d bytes, want a cut-off response", resp.Status, len(resp.Body))
	}
	resp, err := client.Get(home.Addr(), "/big.bin", nil)
	if err != nil {
		t.Fatalf("next GET: %v", err)
	}
	if resp.Status != 200 || !bytes.Equal(resp.Body, big[:len(big)/2]) {
		t.Fatalf("next GET = %d, %d bytes, want the %d bytes left", resp.Status, len(resp.Body), len(big)/2)
	}
}

// openFDs counts the process's open file descriptors.
func openFDs(t *testing.T) int {
	t.Helper()
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd: %v", err)
	}
	return len(entries)
}

// TestFileBodiesLeakNoDescriptor: 200 requests for large documents — GETs,
// one in ten a HEAD, one in ten cut off by a client that resets the
// connection after the first byte — leave the process with the
// descriptors it had before. The collector is
// off meanwhile: an *os.File nobody closed is closed by its finalizer once
// collected, which would hide the leak.
func TestFileBodiesLeakNoDescriptor(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	home := startTCP(t, newCountingDir(t), map[string][]byte{
		"/big.bin":  patterned(128<<10, 5),
		"/huge.bin": patterned(16<<20, 6),
	}, nil)
	client := httpx.NewClient(httpx.DialerFunc(memnet.TCP{}.Dial))
	cutOff := func() {
		conn, err := net.Dial("tcp", home.Addr())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "GET /huge.bin HTTP/1.0\r\n\r\n")
		if _, err := io.ReadFull(conn, make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
		conn.(*net.TCPConn).SetLinger(0)
		conn.Close()
	}
	request := func(i int) {
		method := "GET"
		switch i % 10 {
		case 9:
			cutOff()
			return
		case 4:
			method = "HEAD"
		}
		if resp, err := client.Do(home.Addr(), httpx.NewRequest(method, "/big.bin")); err != nil || resp.Status != 200 {
			t.Fatalf("%s %d: %v", method, i, err)
		}
	}
	request(0)
	cutOff()
	settle := func(want int) int {
		deadline := time.Now().Add(10 * time.Second)
		for {
			n := openFDs(t)
			if n <= want || time.Now().After(deadline) {
				return n
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	time.Sleep(50 * time.Millisecond)
	base := openFDs(t)
	for i := 0; i < 200; i++ {
		request(i)
	}
	if n := settle(base); n > base {
		t.Fatalf("%d descriptors open after 200 requests, %d before", n, base)
	}
}

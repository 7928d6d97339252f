// Package store abstracts a DCWS server's local document storage — the
// "server's local disk" of the paper. Two implementations are provided: a
// memory-backed store used by tests, the simulator, and single-process
// clusters, and a directory-backed store for standalone dcwsd deployments.
package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// ErrNotFound is returned when a document does not exist in the store.
var ErrNotFound = errors.New("store: document not found")

// Store is the document storage interface. Document names are
// slash-separated absolute paths like "/dir1/foo.html".
type Store interface {
	// Get returns the contents of the named document.
	Get(name string) ([]byte, error)
	// Put creates or replaces the named document.
	Put(name string, data []byte) error
	// Delete removes the named document. Deleting a missing document is
	// not an error.
	Delete(name string) error
	// Has reports whether the named document exists.
	Has(name string) bool
	// List returns every document name in lexicographic order.
	List() ([]string, error)
	// Size returns the byte size of the named document.
	Size(name string) (int64, error)
}

// SharedGetter is implemented by stores that can return a document's
// bytes without a defensive copy. The returned slice is shared: callers
// MUST treat it as immutable. Mem satisfies the contract because Put
// installs a fresh copy rather than mutating the stored slice in place,
// so outstanding references never observe a change.
type SharedGetter interface {
	GetShared(name string) ([]byte, error)
}

// GetShared returns the named document's bytes without copying when st
// supports the zero-copy path, falling back to an ordinary Get — a
// private copy, which is what a Dir returns. The result must be treated
// as immutable.
func GetShared(st Store, name string) ([]byte, error) {
	if sg, ok := st.(SharedGetter); ok {
		return sg.GetShared(name)
	}
	return st.Get(name)
}

// FileOpener is implemented by stores whose documents are files, so that a
// large body can be sent straight from the page cache (sendfile(2))
// instead of through the process. OpenFile opens the named document for
// reading and returns it with its size, taken by fstat on the open
// descriptor; the caller closes the file. A missing document is
// ErrNotFound.
type FileOpener interface {
	OpenFile(name string) (*os.File, int64, error)
}

// LargeBody is the body size from which a server sends a document of a
// FileOpener store from its file rather than from bytes. Below it a copy
// costs less than opening, and such bodies stay in the server's caches.
const LargeBody = 64 << 10

// CleanName normalizes a document name to a rooted, slash-separated path
// with no dot segments. It returns an error for names that escape the root.
// Already-canonical names (the request hot path) are returned as-is
// without allocating.
func CleanName(name string) (string, error) {
	if name == "" {
		return "", fmt.Errorf("store: empty document name")
	}
	if isCanonicalName(name) {
		return name, nil
	}
	for _, seg := range strings.Split(name, "/") {
		if seg == ".." {
			return "", fmt.Errorf("store: name %q escapes root", name)
		}
	}
	if !strings.HasPrefix(name, "/") {
		name = "/" + name
	}
	return filepath.ToSlash(filepath.Clean(name)), nil
}

// isCanonicalName reports whether name is already rooted and canonical: it
// starts with '/', has no empty, "." or ".." segments, and no trailing
// slash. Such names pass CleanName unchanged.
func isCanonicalName(name string) bool {
	if name[0] != '/' || name[len(name)-1] == '/' {
		return false
	}
	start := 1
	for i := 1; i <= len(name); i++ {
		if i == len(name) || name[i] == '/' {
			seg := name[start:i]
			if seg == "" || seg == "." || seg == ".." {
				return false
			}
			start = i + 1
		}
	}
	return true
}

// Mem is an in-memory Store safe for concurrent use.
type Mem struct {
	mu   sync.RWMutex
	docs map[string][]byte
}

// NewMem returns an empty in-memory store.
func NewMem() *Mem {
	return &Mem{docs: make(map[string][]byte)}
}

// Get implements Store.
func (m *Mem) Get(name string) ([]byte, error) {
	name, err := CleanName(name)
	if err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.docs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	out := make([]byte, len(data))
	copy(out, data)
	return out, nil
}

// GetShared implements SharedGetter: it returns the stored slice itself.
// The contract holds because Put replaces the map entry with a fresh copy
// instead of writing into the old slice.
func (m *Mem) GetShared(name string) ([]byte, error) {
	name, err := CleanName(name)
	if err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.docs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return data, nil
}

// Put implements Store. The stored key is a copy of name, which may be a
// substring of a request head; a map assignment replaces the stored key
// even when it is already present, so every Put copies it.
func (m *Mem) Put(name string, data []byte) error {
	name, err := CleanName(name)
	if err != nil {
		return err
	}
	name = strings.Clone(name)
	cp := make([]byte, len(data))
	copy(cp, data)
	m.mu.Lock()
	m.docs[name] = cp
	m.mu.Unlock()
	return nil
}

// Delete implements Store.
func (m *Mem) Delete(name string) error {
	name, err := CleanName(name)
	if err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.docs, name)
	m.mu.Unlock()
	return nil
}

// Has implements Store.
func (m *Mem) Has(name string) bool {
	name, err := CleanName(name)
	if err != nil {
		return false
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	_, ok := m.docs[name]
	return ok
}

// List implements Store.
func (m *Mem) List() ([]string, error) {
	m.mu.RLock()
	names := make([]string, 0, len(m.docs))
	for n := range m.docs {
		names = append(names, n)
	}
	m.mu.RUnlock()
	sort.Strings(names)
	return names, nil
}

// Size implements Store.
func (m *Mem) Size(name string) (int64, error) {
	name, err := CleanName(name)
	if err != nil {
		return 0, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.docs[name]
	if !ok {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return int64(len(data)), nil
}

// Dir is a Store backed by a directory tree on the real filesystem. Get
// returns a private copy; a large body is served from its file through
// OpenFile. Writes are crash-atomic (see Put).
type Dir struct {
	root string
}

// NewDir returns a store rooted at dir, creating it if necessary.
func NewDir(dir string) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: create root: %w", err)
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return &Dir{root: abs}, nil
}

func (d *Dir) path(name string) (string, error) {
	name, err := CleanName(name)
	if err != nil {
		return "", err
	}
	// The ".tmp" suffix is reserved for in-flight Put temp files; torn
	// leftovers from a crash must not be addressable as documents.
	if strings.HasSuffix(name, ".tmp") {
		return "", fmt.Errorf("store: name %q uses reserved suffix .tmp", name)
	}
	return filepath.Join(d.root, filepath.FromSlash(name)), nil
}

// Get implements Store.
func (d *Dir) Get(name string) ([]byte, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	return data, err
}

// OpenFile implements FileOpener. The file is opened per call and never
// cached. Put replaces a document by rename, so an open file keeps the
// content it was opened with; only a writer outside the store can shrink
// it, and a sender must then fail rather than pad (see httpx.Response).
func (d *Dir) OpenFile(name string) (*os.File, int64, error) {
	p, err := d.path(name)
	if err != nil {
		return nil, 0, err
	}
	f, err := os.Open(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return nil, 0, err
	}
	info, err := f.Stat()
	if err == nil && !info.Mode().IsRegular() {
		err = fmt.Errorf("store: %s is not a regular file", name)
	}
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, info.Size(), nil
}

// Close releases nothing: a Dir holds no open files between calls.
func (d *Dir) Close() error { return nil }

// Put implements Store. The write is crash-atomic: data goes to a
// uniquely named temp file, is fsynced, renamed over the target, and the
// parent directory entry fsynced — a crash at any point leaves either the
// old document or the new one, never a torn body.
func (d *Dir) Put(name string, data []byte) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	parent := filepath.Dir(p)
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(parent, ".put-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(parent)
	return nil
}

// Delete implements Store.
func (d *Dir) Delete(name string) error {
	p, err := d.path(name)
	if err != nil {
		return err
	}
	err = os.Remove(p)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	return err
}

// syncDir best-effort fsyncs a directory so a just-renamed entry survives
// an OS crash. Platforms that cannot fsync directories report errors,
// which are ignored.
func syncDir(dir string) {
	f, err := os.Open(dir)
	if err != nil {
		return
	}
	f.Sync()
	f.Close()
}

// Has implements Store.
func (d *Dir) Has(name string) bool {
	p, err := d.path(name)
	if err != nil {
		return false
	}
	info, err := os.Stat(p)
	return err == nil && !info.IsDir()
}

// List implements Store.
func (d *Dir) List() ([]string, error) {
	var names []string
	err := filepath.WalkDir(d.root, func(p string, entry fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if entry.IsDir() || strings.HasSuffix(p, ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(d.root, p)
		if err != nil {
			return err
		}
		names = append(names, "/"+filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	return names, nil
}

// Size implements Store.
func (d *Dir) Size(name string) (int64, error) {
	p, err := d.path(name)
	if err != nil {
		return 0, err
	}
	info, err := os.Stat(p)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, fmt.Errorf("%w: %s", ErrNotFound, name)
	}
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

// Copy copies every document from src to dst.
func Copy(dst, src Store) error {
	names, err := src.List()
	if err != nil {
		return err
	}
	for _, n := range names {
		data, err := src.Get(n)
		if err != nil {
			return err
		}
		if err := dst.Put(n, data); err != nil {
			return err
		}
	}
	return nil
}

// TotalBytes sums the sizes of all documents in s.
func TotalBytes(s Store) (int64, error) {
	names, err := s.List()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range names {
		sz, err := s.Size(n)
		if err != nil {
			return 0, err
		}
		total += sz
	}
	return total, nil
}

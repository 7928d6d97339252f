// Package httpx is DCWS's own HTTP/1.x implementation. The paper's design
// depends on two properties that motivated a from-scratch stack rather than
// a stock server: (1) arbitrary extension headers must ride on every request
// and response so servers can piggyback global-load-table entries (§3.3),
// and (2) the server front-end must expose a bounded socket queue whose
// overflow is answered with a graceful 503 (§5.2). The wire format follows
// HTTP/1.0 with optional keep-alive, which matches the protocol generation
// the paper targeted.
package httpx

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"strings"
	"time"
)

// Header is a case-insensitive header map. Keys are stored canonicalized
// (Word-Word). Extension headers (the paper's piggybacking channel) are
// ordinary entries; per RFC guidance they are ignored by implementations
// that do not understand them.
type Header map[string][]string

// CanonicalKey converts a header name to its canonical form: the first
// letter and every letter after '-' upper-cased, the rest lower-cased.
// Already-canonical names — every header constant in this codebase, and
// every key of a parsed message — are returned unchanged without
// allocating; this sits on the per-request hot path of every Get/Set/Add.
func CanonicalKey(k string) string {
	upper := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (upper && 'a' <= c && c <= 'z') || (!upper && 'A' <= c && c <= 'Z') {
			return canonicalizeKey(k)
		}
		upper = c == '-'
	}
	return k
}

// canonicalKnown interns the canonical forms of the extension headers the
// system puts on nearly every message under their conventional all-caps
// spelling, so the header constants used throughout the code resolve
// without allocating. Populated once at init; read-only afterwards.
var canonicalKnown = map[string]string{}

func init() {
	for _, k := range []string{
		"X-DCWS-Acked", "X-DCWS-Chain", "X-DCWS-Doc", "X-DCWS-Fetch",
		"X-DCWS-Hedge", "X-DCWS-Hot", "X-DCWS-Load", "X-DCWS-Parent",
		"X-DCWS-Replicas", "X-DCWS-Trace", "X-DCWS-Validate",
	} {
		canonicalKnown[k] = canonicalizeKey(k)
	}
}

// canonicalizeKey is the allocating slow path of CanonicalKey.
func canonicalizeKey(k string) string {
	if v, ok := canonicalKnown[k]; ok {
		return v
	}
	var b strings.Builder
	b.Grow(len(k))
	upper := true
	for i := 0; i < len(k); i++ {
		c := k[i]
		switch {
		case upper && 'a' <= c && c <= 'z':
			c -= 'a' - 'A'
		case !upper && 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		}
		b.WriteByte(c)
		upper = c == '-'
	}
	return b.String()
}

// Set replaces the value of a header field. Re-setting a field to the
// value it already has leaves the map untouched, so the repeated Sets on
// reused requests (Host, Connection) cost no allocation.
func (h Header) Set(key, value string) {
	k := CanonicalKey(key)
	if v := h[k]; len(v) == 1 && v[0] == value {
		return
	}
	h[k] = []string{value}
}

// Add appends a value to a header field.
func (h Header) Add(key, value string) {
	k := CanonicalKey(key)
	h[k] = append(h[k], value)
}

// Get returns the first value of a header field, or "".
func (h Header) Get(key string) string {
	v := h[CanonicalKey(key)]
	if len(v) == 0 {
		return ""
	}
	return v[0]
}

// Values returns all values of a header field.
func (h Header) Values(key string) []string {
	return h[CanonicalKey(key)]
}

// Del removes a header field.
func (h Header) Del(key string) {
	delete(h, CanonicalKey(key))
}

// Clone returns a deep copy.
func (h Header) Clone() Header {
	out := make(Header, len(h))
	for k, v := range h {
		vv := make([]string, len(v))
		copy(vv, v)
		out[k] = vv
	}
	return out
}

// Request is an HTTP request.
type Request struct {
	Method string // GET, HEAD, POST
	Path   string // absolute path, e.g. /dir/foo.html
	Proto  string // "HTTP/1.0" or "HTTP/1.1"
	Header Header
	Body   []byte
	// RemoteAddr is filled in by the server for handler use. It stays a
	// net.Addr so that only whoever needs the text pays to format it.
	RemoteAddr net.Addr
	// Start is the server's clock reading taken when the request got its
	// worker slot, before it was parsed: handlers time themselves and
	// count the request from it instead of reading the clock again. It is
	// zero on a request that did not come through a Server.
	Start time.Time
}

// NewRequest returns a GET request for path with an empty header map.
func NewRequest(method, path string) *Request {
	return &Request{Method: method, Path: path, Proto: "HTTP/1.0", Header: make(Header)}
}

// SplitQuery splits a request target into its path and raw query string
// (without the '?'). The wire layer deliberately keeps Path verbatim —
// document names never contain queries — so control endpoints that accept
// parameters (/~dcws/trace?id=...) split on demand.
func SplitQuery(target string) (path, query string) {
	if i := strings.IndexByte(target, '?'); i >= 0 {
		return target[:i], target[i+1:]
	}
	return target, ""
}

// QueryParam extracts one key's value from a raw query string produced by
// SplitQuery. It handles the simple k=v&k2=v2 shape the control endpoints
// use; no percent-decoding (trace and span IDs are plain hex).
func QueryParam(query, key string) string {
	for query != "" {
		pair := query
		if i := strings.IndexByte(query, '&'); i >= 0 {
			pair, query = query[:i], query[i+1:]
		} else {
			query = ""
		}
		if k, v, ok := strings.Cut(pair, "="); ok && k == key {
			return v
		}
	}
	return ""
}

// Response is an HTTP response.
type Response struct {
	Status int // e.g. 200
	Proto  string
	Header Header
	Body   []byte

	// File, when non-nil, is the body in place of Body: the first FileSize
	// bytes of the file, which also give Content-Length. A connection that
	// can send a file (a TCP connection of memnet.TCP on Linux) sends it
	// with sendfile(2); any other writer gets it read once into memory. A
	// file that turns out shorter than FileSize fails the write, it is
	// never padded. The server closes File once the response is written
	// or the write has failed.
	File     *os.File
	FileSize int64

	// Hijack, when non-nil, transfers ownership of the connection to the
	// handler after this response is written — the upgrade path for
	// long-lived framed channels (a 101 handshake followed by WriteFrame/
	// ReadFrame traffic). The server stops serving HTTP on the connection,
	// does not return its buffered reader to the pool, and never closes
	// it; the hijacker is responsible for both from then on. The reader is
	// passed along because it may hold bytes read ahead of the request.
	Hijack func(conn net.Conn, br *bufio.Reader)
}

// NewResponse returns a response with the given status and an empty header
// map.
func NewResponse(status int) *Response {
	return &Response{Status: status, Proto: "HTTP/1.0", Header: make(Header)}
}

// bodySize is the length of the response's body, from File or Body.
func (r *Response) bodySize() int64 {
	if r.File != nil {
		return r.FileSize
	}
	return int64(len(r.Body))
}

// StatusText returns the reason phrase for the status codes DCWS uses.
func StatusText(code int) string {
	switch code {
	case 101:
		return "Switching Protocols"
	case 200:
		return "OK"
	case 301:
		return "Moved Permanently"
	case 302:
		return "Found"
	case 304:
		return "Not Modified"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Status " + fmt.Sprint(code)
	}
}

// ContentTypeFor guesses a Content-Type from a path's extension, covering
// the file types in the paper's four data sets (HTML, GIF buttons, JPEG
// graphs and thumbnails, compressed AVHRR raster images).
func ContentTypeFor(path string) string {
	dot := strings.LastIndexByte(path, '.')
	if dot < 0 {
		return "application/octet-stream"
	}
	switch strings.ToLower(path[dot+1:]) {
	case "html", "htm":
		return "text/html"
	case "txt":
		return "text/plain"
	case "gif":
		return "image/gif"
	case "jpg", "jpeg":
		return "image/jpeg"
	case "png":
		return "image/png"
	case "z", "gz":
		return "application/x-compressed"
	default:
		return "application/octet-stream"
	}
}

package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
)

// wireBuf is the scratch one outbound message is serialized with: the
// head bytes, and the two-element vector {head, body} handed to the
// connection as a single vectored write. Keeping the vector inside the
// pooled object means building it allocates nothing per message.
type wireBuf struct {
	head []byte
	vec  [2][]byte
	bufs net.Buffers
}

// wireBufPool recycles wireBufs; every request and response on every
// connection goes through one. Bodies are never copied into them, so a
// pooled buffer only ever holds a message head.
var wireBufPool = sync.Pool{New: func() any { return new(wireBuf) }}

// maxPooledHead is the largest head buffer returned to wireBufPool. A
// full-table GLT header or a 256-field request may grow one well past a
// typical head; dropping those keeps one outlier from pinning its buffer
// in every P's pool.
const maxPooledHead = 64 << 10

// putWireBuf returns wb — with whatever growth serializing the head caused
// — to the pool, unless that growth went past maxPooledHead.
func putWireBuf(wb *wireBuf) {
	if cap(wb.head) <= maxPooledHead {
		wireBufPool.Put(wb)
	}
}

// buffersWriter is implemented by connections that take a vectored write
// under a name of their own: the server's byte-counting wrapper, which
// forwards it to the connection it wraps; memnet.Conn; and the TCP
// connections memnet.TCP hands out, which issue the writev themselves. A
// bare *net.TCPConn needs no such method — net.Buffers.WriteTo reaches
// writev on it directly — but a wrapper that merely embeds net.Conn hides
// either fast path unless it forwards it.
type buffersWriter interface {
	WriteBuffers(v *net.Buffers) (int64, error)
}

// writeBuffers hands v to w as one vectored write if w can take one, and
// otherwise writes its buffers in order.
func writeBuffers(w io.Writer, v *net.Buffers) (int64, error) {
	if bw, ok := w.(buffersWriter); ok {
		return bw.WriteBuffers(v)
	}
	return v.WriteTo(w)
}

// fileSender is implemented by connections that take a message head and a
// file body together: the TCP connections memnet.TCP hands out on Linux,
// which send the file with sendfile(2), and the server's byte-counting
// wrapper, which forwards the call. SendFile returns the bytes sent, head
// included, and fails if f holds fewer than n bytes.
type fileSender interface {
	SendFile(head []byte, f *os.File, n int64) (int64, error)
}

// sendFile sends head and the first n bytes of f to w as one message: in
// one SendFile call if w takes one, and otherwise as head plus the body
// read once with ReadAt, through writeMessage — one message on memnet, so
// injected latency is charged once, as for a byte body.
func sendFile(w io.Writer, head []byte, f *os.File, n int64) (int64, error) {
	if fs, ok := w.(fileSender); ok {
		return fs.SendFile(head, f, n)
	}
	body := make([]byte, n)
	if _, err := f.ReadAt(body, 0); err != nil {
		return 0, fmt.Errorf("httpx: read body file: %w", err)
	}
	wb := wireBuf{head: head}
	return wb.writeMessage(w, body)
}

// readerPool recycles the bufio.Readers that parse inbound messages
// (server connections and client responses).
var readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4096) }}

// getReader leases a pooled reader bound to r.
func getReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// putReader returns a leased reader to the pool, detaching its source so
// the pool does not pin connections.
func putReader(br *bufio.Reader) {
	br.Reset(nil)
	readerPool.Put(br)
}

// Wire-format limits. Oversized messages are rejected rather than buffered
// without bound.
const (
	maxLineBytes   = 16 * 1024
	maxHeaderCount = 256
	// MaxBodyBytes bounds request/response bodies. The largest object in
	// the paper's data sets is a 2.8 MB Sequoia raster image; 64 MB leaves
	// ample headroom.
	MaxBodyBytes = 64 << 20
)

// ErrLineTooLong is returned when a start line or header line exceeds the
// wire limit.
var ErrLineTooLong = errors.New("httpx: header line too long")

// ErrMalformed is returned for requests or responses that do not parse.
var ErrMalformed = errors.New("httpx: malformed message")

// readLine reads a CRLF- (or bare-LF-) terminated line without the ending.
func readLine(r *bufio.Reader) (string, error) {
	line, err := r.ReadString('\n')
	if err != nil {
		if err == io.EOF && line != "" {
			return "", fmt.Errorf("%w: truncated line", ErrMalformed)
		}
		return "", err
	}
	if len(line) > maxLineBytes {
		return "", ErrLineTooLong
	}
	line = strings.TrimSuffix(line, "\n")
	line = strings.TrimSuffix(line, "\r")
	return line, nil
}

// addField parses one "Key: value" header line into h. The value slices
// of single-value fields — the overwhelming majority — are carved out of
// one shared backing array instead of allocated one by one; full-capacity
// slicing makes a later Add on such a field copy rather than clobber a
// neighbor.
func addField(h Header, backing *[]string, line string) error {
	colon := strings.IndexByte(line, ':')
	if colon <= 0 {
		return fmt.Errorf("%w: header line %q", ErrMalformed, line)
	}
	key := CanonicalKey(strings.TrimSpace(line[:colon]))
	val := strings.TrimSpace(line[colon+1:])
	if key == "" {
		return fmt.Errorf("%w: empty header name", ErrMalformed)
	}
	if len(h[key]) == 0 {
		b := *backing
		if b == nil {
			b = make([]string, 0, 8)
		}
		if len(b) < cap(b) {
			b = append(b, val)
			h[key] = b[len(b)-1 : len(b) : len(b)]
			*backing = b
			return nil
		}
	}
	h[key] = append(h[key], val)
	return nil
}

// readHeader reads header lines up to the blank separator line, one line at
// a time. This is the streaming fallback for heads that overflow the peek
// window; typical messages go through peekHead instead.
func readHeader(r *bufio.Reader) (Header, error) {
	h := make(Header, 8)
	var backing []string
	fields := 0
	for {
		line, err := readLine(r)
		if err != nil {
			return nil, err
		}
		if line == "" {
			return h, nil
		}
		fields++
		if fields > maxHeaderCount {
			return nil, fmt.Errorf("%w: too many header fields", ErrMalformed)
		}
		if err := addField(h, &backing, line); err != nil {
			return nil, err
		}
	}
}

// findHeadEnd locates the blank line terminating a message head in buf.
// It returns the length of the head content (start line + header lines,
// including the newline ending the last one) and the total length through
// the terminator, or (-1, 0) if no terminator is present yet.
func findHeadEnd(buf []byte) (content, total int) {
	if len(buf) > 0 && buf[0] == '\n' {
		return 0, 1
	}
	if len(buf) > 1 && buf[0] == '\r' && buf[1] == '\n' {
		return 0, 2
	}
	for i := 0; ; {
		j := bytes.IndexByte(buf[i:], '\n')
		if j < 0 {
			return -1, 0
		}
		i += j + 1
		if i < len(buf) && buf[i] == '\n' {
			return i, i + 1
		}
		if i+1 < len(buf) && buf[i] == '\r' && buf[i+1] == '\n' {
			return i, i + 2
		}
	}
}

// peekHead tries to slurp an entire message head — start line, header
// lines, blank terminator — out of the reader in one step, so the whole
// head costs a single string allocation and every header value is a
// substring of it. It blocks only for bytes a complete head must still
// contain: one byte at a time past what is buffered, exactly as a
// line-by-line reader would. Heads that overflow the 4 KB read buffer
// report !ok with nothing consumed and fall back to streaming readLine /
// readHeader, which enforce the larger wire limits.
func peekHead(r *bufio.Reader) (head string, ok bool) {
	want := 1
	for {
		buf, err := r.Peek(want)
		if avail := r.Buffered(); avail > len(buf) {
			buf, _ = r.Peek(avail)
		}
		if content, total := findHeadEnd(buf); content >= 0 {
			head = string(buf[:content])
			r.Discard(total)
			return head, true
		}
		if err != nil || len(buf) >= r.Size() {
			return "", false
		}
		want = len(buf) + 1
	}
}

// cutLine splits off the first line of a head string, trimming the line
// ending. Both halves are substrings — no allocation.
func cutLine(s string) (line, rest string) {
	i := strings.IndexByte(s, '\n')
	if i < 0 {
		return strings.TrimSuffix(s, "\r"), ""
	}
	line = s[:i]
	if strings.HasSuffix(line, "\r") {
		line = line[:len(line)-1]
	}
	return line, s[i+1:]
}

// parseHeaderBlock parses the header lines of a peeked head string.
func parseHeaderBlock(s string) (Header, error) {
	h := make(Header, 8)
	var backing []string
	fields := 0
	for len(s) > 0 {
		var line string
		line, s = cutLine(s)
		if line == "" {
			continue
		}
		fields++
		if fields > maxHeaderCount {
			return nil, fmt.Errorf("%w: too many header fields", ErrMalformed)
		}
		if err := addField(h, &backing, line); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// readMessageHead reads one message head and returns its start line and
// parsed header map, preferring the single-allocation peek path.
func readMessageHead(r *bufio.Reader) (string, Header, error) {
	if head, ok := peekHead(r); ok {
		line, rest := cutLine(head)
		h, err := parseHeaderBlock(rest)
		return line, h, err
	}
	line, err := readLine(r)
	if err != nil {
		return "", nil, err
	}
	h, err := readHeader(r)
	if err != nil {
		return "", nil, err
	}
	return line, h, nil
}

// readBody reads a message body delimited by Content-Length, or (for
// responses with no length, HTTP/1.0 style) until EOF.
func readBody(r *bufio.Reader, h Header, toEOF bool) ([]byte, error) {
	if cl := h.Get("Content-Length"); cl != "" {
		n, err := strconv.ParseInt(cl, 10, 64)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%w: bad Content-Length %q", ErrMalformed, cl)
		}
		if n > MaxBodyBytes {
			return nil, fmt.Errorf("%w: body of %d bytes exceeds limit", ErrMalformed, n)
		}
		body := make([]byte, n)
		if _, err := io.ReadFull(r, body); err != nil {
			return nil, fmt.Errorf("%w: short body: %v", ErrMalformed, err)
		}
		return body, nil
	}
	if !toEOF {
		return nil, nil
	}
	body, err := io.ReadAll(io.LimitReader(r, MaxBodyBytes+1))
	if err != nil {
		return nil, err
	}
	if len(body) > MaxBodyBytes {
		return nil, fmt.Errorf("%w: body exceeds limit", ErrMalformed)
	}
	return body, nil
}

// ReadRequest parses one request from r.
func ReadRequest(r *bufio.Reader) (*Request, error) {
	line, h, err := readMessageHead(r)
	if err != nil {
		return nil, err
	}
	sp1 := strings.IndexByte(line, ' ')
	sp2 := -1
	if sp1 >= 0 {
		sp2 = strings.IndexByte(line[sp1+1:], ' ')
	}
	if sp1 < 0 || sp2 < 0 {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	sp2 += sp1 + 1
	method, path, proto := line[:sp1], line[sp1+1:sp2], line[sp2+1:]
	if method == "" || path == "" || path[0] != '/' || strings.IndexByte(proto, ' ') >= 0 {
		return nil, fmt.Errorf("%w: request line %q", ErrMalformed, line)
	}
	if proto != "HTTP/1.0" && proto != "HTTP/1.1" {
		return nil, fmt.Errorf("%w: unsupported protocol %q", ErrMalformed, proto)
	}
	body, err := readBody(r, h, false)
	if err != nil {
		return nil, err
	}
	return &Request{Method: method, Path: path, Proto: proto, Header: h, Body: body}, nil
}

// WriteRequest serializes req to w. A Content-Length header is emitted
// whenever a body is present.
func WriteRequest(w io.Writer, req *Request) error {
	proto := req.Proto
	if proto == "" {
		proto = "HTTP/1.0"
	}
	wb := wireBufPool.Get().(*wireBuf)
	buf := wb.head[:0]
	buf = append(buf, req.Method...)
	buf = append(buf, ' ')
	buf = append(buf, req.Path...)
	buf = append(buf, ' ')
	buf = append(buf, proto...)
	buf = append(buf, '\r', '\n')
	wb.head = appendHeader(buf, req.Header, int64(len(req.Body)))
	_, err := wb.writeMessage(w, req.Body)
	putWireBuf(wb)
	return err
}

// ReadResponse parses one response from r, assuming it answers a GET.
func ReadResponse(r *bufio.Reader) (*Response, error) {
	return ReadResponseFor(r, "GET")
}

// ReadResponseFor parses one response from r for a request of the given
// method. Responses to HEAD carry headers (including Content-Length) but no
// body.
func ReadResponseFor(r *bufio.Reader, method string) (*Response, error) {
	line, h, err := readMessageHead(r)
	if err != nil {
		return nil, err
	}
	sp1 := strings.IndexByte(line, ' ')
	if sp1 < 0 || !strings.HasPrefix(line[:sp1], "HTTP/1.") {
		return nil, fmt.Errorf("%w: status line %q", ErrMalformed, line)
	}
	proto, rest := line[:sp1], line[sp1+1:]
	codeStr := rest
	if sp2 := strings.IndexByte(rest, ' '); sp2 >= 0 {
		codeStr = rest[:sp2]
	}
	status, aerr := strconv.Atoi(codeStr)
	if aerr != nil || status < 100 || status > 599 {
		return nil, fmt.Errorf("%w: status %q", ErrMalformed, codeStr)
	}
	if method == "HEAD" || status == 304 || status == 204 {
		return &Response{Status: status, Proto: proto, Header: h}, nil
	}
	toEOF := h.Get("Content-Length") == ""
	body, err := readBody(r, h, toEOF)
	if err != nil {
		return nil, err
	}
	return &Response{Status: status, Proto: proto, Header: h, Body: body}, nil
}

// WriteResponse serializes resp to w, always emitting Content-Length so
// connections can be kept alive. A File body is sent from its file (see
// Response.File); WriteResponse does not close it.
func WriteResponse(w io.Writer, resp *Response) error {
	proto := resp.Proto
	if proto == "" {
		proto = "HTTP/1.0"
	}
	wb := wireBufPool.Get().(*wireBuf)
	buf := wb.head[:0]
	buf = append(buf, proto...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(resp.Status), 10)
	buf = append(buf, ' ')
	buf = append(buf, StatusText(resp.Status)...)
	buf = append(buf, '\r', '\n')
	wb.head = appendHeader(buf, resp.Header, resp.bodySize())
	var err error
	if resp.File != nil {
		_, err = sendFile(w, wb.head, resp.File, resp.FileSize)
	} else {
		_, err = wb.writeMessage(w, resp.Body)
	}
	putWireBuf(wb)
	return err
}

// appendHeader serializes the header fields plus a synthesized
// Content-Length (when absent) and the blank separator line. Keys are
// ordered deterministically; typical header maps fit the stack-resident
// key array, so serialization allocates nothing beyond the message buffer.
func appendHeader(buf []byte, h Header, bodyLen int64) []byte {
	var arr [16]string
	var keys []string
	if len(h) <= len(arr) {
		keys = arr[:0]
	} else {
		keys = make([]string, 0, len(h))
	}
	for k := range h {
		keys = append(keys, k)
	}
	// Insertion sort: header maps are tiny and sort.Strings would force
	// the key array to escape to the heap.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	wroteCL := false
	for _, k := range keys {
		if k == "Content-Length" {
			wroteCL = true
		}
		for _, v := range h[k] {
			buf = append(buf, k...)
			buf = append(buf, ':', ' ')
			buf = append(buf, v...)
			buf = append(buf, '\r', '\n')
		}
	}
	if !wroteCL {
		buf = append(buf, "Content-Length: "...)
		buf = strconv.AppendInt(buf, bodyLen, 10)
		buf = append(buf, '\r', '\n')
	}
	return append(buf, '\r', '\n')
}

// writeMessage sends the serialized head and the body. The body is never
// copied: head and body leave as one vectored write — a single writev on
// TCP, directly or through a wrapper that forwards it — and writers that
// cannot take a vector get head, then body, straight from the caller's
// (possibly cached and shared) slice. Partial writes are continued and
// write deadlines honored by the connection underneath, exactly as for a
// plain Write. It returns the bytes written.
func (wb *wireBuf) writeMessage(w io.Writer, body []byte) (int64, error) {
	if len(body) == 0 {
		n, err := w.Write(wb.head)
		return int64(n), err
	}
	wb.vec[0], wb.vec[1] = wb.head, body
	wb.bufs = wb.vec[:]
	n, err := writeBuffers(w, &wb.bufs)
	// Drop whatever the write did not consume, so the pool never pins a
	// document body.
	wb.vec = [2][]byte{}
	wb.bufs = nil
	return n, err
}

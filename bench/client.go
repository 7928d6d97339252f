package main

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strconv"
	"syscall"
	"time"
)

// castagnoli is the body checksum. The issue asked for FNV-64a; CRC-32C
// runs at memory speed on amd64, so checking every byte of a 0.9 MB body
// costs the generator — which shares two cores with the servers — a few
// tens of microseconds instead of a millisecond.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// stampMark precedes the version stamp the update workload writes into a
// document's text: "dcwsbench-v=" and stampDigits decimal digits.
const (
	stampMark   = "dcwsbench-v="
	stampDigits = 8
)

// expect is what a correct response to one URL looks like, recorded during
// the verified warm-up. Placement is frozen afterwards, so regenerated
// bytes are deterministic and a fixed checksum is a complete check.
type expect struct {
	length int
	crc    uint32
	// stampAt is the offset of the version digits in a document of the
	// update pool, or -1. The checksum of such a document is taken with
	// the digits zeroed, so it holds for every version.
	stampAt int
}

// socket is a TCP socket used through read(2) and write(2) directly, not
// through Go's netpoller: a net.Conn parks the goroutine, so that a reply
// wakes the poller's thread, which wakes the goroutine's thread — two
// wake-ups, each tens of microseconds on a virtual CPU, charged to the
// servers' latency. Set-up and scrapes use it blocking; the generator makes
// it non-blocking and polls it.
type socket struct {
	fd int
}

// ioTimeout bounds every exchange, so that a dead server fails a request
// and does not hang the run.
const ioTimeout = 10 * time.Second

func dialSocket(addr string) (*socket, error) {
	ta, err := net.ResolveTCPAddr("tcp4", addr)
	if err != nil {
		return nil, err
	}
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		return nil, err
	}
	sa := &syscall.SockaddrInet4{Port: ta.Port}
	copy(sa.Addr[:], ta.IP.To4())
	tv := syscall.NsecToTimeval(int64(ioTimeout))
	for _, err := range []error{
		syscall.SetsockoptInt(fd, syscall.IPPROTO_TCP, syscall.TCP_NODELAY, 1),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_RCVTIMEO, &tv),
		syscall.SetsockoptTimeval(fd, syscall.SOL_SOCKET, syscall.SO_SNDTIMEO, &tv),
		syscall.Connect(fd, sa),
	} {
		if err != nil {
			syscall.Close(fd)
			return nil, fmt.Errorf("connect %s: %w", addr, err)
		}
	}
	return &socket{fd: fd}, nil
}

// errWouldBlock is what read and write return on a non-blocking socket that
// has nothing to give or no room to take; on a blocking one it means the
// socket's timeout ran out.
var errWouldBlock = errors.New("socket not ready")

func (s *socket) read(p []byte) (int, error) {
	for {
		n, err := syscall.Read(s.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, errWouldBlock
		case err != nil:
			return 0, err
		case n == 0:
			return 0, io.EOF
		}
		return n, nil
	}
}

func (s *socket) write(p []byte) (int, error) {
	for {
		n, err := syscall.Write(s.fd, p)
		switch {
		case err == syscall.EINTR:
			continue
		case err == syscall.EAGAIN:
			return 0, errWouldBlock
		case err != nil:
			return 0, err
		}
		return n, nil
	}
}

func (s *socket) close() { syscall.Close(s.fd) }

// conn is one keep-alive HTTP/1.1 connection: no pipelining, one request
// outstanding, its reply received into rx.
type conn struct {
	sock *socket
	rx   receiver
}

func dial(addr string) (*conn, error) {
	s, err := dialSocket(addr)
	if err != nil {
		return nil, err
	}
	return &conn{sock: s}, nil
}

func (c *conn) close() { c.sock.close() }

// response is one parsed reply. body aliases the connection's buffer and is
// valid until the next exchange.
type response struct {
	status   int
	location string
	body     []byte
	// firstByte is when the first bytes of the reply arrived.
	firstByte time.Time
}

var errProtocol = errors.New("malformed response")

// receiver assembles one reply from however many reads it arrives in.
type receiver struct {
	buf  []byte
	n    int // bytes received so far
	head int // length of the head, blank line included; 0 until it is complete
	need int // length of the whole reply, known once the head is
	resp response
}

func (r *receiver) reset() { r.n, r.head, r.need, r.resp = 0, 0, 0, response{} }

// space returns where the next read should go: up to the end of the reply
// once that is known, so that what follows it is never consumed.
func (r *receiver) space() []byte {
	if r.head > 0 {
		return r.buf[r.n:r.need]
	}
	if len(r.buf)-r.n < 4<<10 {
		r.buf = append(r.buf[:r.n], make([]byte, 64<<10)...)
	}
	return r.buf[r.n:]
}

// advance accounts for k more bytes read at now and reports whether the
// reply is complete.
func (r *receiver) advance(k int, now time.Time) (bool, error) {
	if r.n == 0 {
		r.resp.firstByte = now
	}
	from := r.n - 3 // the blank line may straddle two reads
	if from < 0 {
		from = 0
	}
	r.n += k
	if r.head == 0 {
		i := bytes.Index(r.buf[from:r.n], []byte("\r\n\r\n"))
		if i < 0 {
			return false, nil
		}
		r.head = from + i + 4
		length, err := r.parseHead(r.buf[:r.head])
		if err != nil {
			return false, err
		}
		if r.need = r.head + length; r.need > len(r.buf) {
			r.buf = append(r.buf[:r.n], make([]byte, r.need-r.n)...)
		}
	}
	switch {
	case r.n > r.need:
		return false, fmt.Errorf("%w: %d bytes after the body", errProtocol, r.n-r.need)
	case r.n < r.need:
		return false, nil
	}
	r.resp.body = r.buf[r.head:r.need]
	return true, nil
}

// parseHead reads the status, Content-Length and Location of a reply's head.
func (r *receiver) parseHead(head []byte) (length int, err error) {
	// "HTTP/1.x NNN ..."
	if len(head) < 12 {
		return 0, errProtocol
	}
	if r.resp.status, err = strconv.Atoi(string(head[9:12])); err != nil {
		return 0, errProtocol
	}
	length = -1
	for _, line := range bytes.Split(head, []byte("\r\n"))[1:] {
		if v, ok := headerValue(line, "Content-Length"); ok {
			if length, err = strconv.Atoi(string(v)); err != nil || length < 0 {
				return 0, errProtocol
			}
		} else if v, ok := headerValue(line, "Location"); ok {
			r.resp.location = string(v)
		}
	}
	if length < 0 {
		return 0, fmt.Errorf("%w: no Content-Length", errProtocol)
	}
	return length, nil
}

// roundTrip writes one request and reads the reply, on a blocking socket.
func (c *conn) roundTrip(req []byte) (response, error) {
	for len(req) > 0 {
		n, err := c.sock.write(req)
		if err != nil {
			return response{}, err
		}
		req = req[n:]
	}
	c.rx.reset()
	for {
		k, err := c.sock.read(c.rx.space())
		if err != nil {
			return response{}, err
		}
		if done, err := c.rx.advance(k, time.Now()); err != nil || done {
			return c.rx.resp, err
		}
	}
}

// headerValue returns the value of a header line whose name is key,
// compared ASCII-case-insensitively.
func headerValue(line []byte, key string) ([]byte, bool) {
	if len(line) <= len(key) || line[len(key)] != ':' || !bytes.EqualFold(line[:len(key)], []byte(key)) {
		return nil, false
	}
	return bytes.TrimSpace(line[len(key)+1:]), true
}

func getRequest(host, path string) []byte {
	return []byte("GET " + path + " HTTP/1.1\r\nHost: " + host + "\r\n\r\n")
}

func postRequest(host, path string, header map[string]string, body []byte) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "POST %s HTTP/1.1\r\nHost: %s\r\n", path, host)
	for k, v := range header {
		fmt.Fprintf(&b, "%s: %s\r\n", k, v)
	}
	fmt.Fprintf(&b, "Content-Length: %d\r\n\r\n", len(body))
	b.Write(body)
	return b.Bytes()
}

// learn records what a body looks like, for later checks.
func learn(body []byte) expect {
	e := expect{length: len(body), stampAt: -1}
	if i := bytes.Index(body, []byte(stampMark)); i >= 0 && i+len(stampMark)+stampDigits <= len(body) {
		e.stampAt = i + len(stampMark)
	}
	e.crc = e.checksum(body)
	return e
}

var zeroDigits = bytes.Repeat([]byte{'0'}, stampDigits)

// checksum is the CRC-32C of body, with the version digits read as zeros.
func (e expect) checksum(body []byte) uint32 {
	if e.stampAt < 0 {
		return crc32.Checksum(body, castagnoli)
	}
	sum := crc32.Update(0, castagnoli, body[:e.stampAt])
	sum = crc32.Update(sum, castagnoli, zeroDigits)
	return crc32.Update(sum, castagnoli, body[e.stampAt+stampDigits:])
}

// check reports whether body is the expected document, and the version it
// carries (0 for a document outside the update pool).
func (e expect) check(body []byte) (version int, ok bool) {
	if len(body) != e.length || e.checksum(body) != e.crc {
		return 0, false
	}
	if e.stampAt < 0 {
		return 0, true
	}
	version, err := strconv.Atoi(string(body[e.stampAt : e.stampAt+stampDigits]))
	return version, err == nil
}

// stamp writes version into a copy of template at offset at.
func stamp(dst, template []byte, at, version int) []byte {
	dst = append(dst[:0], template...)
	copy(dst[at:at+stampDigits], fmt.Sprintf("%0*d", stampDigits, version))
	return dst
}

package httpx

import (
	"errors"
	"log"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Handler processes one request and returns the response to send. Handlers
// must be safe for concurrent use: up to Workers of them run at once.
type Handler interface {
	Serve(req *Request) *Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req *Request) *Response

// Serve implements Handler.
func (f HandlerFunc) Serve(req *Request) *Response { return f(req) }

// Observer receives server life-cycle events for telemetry. Methods must
// be safe for concurrent use and fast: they run on the accept loop and the
// request hot path. A nil Observer disables observation entirely.
type Observer interface {
	// ConnQueued fires when an accepted connection is admitted to the
	// socket queue.
	ConnQueued()
	// ConnDropped fires when a connection is answered 503 because the
	// socket queue was full.
	ConnDropped()
	// QueueWait reports how long a ready request sat in the socket queue
	// before it took a worker slot: since admission for a connection's
	// first request, since its first byte arrived for a kept-alive one.
	QueueWait(d time.Duration)
	// Request reports one completed exchange: the response status, the
	// bytes read from and written to the connection while serving it, and
	// the latency from the request taking its worker slot (before it is
	// parsed) to its response written.
	Request(status int, bytesIn, bytesOut int64, d time.Duration)
}

// ServerConfig mirrors the thread and queue parameters of the paper's
// Table 1.
type ServerConfig struct {
	// Workers is the number of worker slots (N_wk, default 12): at most
	// this many requests are read, handled and written at once.
	Workers int
	// QueueLength is the socket queue capacity (L_sq, default 100): while
	// this many ready requests wait for a worker slot, new connections
	// are dropped gracefully with a 503 response.
	QueueLength int
	// ReadTimeout bounds how long a connection may take to deliver each
	// request, idle time before it included, and to take each response:
	// an idle kept-alive connection is closed after between 7/8 of it and
	// all of it (default 30s).
	ReadTimeout time.Duration
	// KeepAlive allows multiple requests per connection when the client
	// asks for it.
	KeepAlive bool
	// ErrorLog receives accept and protocol errors; nil discards them.
	ErrorLog *log.Logger
	// AccessLog receives one line per completed exchange (remote, method,
	// path, status, response bytes, latency, trace ID); nil disables it.
	AccessLog *log.Logger
	// TraceHeader names the response header whose value is logged as the
	// trace ID in access-log lines, joining them against the trace ring.
	// Empty logs "-". (A header name, not an import of the tracing layer:
	// httpx stays below it.)
	TraceHeader string
	// Observer receives queueing and request telemetry; nil disables it.
	Observer Observer
}

func (c ServerConfig) withDefaults() ServerConfig {
	if c.Workers <= 0 {
		c.Workers = 12
	}
	if c.QueueLength <= 0 {
		c.QueueLength = 100
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 30 * time.Second
	}
	return c
}

// Server is the multithreaded HTTP front-end of §5.1: one accept loop (the
// "front-end thread"), N_wk worker slots and a socket queue of L_sq ready
// requests. Every admitted connection is served by a goroutine of its own
// for its whole life; between requests that goroutine waits in the network
// poller and holds no slot. A request holds a slot from the moment it is
// ready until its response is written, so at most Workers handlers run at
// once. Ready requests that hold no slot, on fresh connections or kept-alive
// ones, are the socket queue: a connection that arrives while it is full is
// answered 503 and closed, the paper's graceful drop behaviour.
type Server struct {
	cfg     ServerConfig
	handler Handler

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	// conns is the set of live connections the shutdown sweep wakes;
	// wg counts their goroutines.
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	// slots is the worker-slot semaphore: a request holds a slot by
	// having sent into it.
	slots chan struct{}
	// waiting counts ready requests that hold no slot: the socket queue.
	// It is read on every response (QueueDepth feeds the advertised load),
	// so it is an atomic rather than under mu.
	waiting atomic.Int64
	// done closes when Serve stops; connection goroutines check it after
	// their read-deadline check and while waiting for a slot.
	done     chan struct{}
	doneOnce sync.Once

	// dropped counts connections refused with 503 due to a full queue.
	dropped atomic.Int64
}

// NewServer returns a server that dispatches to handler.
func NewServer(cfg ServerConfig, handler Handler) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		handler: handler,
		conns:   make(map[net.Conn]struct{}),
		slots:   make(chan struct{}, cfg.Workers),
		done:    make(chan struct{}),
	}
}

// Serve accepts connections from l until Close is called. It blocks; run it
// in its own goroutine. The listener is closed when Serve returns.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("httpx: server closed")
	}
	s.listener = l
	s.mu.Unlock()

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			s.stop()
			if closed {
				return nil
			}
			return err
		}
		if s.waiting.Load() >= int64(s.cfg.QueueLength) {
			// Socket queue full: graceful 503 drop (§5.2).
			s.dropped.Add(1)
			if s.cfg.Observer != nil {
				s.cfg.Observer.ConnDropped()
			}
			go dropConn(conn)
			continue
		}
		// Admitted: the connection counts as waiting until it holds a slot.
		s.waiting.Add(1)
		if s.cfg.Observer != nil {
			s.cfg.Observer.ConnQueued()
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn, time.Now())
	}
}

// stop ends service once the accept loop has failed. Closing done stops
// connections waiting for a slot; expiring every live read deadline wakes
// those waiting for a request. A connection checks done right after its
// lazy re-arm: one that re-armed after the sweep sees done, one that did
// not finds the sweep's deadline, so none waits out ReadTimeout.
func (s *Server) stop() {
	s.doneOnce.Do(func() { close(s.done) })
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now().Add(-time.Second))
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// stopping reports whether Serve has stopped.
func (s *Server) stopping() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// forget drops conn from the live set: it is closed or hijacked.
func (s *Server) forget(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// countingConn counts the bytes crossing a connection so per-request wire
// traffic can be attributed without touching the reader/writer code.
type countingConn struct {
	net.Conn
	in, out atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out.Add(int64(n))
	return n, err
}

// WriteBuffers implements buffersWriter: the vector goes to the wrapped
// connection — one writev when that is a TCP connection, issued by the
// connection itself when memnet.TCP made it — and the bytes it took are
// counted like any other write.
func (c *countingConn) WriteBuffers(v *net.Buffers) (int64, error) {
	n, err := writeBuffers(c.Conn, v)
	c.out.Add(n)
	return n, err
}

// SendFile implements fileSender the same way: head and file go to the
// wrapped connection — sendfile(2) when memnet.TCP made it — and the bytes
// sent are counted.
func (c *countingConn) SendFile(head []byte, f *os.File, n int64) (int64, error) {
	m, err := sendFile(c.Conn, head, f, n)
	c.out.Add(m)
	return m, err
}

// dropConn answers a queued-out connection with 503 and closes it.
func dropConn(conn net.Conn) {
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	resp := NewResponse(503)
	resp.Header.Set("Retry-After", "1")
	resp.Header.Set("Content-Type", "text/plain")
	resp.Body = []byte("503 server busy\n")
	WriteResponse(conn, resp)
}

// serveConn serves one admitted connection for its whole life; at is when
// it was admitted. Each request waits in the poller holding nothing, counts
// as waiting once it is ready, is read, handled and written under a worker
// slot, and gives the slot back before the next one is awaited.
//
// The clock is read at each request boundary and nowhere else: in full
// when the request is ready and when it gets its slot (the queue wait's
// end and the request's start, passed to the handler as Request.Start),
// and on the monotonic clock alone when the handler returns and when the
// response is written. Deadlines are armed from those readings and
// re-armed only when less than 7/8 of ReadTimeout is left, so every
// wait-plus-parse and every write runs under a deadline between 7/8 of
// ReadTimeout and ReadTimeout after it starts, and a busy kept-alive
// connection moves its timers about once per ReadTimeout/8 instead of
// twice per request.
func (s *Server) serveConn(raw net.Conn, at time.Time) {
	defer s.wg.Done()
	obs := s.cfg.Observer
	conn := raw
	var cc *countingConn
	if obs != nil {
		cc = &countingConn{Conn: conn}
		conn = cc
	}
	br := getReader(conn)
	remote := conn.RemoteAddr()
	timeout := s.cfg.ReadTimeout
	minLeft := timeout - timeout/8 // re-arm a deadline with less than this to go
	var readBy, writeBy time.Time  // the deadlines armed on conn
	var prevIn, prevOut int64
	now := at // the latest clock reading
	for kept := false; ; kept = true {
		// One read deadline covers the wait for the request and its
		// parse. done is checked after the re-arm, here and in acquire: a
		// shutdown sweep that came before is seen there, one that comes
		// after expires the deadline, re-armed or not.
		if readBy.Sub(now) < minLeft {
			readBy = now.Add(timeout)
			conn.SetReadDeadline(readBy)
		}
		if kept {
			if s.stopping() {
				break
			}
			if _, err := br.Peek(1); err != nil {
				break
			}
			s.waiting.Add(1)
			at = time.Now()
		}
		if !s.acquire() {
			break
		}
		start := time.Now()
		if obs != nil {
			obs.QueueWait(start.Sub(at))
		}
		req, err := ReadRequest(br)
		if err != nil {
			if errors.Is(err, ErrMalformed) || errors.Is(err, ErrLineTooLong) {
				WriteResponse(conn, errorResponse(400))
			}
			<-s.slots
			break
		}
		req.RemoteAddr = remote
		req.Start = start
		resp := s.dispatch(req)
		keep := s.cfg.KeepAlive && wantsKeepAlive(req)
		if keep {
			resp.Header.Set("Connection", "keep-alive")
		} else {
			resp.Header.Set("Connection", "close")
		}
		if now = start.Add(time.Since(start)); writeBy.Sub(now) < minLeft {
			writeBy = now.Add(timeout)
			conn.SetWriteDeadline(writeBy)
		}
		werr := WriteResponse(conn, resp)
		if resp.File != nil {
			// Written, failed or cut off by the deadline: the body file's
			// life ends with its one write, whatever becomes of the
			// connection.
			resp.File.Close()
		}
		elapsed := time.Since(start)
		now = start.Add(elapsed)
		if s.cfg.AccessLog != nil {
			trace := "-"
			if s.cfg.TraceHeader != "" {
				if id := resp.Header.Get(s.cfg.TraceHeader); id != "" {
					trace = id
				}
			}
			s.cfg.AccessLog.Printf("%s %s %s %d %d %.3fms trace=%s",
				req.RemoteAddr, req.Method, req.Path, resp.Status,
				resp.bodySize(), float64(elapsed.Microseconds())/1000, trace)
		}
		if obs != nil {
			// Bufio read-ahead may attribute a pipelined follow-up request's
			// bytes to this exchange; totals stay exact.
			in, out := cc.in.Load(), cc.out.Load()
			obs.Request(resp.Status, in-prevIn, out-prevOut, elapsed)
			prevIn, prevOut = in, out
		}
		<-s.slots // the response is written: release the worker slot
		if resp.Hijack != nil && werr == nil {
			// Protocol upgrade: the handler takes the connection, on this
			// goroutine and holding no slot. Clear the per-request deadlines
			// so the hijacker starts from a blank slate, keep the buffered
			// reader (it may hold read-ahead frames), and never touch the
			// connection again here.
			s.forget(raw)
			conn.SetReadDeadline(time.Time{})
			conn.SetWriteDeadline(time.Time{})
			resp.Hijack(conn, br)
			return
		}
		if werr != nil || !keep {
			break
		}
	}
	s.forget(raw)
	putReader(br)
	conn.Close()
}

// acquire moves a ready request out of the socket queue into a worker
// slot, waiting for one to free up. It fails once Serve has stopped; the
// request leaves the queue either way.
func (s *Server) acquire() bool {
	ok := !s.stopping()
	if ok {
		select {
		case s.slots <- struct{}{}:
		case <-s.done:
			ok = false
		}
	}
	s.waiting.Add(-1)
	return ok
}

func (s *Server) dispatch(req *Request) (resp *Response) {
	defer func() {
		if r := recover(); r != nil {
			if s.cfg.ErrorLog != nil {
				s.cfg.ErrorLog.Printf("httpx: handler panic: %v", r)
			}
			resp = errorResponse(500)
		}
	}()
	resp = s.handler.Serve(req)
	if resp == nil {
		resp = errorResponse(500)
	}
	return resp
}

func wantsKeepAlive(req *Request) bool {
	c := req.Header.Get("Connection")
	if req.Proto == "HTTP/1.1" {
		return !hasConnToken(c, "close")
	}
	return hasConnToken(c, "keep-alive")
}

// hasConnToken reports whether a Connection header value contains token,
// comparing ASCII-case-insensitively across the comma-separated token
// list the header is defined to carry ("Keep-Alive, TE").
func hasConnToken(value, token string) bool {
	for len(value) > 0 {
		part := value
		if i := strings.IndexByte(value, ','); i >= 0 {
			part, value = value[:i], value[i+1:]
		} else {
			value = ""
		}
		if strings.EqualFold(strings.TrimSpace(part), token) {
			return true
		}
	}
	return false
}

func errorResponse(status int) *Response {
	resp := NewResponse(status)
	resp.Header.Set("Content-Type", "text/plain")
	resp.Body = []byte(StatusText(status) + "\n")
	return resp
}

// Dropped reports how many connections were answered 503 because the socket
// queue was full.
func (s *Server) Dropped() int64 { return s.dropped.Load() }

// QueueDepth reports how many ready requests sit in the socket queue
// holding no worker slot, on fresh connections and kept-alive ones alike —
// the early-warning signal the queue-aware load metric folds in.
func (s *Server) QueueDepth() int { return int(s.waiting.Load()) }

// Close stops accepting connections and waits for in-flight requests.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	l := s.listener
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	return nil
}

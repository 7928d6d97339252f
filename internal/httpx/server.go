package httpx

import (
	"bufio"
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
// must be safe for concurrent use by multiple worker goroutines.
type Handler interface {
	Serve(req *Request) *Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(req *Request) *Response

// Serve implements Handler.
func (f HandlerFunc) Serve(req *Request) *Response { return f(req) }

// Observer receives server life-cycle events for telemetry. Methods must
// be safe for concurrent use and fast: they run on the accept loop and the
// worker hot path. A nil Observer disables observation entirely.
type Observer interface {
	// ConnQueued fires when an accepted connection enters the socket queue.
	ConnQueued()
	// ConnDropped fires when a connection is answered 503 because the
	// socket queue was full.
	ConnDropped()
	// QueueWait reports how long a connection sat in the socket queue
	// before a worker picked it up.
	QueueWait(d time.Duration)
	// Request reports one completed exchange: the response status, the
	// bytes read from and written to the connection while serving it, and
	// the request-parsed-to-response-written latency.
	Request(status int, bytesIn, bytesOut int64, d time.Duration)
}

// ServerConfig mirrors the thread and queue parameters of the paper's
// Table 1.
type ServerConfig struct {
	// Workers is the number of worker goroutines (N_wk, default 12).
	Workers int
	// QueueLength is the socket queue capacity for backlogged requests
	// (L_sq, default 100). When the queue is full new connections are
	// dropped gracefully with a 503 response.
	QueueLength int
	// ReadTimeout bounds how long a worker waits for a request on an
	// accepted connection.
	ReadTimeout time.Duration
	// KeepAlive allows multiple requests per connection when the client
	// asks for it.
	KeepAlive bool
	// KeepAliveHold is how long a worker waits on a kept-alive connection
	// for the next request before parking it off-worker, so back-to-back
	// RPCs stay on the fast path without pinning a bounded worker slot
	// through think time (default 5ms; negative parks immediately).
	KeepAliveHold time.Duration
	// IdleTimeout is how long a parked keep-alive connection may sit idle
	// before it is closed (default ReadTimeout; negative disables parking,
	// closing idle connections as soon as KeepAliveHold expires).
	IdleTimeout time.Duration
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
	if c.KeepAliveHold == 0 {
		c.KeepAliveHold = 5 * time.Millisecond
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = c.ReadTimeout
	}
	return c
}

// Server is the multithreaded HTTP front-end of §5.1: one accept loop (the
// "front-end thread"), a bounded pending-connection queue, and a pool of
// worker goroutines. Connections that arrive while the queue is full are
// answered 503 and closed, the paper's graceful drop behaviour.
type Server struct {
	cfg     ServerConfig
	handler Handler

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	wg       sync.WaitGroup

	// queue is the socket queue, published once by Serve. It is read on
	// every response (QueueDepth feeds the advertised load), so readers
	// must not contend on mu with Serve and Close.
	queue atomic.Pointer[chan queuedConn]

	// resume carries parked keep-alive connections that received data
	// back to the workers; done stops parking at shutdown. resume is
	// unbuffered and never closed, so parked-connection watchers hand off
	// directly to a worker or bail out on done.
	resume   chan queuedConn
	done     chan struct{}
	doneOnce sync.Once
	parkWg   sync.WaitGroup
	parkedMu sync.Mutex
	parked   map[net.Conn]struct{}

	// dropped counts connections refused with 503 due to a full queue.
	dropped atomic.Int64
}

// NewServer returns a server that dispatches to handler.
func NewServer(cfg ServerConfig, handler Handler) *Server {
	return &Server{
		cfg:     cfg.withDefaults(),
		handler: handler,
		resume:  make(chan queuedConn),
		done:    make(chan struct{}),
		parked:  make(map[net.Conn]struct{}),
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
	queue := make(chan queuedConn, s.cfg.QueueLength)
	s.queue.Store(&queue)
	s.mu.Unlock()

	for i := 0; i < s.cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(queue)
	}

	for {
		conn, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			// Stop parking first so idle keep-alive connections close
			// instead of re-entering the worker loop, then let the workers
			// drain the queue and exit.
			s.doneOnce.Do(func() { close(s.done) })
			s.closeParked()
			close(queue)
			s.wg.Wait()
			s.parkWg.Wait()
			if closed {
				return nil
			}
			return err
		}
		select {
		case queue <- queuedConn{conn: conn, at: time.Now()}:
			if s.cfg.Observer != nil {
				s.cfg.Observer.ConnQueued()
			}
		default:
			// Socket queue full: graceful 503 drop (§5.2).
			s.dropped.Add(1)
			if s.cfg.Observer != nil {
				s.cfg.Observer.ConnDropped()
			}
			go dropConn(conn)
		}
	}
}

// queuedConn is one socket-queue slot: the accepted connection and its
// enqueue time, so workers can report queue wait. A parked keep-alive
// connection re-enters the workers through the same struct, carrying its
// buffered reader, formatted remote address and byte-count watermarks
// across the idle wait; br is nil for freshly accepted connections.
type queuedConn struct {
	conn net.Conn
	at   time.Time

	br              *bufio.Reader
	remote          string
	prevIn, prevOut int64
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

func (s *Server) worker(queue chan queuedConn) {
	defer s.wg.Done()
	for {
		var qc queuedConn
		select {
		case q, ok := <-queue:
			if !ok {
				return
			}
			qc = q
		case qc = <-s.resume:
		}
		if s.cfg.Observer != nil {
			s.cfg.Observer.QueueWait(time.Since(qc.at))
		}
		s.serveConn(qc)
	}
}

func (s *Server) serveConn(qc queuedConn) {
	obs := s.cfg.Observer
	conn := qc.conn
	var cc *countingConn
	if qc.br == nil {
		if obs != nil {
			cc = &countingConn{Conn: conn}
			conn = cc
		}
		qc.br = getReader(conn)
		// Formatting the address allocates; a connection has one.
		qc.remote = conn.RemoteAddr().String()
	} else {
		// Resumed from the parked set: the connection is already wrapped.
		cc, _ = conn.(*countingConn)
	}
	br := qc.br
	prevIn, prevOut := qc.prevIn, qc.prevOut
	for {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		req, err := ReadRequest(br)
		if err != nil {
			if errors.Is(err, ErrMalformed) || errors.Is(err, ErrLineTooLong) {
				WriteResponse(conn, errorResponse(400))
			}
			putReader(br)
			conn.Close()
			return
		}
		start := time.Now()
		req.RemoteAddr = qc.remote
		resp := s.dispatch(req)
		keep := s.cfg.KeepAlive && wantsKeepAlive(req)
		if keep {
			resp.Header.Set("Connection", "keep-alive")
		} else {
			resp.Header.Set("Connection", "close")
		}
		conn.SetWriteDeadline(time.Now().Add(s.cfg.ReadTimeout))
		werr := WriteResponse(conn, resp)
		if resp.File != nil {
			// Written, failed or cut off by the deadline: the body file's
			// life ends with its one write, whatever becomes of the
			// connection.
			resp.File.Close()
		}
		if s.cfg.AccessLog != nil {
			trace := "-"
			if s.cfg.TraceHeader != "" {
				if id := resp.Header.Get(s.cfg.TraceHeader); id != "" {
					trace = id
				}
			}
			s.cfg.AccessLog.Printf("%s %s %s %d %d %.3fms trace=%s",
				req.RemoteAddr, req.Method, req.Path, resp.Status,
				resp.bodySize(), float64(time.Since(start).Microseconds())/1000, trace)
		}
		if obs != nil {
			// Bufio read-ahead may attribute a pipelined follow-up request's
			// bytes to this exchange; totals stay exact.
			in, out := cc.in.Load(), cc.out.Load()
			obs.Request(resp.Status, in-prevIn, out-prevOut, time.Since(start))
			prevIn, prevOut = in, out
		}
		if resp.Hijack != nil && werr == nil {
			// Protocol upgrade: the handler takes the connection. Clear the
			// per-request deadlines so the hijacker starts from a blank
			// slate, keep the buffered reader (it may hold read-ahead
			// frames), and never touch the connection again here.
			conn.SetReadDeadline(time.Time{})
			conn.SetWriteDeadline(time.Time{})
			resp.Hijack(conn, br)
			return
		}
		if werr != nil || !keep {
			putReader(br)
			conn.Close()
			return
		}
		if br.Buffered() > 0 {
			// Pipelined follow-up already waiting.
			continue
		}
		// Hold briefly for the next request of a bursty exchange, then
		// park the idle connection off-worker so it does not pin one of
		// the bounded worker slots (§5.1 sizes them for active requests).
		if s.cfg.KeepAliveHold > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.KeepAliveHold))
			if _, err := br.Peek(1); err == nil {
				continue
			} else if ne, ok := err.(net.Error); !ok || !ne.Timeout() {
				putReader(br)
				conn.Close()
				return
			}
		}
		s.park(queuedConn{conn: conn, br: br, remote: qc.remote, prevIn: prevIn, prevOut: prevOut})
		return
	}
}

// park hands an idle keep-alive connection to a watcher goroutine that
// waits (up to IdleTimeout) for its next request and then re-enqueues it
// to the workers, or closes it on timeout, error, or server shutdown.
func (s *Server) park(qc queuedConn) {
	if s.cfg.IdleTimeout < 0 {
		s.discard(qc)
		return
	}
	s.parkedMu.Lock()
	s.parked[qc.conn] = struct{}{}
	s.parkedMu.Unlock()
	// Check done only after registering: shutdown closes done and then
	// sweeps the parked set, so a connection is either swept or sees done
	// here — never silently left waiting out its idle timeout.
	select {
	case <-s.done:
		s.parkedMu.Lock()
		delete(s.parked, qc.conn)
		s.parkedMu.Unlock()
		s.discard(qc)
		return
	default:
	}
	s.parkWg.Add(1)
	go func() {
		defer s.parkWg.Done()
		qc.conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout))
		// Re-check done now that the idle deadline is armed: closeParked
		// may have expired the deadline in the window before the line
		// above overwrote it with a future one, and shutdown must not wait
		// out IdleTimeout behind an undone sweep. closeParked always runs
		// after done is closed, so this check observes every sweep.
		select {
		case <-s.done:
			s.parkedMu.Lock()
			delete(s.parked, qc.conn)
			s.parkedMu.Unlock()
			s.discard(qc)
			return
		default:
		}
		_, err := qc.br.Peek(1)
		s.parkedMu.Lock()
		delete(s.parked, qc.conn)
		s.parkedMu.Unlock()
		if err != nil {
			s.discard(qc)
			return
		}
		qc.at = time.Now()
		select {
		case <-s.done:
			s.discard(qc)
		case s.resume <- qc:
		}
	}()
}

// discard releases a parked connection's reader and closes it.
func (s *Server) discard(qc queuedConn) {
	putReader(qc.br)
	qc.conn.Close()
}

// closeParked wakes every parked connection's watcher by expiring its
// read deadline, so shutdown does not wait out idle timeouts.
func (s *Server) closeParked() {
	s.parkedMu.Lock()
	for c := range s.parked {
		c.SetReadDeadline(time.Now().Add(-time.Second))
	}
	s.parkedMu.Unlock()
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

// QueueDepth reports how many accepted connections currently sit in the
// socket queue waiting for a worker — the early-warning signal the
// queue-aware load metric folds in. Zero before Serve starts.
func (s *Server) QueueDepth() int {
	q := s.queue.Load()
	if q == nil {
		return 0
	}
	return len(*q)
}

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

package memnet

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Network abstracts how DCWS servers reach one another, so the same server
// code runs over real TCP (production), the in-memory fabric (tests,
// single-process clusters), or a latency-shaped fabric (geographically
// distributed scenarios).
type Network interface {
	// Listen starts accepting connections at addr.
	Listen(addr string) (net.Listener, error)
	// Dial connects to addr.
	Dial(addr string) (net.Conn, error)
}

// TCP is the Network backed by the operating system's TCP stack. Every
// connection it accepts or dials carries the raw data path of
// tcp_linux.go where there is one.
type TCP struct{}

// Listen implements Network.
func (TCP) Listen(a string) (net.Listener, error) {
	l, err := net.Listen("tcp", a)
	if err != nil {
		return nil, err
	}
	return tcpListener{l.(*net.TCPListener)}, nil
}

// Dial implements Network.
func (TCP) Dial(a string) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", a, 10*time.Second)
	if err != nil {
		return nil, err
	}
	return wrapTCP(c.(*net.TCPConn)), nil
}

// tcpListener hands out accepted connections through wrapTCP.
type tcpListener struct{ *net.TCPListener }

// Accept implements net.Listener.
func (l tcpListener) Accept() (net.Conn, error) {
	c, err := l.AcceptTCP()
	if err != nil {
		return nil, err
	}
	return wrapTCP(c), nil
}

// Fabric is an in-memory Network. Addresses are arbitrary strings
// ("east:80", "server3"); each Listen registers the address, each Dial
// creates a buffered pipe pair and hands one end to the listener.
//
// Beyond plain connectivity the fabric injects faults for resilience
// testing: per-link dial failure rates, mid-stream connection resets,
// write stalls, and named partitions (see faults.go). Fault schedules are
// driven by a deterministic seeded source so chaos tests reproduce.
type Fabric struct {
	mu         sync.Mutex
	listeners  map[string]*listener
	latency    map[[2]string]time.Duration
	defaultRT  time.Duration
	bufSize    int
	backlog    int
	faults     map[[2]string]*linkFaults
	partitions map[[2]string]bool
	rng        *rand.Rand
	// conns tracks established connection pairs per link so ResetLink can
	// hard-close them (a partition only refuses new dials). Dead pairs are
	// pruned lazily on the next dial or reset.
	conns []connPair
}

// connPair is one established connection's bookkeeping entry: the link it
// crossed and both endpoints.
type connPair struct {
	from, to string
	a, b     *Conn
}

// NewFabric returns an empty in-memory network. Connections have 64 KiB
// buffers and listeners a backlog of 128 pending connections by default.
func NewFabric() *Fabric {
	return &Fabric{
		listeners: make(map[string]*listener),
		latency:   make(map[[2]string]time.Duration),
		bufSize:   64 * 1024,
		backlog:   128,
	}
}

// SetLatency injects one-way latency on writes for connections between the
// two addresses (in either direction). Used by the geo-distributed examples.
func (f *Fabric) SetLatency(a, b string, d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency[[2]string{a, b}] = d
	f.latency[[2]string{b, a}] = d
}

// SetDefaultLatency injects latency on all connections that have no
// pair-specific setting.
func (f *Fabric) SetDefaultLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.defaultRT = d
}

// SetBacklog sets the pending-connection capacity for listeners created
// afterwards.
func (f *Fabric) SetBacklog(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if n > 0 {
		f.backlog = n
	}
}

// Listen implements Network.
func (f *Fabric) Listen(a string) (net.Listener, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.listeners[a]; ok {
		return nil, fmt.Errorf("memnet: address %s already in use", a)
	}
	l := &listener{
		fabric:  f,
		addr:    addr(a),
		pending: make(chan net.Conn, f.backlog),
		done:    make(chan struct{}),
	}
	f.listeners[a] = l
	return l, nil
}

// Dial implements Network. Calls originate from a synthetic
// "client->addr" address; use DialFrom (or Named) to dial as a specific
// host so pair-specific latency and faults apply.
func (f *Fabric) Dial(a string) (net.Conn, error) {
	return f.DialFrom("client->"+a, a)
}

// DialFrom is like Dial but names the originating host, so pair-specific
// latency (e.g. "east" <-> "west") and injected link faults apply.
func (f *Fabric) DialFrom(from, to string) (net.Conn, error) {
	f.mu.Lock()
	l, ok := f.listeners[to]
	lat := f.defaultRT
	if d, found := f.latency[[2]string{from, to}]; found {
		lat = d
	}
	bufSize := f.bufSize
	lf, faultErr := f.checkDialFaults(from, to)
	f.mu.Unlock()
	if faultErr != nil {
		return nil, faultErr
	}
	if !ok {
		return nil, fmt.Errorf("memnet: connection refused: no listener at %s", to)
	}
	client, server := pipeWithAddrs(bufSize, addr(from), addr(to), lat)
	applyConnFaults(client, server, lf)
	f.mu.Lock()
	live := f.conns[:0]
	for _, cp := range f.conns {
		if !cp.a.isBroken() && !cp.b.isBroken() {
			live = append(live, cp)
		}
	}
	f.conns = append(live, connPair{from: from, to: to, a: client, b: server})
	f.mu.Unlock()
	select {
	case l.pending <- server:
		return client, nil
	case <-l.done:
		return nil, fmt.Errorf("memnet: connection refused: listener at %s closed", to)
	default:
		// Backlog full: the OS would drop the SYN; we refuse outright.
		client.Close()
		server.Close()
		return nil, fmt.Errorf("memnet: connection refused: backlog full at %s", to)
	}
}

type listener struct {
	fabric  *Fabric
	addr    addr
	pending chan net.Conn
	done    chan struct{}
	once    sync.Once
}

var _ net.Listener = (*listener)(nil)

// Accept implements net.Listener.
func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.pending:
		return c, nil
	case <-l.done:
		return nil, ErrClosed
	}
}

// Close implements net.Listener.
func (l *listener) Close() error {
	l.once.Do(func() {
		close(l.done)
		l.fabric.mu.Lock()
		delete(l.fabric.listeners, l.addr.String())
		l.fabric.mu.Unlock()
	})
	return nil
}

// Addr implements net.Listener.
func (l *listener) Addr() net.Addr { return l.addr }

// NamedDialer adapts a Fabric into a Network whose Dial calls carry a fixed
// origin host name, activating pair-specific latency.
type NamedDialer struct {
	Fabric *Fabric
	From   string
}

// Named returns a view of the fabric that dials as the given host, so
// pair-specific latency (SetLatency) applies to its connections.
func (f *Fabric) Named(from string) NamedDialer {
	return NamedDialer{Fabric: f, From: from}
}

// Listen implements Network.
func (n NamedDialer) Listen(a string) (net.Listener, error) { return n.Fabric.Listen(a) }

// Dial implements Network.
func (n NamedDialer) Dial(a string) (net.Conn, error) { return n.Fabric.DialFrom(n.From, a) }

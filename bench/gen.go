package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// target is one URL of a workload: where to send the request, the request
// itself, and what a correct reply looks like.
type target struct {
	srv  int // index into plan.addrs
	path string
	req  []byte
	exp  expect
	pool int // index into plan.pool when the document is updated, else -1
}

// poolDoc is one document of the update workload's write pool. Versions of
// one document are written at least len(pool)·writeEvery slots apart, so
// two writes to it are never in flight together and the order of their
// acknowledgements is the order of their versions.
type poolDoc struct {
	name     string
	template []byte // home-side source with the stamp at stampAt
	stampAt  int

	issued int       // highest version sent
	acks   [4]ackRec // most recent acknowledgements, newest first
}

type ackRec struct {
	version int
	at      time.Time
}

// staleGrace is how long after a write was acknowledged a read may still
// return the previous version without being counted as wrong: the home
// answers 200 before the co-op has re-fetched the pushed invalidation.
const staleGrace = time.Second

func (p *poolDoc) noteIssued(v int) {
	if v > p.issued {
		p.issued = v
	}
}

func (p *poolDoc) noteAcked(v int, at time.Time) {
	copy(p.acks[1:], p.acks[:len(p.acks)-1])
	p.acks[0] = ackRec{v, at}
}

func (p *poolDoc) lastAcked() int { return p.acks[0].version }

// judge classifies the version a read returned. sent is when the read left.
func (p *poolDoc) judge(seen int, sent time.Time) (ok, stale bool) {
	if seen > p.issued {
		return false, false // a version nobody wrote
	}
	for _, a := range p.acks {
		if a.version == 0 || a.at.After(sent) || seen >= a.version {
			continue
		}
		if sent.Sub(a.at) > staleGrace {
			return false, false
		}
		stale = true
	}
	return true, stale
}

// plan is a workload's request stream: a pure function of the seed and the
// servers' addresses, replayed cyclically. A slot is one position of the
// schedule; slot g reads stream[g mod len], except that with writeEvery > 0
// every writeEvery-th slot is the next write of the update rotation. Writes
// are slots, not a timer, so every run issues the same writes at the same
// offsets.
type plan struct {
	addrs      []string
	targets    []target
	stream     []int32
	writeEvery int
	pool       []*poolDoc
}

// slotsPerWindow spaces the windows of a run in slot numbers, so that each
// window starts at a slot that does not depend on how many requests the
// windows before it completed, and versions only ever increase.
const slotsPerWindow = 1 << 21

func (p *plan) isWrite(g int) bool {
	return p.writeEvery > 0 && g%p.writeEvery == p.writeEvery-1
}

// write returns the document and version of write slot g.
func (p *plan) write(g int) (*poolDoc, int) {
	k := g / p.writeEvery
	return p.pool[k%len(p.pool)], 2 + k/len(p.pool)
}

// sample is the timing of one read, in nanoseconds.
type sample struct {
	lat  int64 // due → last byte
	lag  int64 // due → request written (how late the generator ran)
	ttfb int64 // request written → status line
	body int64 // status line → last byte
}

// windowSpec describes one timed window.
type windowSpec struct {
	index    int           // ordinal in the run; fixes the first slot
	rate     float64       // requests per second; 0 = saturate (everything due at once)
	duration time.Duration // the window closes this long after it opens
	count    int           // instead of a duration: send exactly this many slots, all due at once
	limit    time.Duration // latency limit for the in-limit count
}

// windowResult is what one window measured. Reads only in the latency
// series; writes are timed apart.
type windowResult struct {
	spec      windowSpec
	elapsed   time.Duration
	offered   int // requests the schedule held (0 when saturating)
	backlog   int // of those, never sent because the window closed first
	reads     int
	readsOK   int // correct replies
	inLimit   int // correct replies within the limit, from due time
	writes    int
	writesOK  int
	stale     int      // reads that saw the previous version inside staleGrace
	bodyBytes int64    // verified body bytes of correct reads completed before the window closed
	inWindow  int      // exchanges completed before the window closed
	samples   []sample // valid until the generator's next window, which reuses the buffer
	updateNs  []int64
	errs      []string
}

// generator drives the servers from one thread that never sleeps: `workers`
// logical clients, each with one keep-alive connection per server and at
// most one request outstanding, multiplexed over non-blocking sockets that
// the thread polls. When the next slot of the schedule is due and a client
// is free, the client sends it; the reply is timed from the due time — so a
// stall delays, and is charged to, every request queued behind it (no
// coordinated omission).
//
// It polls instead of blocking because a client asleep in read(2) has to be
// woken by the server's write(2), across CPUs, and on a virtual machine that
// wake-up costs the *server* several microseconds a request — a quarter of
// static-small's whole cost — or nothing, depending on whether the client
// happened to be asleep: eight blocking threads gave the saturated rate of
// one binary a spread of 25 k to 45 k requests a second between instances.
// The generator has a CPU to itself (affinity.go), so spinning costs nothing.
type generator struct {
	plan    *plan
	workers int
	// rec, when set, receives client spans for the first recSlots slots of
	// each window: the operations the replay goes through as well.
	rec      *recorder
	recSlots int

	epfd    int
	conns   [][]*conn  // [worker][server], dialled on first use
	ops     []inflight // per worker
	free    []int      // idle workers, oldest first
	samples []sample   // reused between windows
	wbuf    []byte     // body of the write being sent
}

// inflight is the request a worker has outstanding.
type inflight struct {
	slot      int
	srv       int
	due, sent time.Time
	target    *target  // of a read
	doc       *poolDoc // of a write
	version   int
}

func newGenerator(p *plan, workers int) (*generator, error) {
	epfd, err := syscall.EpollCreate1(syscall.EPOLL_CLOEXEC)
	if err != nil {
		return nil, fmt.Errorf("epoll_create: %w", err)
	}
	g := &generator{plan: p, workers: workers, epfd: epfd}
	g.conns = make([][]*conn, workers)
	g.ops = make([]inflight, workers)
	for w := range g.conns {
		g.conns[w] = make([]*conn, len(p.addrs))
		g.free = append(g.free, w)
	}
	return g, nil
}

func (g *generator) close() {
	for w := range g.conns {
		for srv := range g.conns[w] {
			g.drop(w, srv)
		}
	}
	syscall.Close(g.epfd)
}

// conn returns worker w's connection to server srv, dialling it if need be.
func (g *generator) conn(w, srv int) (*conn, error) {
	if c := g.conns[w][srv]; c != nil {
		return c, nil
	}
	c, err := dial(g.plan.addrs[srv])
	if err != nil {
		return nil, err
	}
	ev := syscall.EpollEvent{Events: syscall.EPOLLIN, Fd: int32(c.sock.fd), Pad: int32(w<<8 | srv)}
	for _, err := range []error{
		syscall.SetNonblock(c.sock.fd, true),
		syscall.EpollCtl(g.epfd, syscall.EPOLL_CTL_ADD, c.sock.fd, &ev),
	} {
		if err != nil {
			c.close()
			return nil, err
		}
	}
	g.conns[w][srv] = c
	return c, nil
}

func (g *generator) drop(w, srv int) {
	if c := g.conns[w][srv]; c != nil {
		c.close() // which also takes the socket out of the epoll set
		g.conns[w][srv] = nil
	}
}

// run executes one window and returns its measurements.
func (g *generator) run(spec windowSpec) *windowResult {
	// The loop below owns its thread for the length of the window, and the
	// garbage collector, whose workers would share the generator's one CPU
	// with it for tens of milliseconds at a time, runs before and not
	// during: a window allocates little (samples, spans when tracing).
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	res := &windowResult{spec: spec, samples: g.samples[:0]}
	paced := spec.rate > 0
	bounded := paced || spec.count > 0 // the schedule holds a fixed number of slots
	firstSlot := spec.index * slotsPerWindow
	open := time.Now().Add(2 * time.Millisecond)
	closeAt := open.Add(spec.duration)
	switch {
	case paced:
		res.offered = int(spec.rate * spec.duration.Seconds())
	case spec.count > 0:
		res.offered = spec.count
		closeAt = open.Add(time.Hour)
	}
	due := func(i int) time.Time {
		if !paced {
			return open
		}
		return open.Add(time.Duration(float64(i) / spec.rate * float64(time.Second)))
	}

	var (
		next   int // next slot of the window to send
		events [64]syscall.EpollEvent
		spins  int
	)
	for {
		now := time.Now()
		// Send what is due, as far as clients are free.
		for len(g.free) > 0 && now.Before(closeAt) && (!bounded || next < res.offered) && !due(next).After(now) {
			w := g.free[0]
			g.free = g.free[1:]
			g.send(w, firstSlot+next, due(next), res)
			next++
			now = time.Now()
		}
		outstanding := g.workers - len(g.free)
		if outstanding == 0 && (!now.Before(closeAt) || (bounded && next >= res.offered)) {
			break
		}
		// Take what has arrived.
		n, err := syscall.EpollWait(g.epfd, events[:], 0)
		if err != nil && err != syscall.EINTR {
			res.fail("epoll_wait: %v", err)
			break
		}
		for _, ev := range events[:max(n, 0)] {
			g.receive(int(ev.Pad>>8), int(ev.Pad&0xff), closeAt, res)
		}
		// Now and then, give up on requests no reply came for.
		if spins++; spins%4096 == 0 {
			for w := range g.ops {
				if op := &g.ops[w]; op.sent != (time.Time{}) && now.Sub(op.sent) > ioTimeout {
					g.abandon(w, res, "no reply for %v", ioTimeout)
				}
			}
		}
	}
	g.samples = res.samples
	res.elapsed = spec.duration
	if spec.count > 0 {
		res.elapsed = time.Since(open)
	}
	if bounded {
		res.backlog = res.offered - next
	}
	return res
}

// send has worker w perform the given slot.
func (g *generator) send(w, slot int, due time.Time, r *windowResult) {
	p := g.plan
	op := &g.ops[w]
	*op = inflight{slot: slot, due: due}
	var req []byte
	if p.isWrite(slot) {
		op.doc, op.version = p.write(slot)
		g.wbuf = stamp(g.wbuf, op.doc.template, op.doc.stampAt, op.version)
		req = postRequest(p.addrs[0], "/~dcws/update", map[string]string{"X-DCWS-Doc": op.doc.name}, g.wbuf)
		op.doc.noteIssued(op.version)
		r.writes++ // op.srv stays 0: the home receives every write
	} else {
		op.target = &p.targets[p.stream[slot%len(p.stream)]]
		op.srv, req = op.target.srv, op.target.req
		r.reads++
	}
	c, err := g.conn(w, op.srv)
	if err != nil {
		g.abandon(w, r, "dial: %v", err)
		return
	}
	c.rx.reset()
	start := time.Now()
	for len(req) > 0 {
		n, err := c.sock.write(req)
		if err == errWouldBlock {
			// The socket buffer is full of a large write the server is
			// still reading; it is on another CPU, so spin.
			if time.Since(start) > ioTimeout {
				g.abandon(w, r, "write blocked for %v", ioTimeout)
				return
			}
			continue
		}
		if err != nil {
			g.abandon(w, r, "write: %v", err)
			return
		}
		req = req[n:]
	}
	op.sent = time.Now()
}

// receive reads what has arrived on worker w's connection to srv and, when
// the reply is complete, accounts for it.
func (g *generator) receive(w, srv int, closeAt time.Time, r *windowResult) {
	op := &g.ops[w]
	c := g.conns[w][srv]
	if c == nil {
		return
	}
	if op.sent == (time.Time{}) || op.srv != srv {
		// Nothing is outstanding here: the server closed an idle
		// connection. The next request dials a new one.
		g.drop(w, srv)
		return
	}
	for {
		k, err := c.sock.read(c.rx.space())
		if err == errWouldBlock {
			return
		}
		if err != nil {
			g.abandon(w, r, "read: %v", err)
			return
		}
		now := time.Now()
		done, err := c.rx.advance(k, now)
		if err != nil {
			g.abandon(w, r, "%v", err)
			return
		}
		if done {
			g.finish(w, now, closeAt, r)
			return
		}
	}
}

// abandon fails worker w's request and frees the worker.
func (g *generator) abandon(w int, r *windowResult, format string, a ...any) {
	op := &g.ops[w]
	what := "POST update " + g.plan.addrs[0]
	if op.target != nil {
		what = "GET " + op.target.path
	}
	r.fail(what+": "+format, a...)
	g.drop(w, op.srv)
	*op = inflight{}
	g.free = append(g.free, w)
}

// finish accounts for worker w's complete reply and frees the worker.
func (g *generator) finish(w int, done, closeAt time.Time, r *windowResult) {
	p := g.plan
	op := g.ops[w]
	resp := g.conns[w][op.srv].rx.resp
	g.ops[w] = inflight{}
	g.free = append(g.free, w)
	inWindow := done.Before(closeAt)
	if inWindow {
		r.inWindow++
	}
	traced := g.rec != nil && op.slot%slotsPerWindow < g.recSlots

	if op.doc != nil {
		if resp.status != 200 {
			r.fail("POST update %s: status %d: %s", op.doc.name, resp.status, resp.body)
			return
		}
		op.doc.noteAcked(op.version, done)
		r.writesOK++
		r.updateNs = append(r.updateNs, int64(done.Sub(op.sent)))
		if traced {
			g.rec.add(g.rec.requestID(op.slot), 0, "dcws.update", op.sent, done)
		}
		return
	}

	t := op.target
	s := sample{
		lat:  int64(done.Sub(op.due)),
		lag:  int64(op.sent.Sub(op.due)),
		ttfb: int64(resp.firstByte.Sub(op.sent)),
		body: int64(done.Sub(resp.firstByte)),
	}
	r.samples = append(r.samples, s)
	if traced {
		id := g.rec.requestID(op.slot)
		root := g.rec.add(id, 0, "client.request", op.due, done)
		g.rec.add(id, root, "client.sched_lag", op.due, op.sent)
		g.rec.add(id, root, "client.ttfb", op.sent, resp.firstByte)
		g.rec.add(id, root, "client.body_read", resp.firstByte, done)
	}
	if resp.status != 200 {
		r.fail("GET %s: status %d", t.path, resp.status)
		return
	}
	version, ok := t.exp.check(resp.body)
	if !ok {
		r.fail("GET %s: body of %d bytes does not match the %d bytes recorded in warm-up", t.path, len(resp.body), t.exp.length)
		return
	}
	if t.pool >= 0 {
		fresh, stale := p.pool[t.pool].judge(version, op.sent)
		if !fresh {
			r.fail("GET %s: version %d is older than a write acknowledged more than %v before", t.path, version, staleGrace)
			return
		}
		if stale {
			r.stale++
		}
	}
	r.readsOK++
	if inWindow {
		r.bodyBytes += int64(len(resp.body))
	}
	if r.spec.limit <= 0 || time.Duration(s.lat) <= r.spec.limit {
		r.inLimit++
	}
}

// fail records a failed operation; the first few messages are kept for the
// report.
func (r *windowResult) fail(format string, a ...any) {
	if len(r.errs) < 5 {
		r.errs = append(r.errs, fmt.Sprintf(format, a...))
	}
}

// series extracts one field of the samples, sorted ascending, in the given
// unit (nanoseconds per unit).
func (r *windowResult) series(field func(sample) int64, unit float64) []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = float64(field(s)) / unit
	}
	sort.Float64s(out)
	return out
}

func (r *windowResult) failed() int {
	return (r.reads - r.readsOK) + (r.writes - r.writesOK)
}

func (r *windowResult) report(w *os.File, label string) {
	fmt.Fprintf(w, "  %-6s rate=%-8s n=%-7d done/s=%-9.1f", label, rateLabel(r.spec.rate), len(r.samples), float64(r.inWindow)/r.elapsed.Seconds())
	if r.spec.rate > 0 {
		lat := r.series(func(s sample) int64 { return s.lat }, 1e6)
		lag := r.series(func(s sample) int64 { return s.lag }, 1e6)
		fmt.Fprintf(w, " from due: p50=%.4fms p90=%.4fms p99=%.4fms lag_p99=%.4fms", percentile(lat, 0.50), percentile(lat, 0.90), percentile(lat, 0.99), percentile(lag, 0.99))
	} else {
		// Every slot of a saturated window is due when it opens; what a
		// request took is the time from sending it.
		reply := r.series(func(s sample) int64 { return s.ttfb + s.body }, 1e6)
		fmt.Fprintf(w, " from send: p50=%.4fms p99=%.4fms", percentile(reply, 0.50), percentile(reply, 0.99))
	}
	fmt.Fprintf(w, " backlog=%d failed=%d stale=%d\n", r.backlog, r.failed(), r.stale)
	for _, e := range r.errs {
		fmt.Fprintf(w, "    error: %s\n", e)
	}
}

func rateLabel(rate float64) string {
	if rate <= 0 {
		return "saturate"
	}
	return strconv.FormatFloat(rate, 'f', 0, 64)
}

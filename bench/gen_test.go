package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/httpx"
)

// fakeServer answers keep-alive GETs on loopback with what handle returns,
// after the delay it returns.
type fakeServer struct {
	l      net.Listener
	handle func(path string, nth int) (status int, body []byte, delay time.Duration)
	served atomic.Int64
	wg     sync.WaitGroup
}

func newFakeServer(t *testing.T, handle func(path string, nth int) (int, []byte, time.Duration)) *fakeServer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	f := &fakeServer{l: l, handle: handle}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			f.wg.Add(1)
			go func() {
				defer f.wg.Done()
				defer c.Close()
				br := bufio.NewReader(c)
				for {
					req, err := httpx.ReadRequest(br)
					if err != nil {
						return
					}
					status, body, delay := f.handle(req.Path, int(f.served.Add(1)))
					time.Sleep(delay)
					fmt.Fprintf(c, "HTTP/1.1 %d X\r\nContent-Length: %d\r\n\r\n%s", status, len(body), body)
				}
			}()
		}
	}()
	t.Cleanup(func() { l.Close(); f.wg.Wait() })
	return f
}

func (f *fakeServer) addr() string { return f.l.Addr().String() }

// onePagePlan is a plan whose stream requests /doc over and over.
func onePagePlan(addr string, body []byte) *plan {
	return &plan{
		addrs:   []string{addr},
		targets: []target{{srv: 0, path: "/doc", req: getRequest(addr, "/doc"), exp: learn(body), pool: -1}},
		stream:  []int32{0},
	}
}

func testGenerator(t *testing.T, p *plan, workers int) *generator {
	t.Helper()
	g, err := newGenerator(p, workers)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.close)
	return g
}

func TestStreamIsAPureFunctionOfTheSeed(t *testing.T) {
	body := []byte("<html>x</html>")
	srv := newFakeServer(t, func(string, int) (int, []byte, time.Duration) { return 200, body, 0 })
	build := func(seed int64) []int32 {
		s := &setup{site: dataset.LOD(), fetcher: newFetcher(), plan: &plan{addrs: []string{srv.addr()}}}
		defer s.fetcher.close()
		if err := zipfStream(s, rand.New(rand.NewSource(seed))); err != nil {
			t.Fatal(err)
		}
		return s.plan.stream
	}
	a, b, c := build(7), build(7), build(8)
	if len(a) != streamLen || !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed built two different streams")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("two seeds built the same stream")
	}
}

func TestWriteSlotsAreAFunctionOfTheSlot(t *testing.T) {
	p := &plan{writeEvery: 200}
	for i := 0; i < poolSize; i++ {
		p.pool = append(p.pool, &poolDoc{name: fmt.Sprint(i)})
	}
	writes := 0
	last := map[*poolDoc]int{}
	for g := 0; g < 3*slotsPerWindow; g += 1 {
		if !p.isWrite(g) {
			continue
		}
		writes++
		doc, v := p.write(g)
		if v <= last[doc] {
			t.Fatalf("slot %d: version %d of %s after version %d", g, v, doc.name, last[doc])
		}
		last[doc] = v
	}
	if want := 3 * slotsPerWindow / 200; writes != want {
		t.Fatalf("%d write slots, want %d", writes, want)
	}
}

// A stall must be charged to the requests queued behind it: with one
// connection at 100 requests a second, a reply held for 200 ms makes some
// twenty requests late, and each one's latency counts from when it was due.
func TestLatencyIsTakenFromDueTime(t *testing.T) {
	body := []byte("hello")
	srv := newFakeServer(t, func(_ string, nth int) (int, []byte, time.Duration) {
		if nth == 20 {
			return 200, body, 200 * time.Millisecond
		}
		return 200, body, 0
	})
	g := testGenerator(t, onePagePlan(srv.addr(), body), 1)
	res := g.run(windowSpec{index: 1, rate: 100, duration: time.Second})
	if res.failed() != 0 || res.backlog != 0 || len(res.samples) != 100 {
		t.Fatalf("failed %d, backlog %d, samples %d; want 0, 0, 100: %v", res.failed(), res.backlog, len(res.samples), res.errs)
	}
	late := 0
	for _, s := range res.samples {
		if time.Duration(s.lat) > 50*time.Millisecond {
			late++
		}
	}
	// The stalled request and those due within 150 ms of it, 10 ms apart.
	if late < 15 {
		t.Errorf("%d requests slower than 50 ms; a 200 ms stall at 100/s must delay at least 15", late)
	}
	lag := res.series(func(s sample) int64 { return s.lag }, 1e6)
	if p99 := percentile(lag, 0.99); p99 < 150 {
		t.Errorf("sched_lag p99 = %.1f ms; the requests queued behind the stall were sent up to 190 ms late", p99)
	}
	if p50 := percentile(lag, 0.50); p50 > 5 {
		t.Errorf("sched_lag p50 = %.1f ms; without a stall a request leaves when it is due", p50)
	}
}

// A request in flight when the window closes is drained and timed, not
// failed; a slot the window closed on before it was sent is backlog.
func TestInFlightAtCloseIsDrainedNotFailed(t *testing.T) {
	body := []byte("slow")
	srv := newFakeServer(t, func(string, int) (int, []byte, time.Duration) { return 200, body, 60 * time.Millisecond })
	g := testGenerator(t, onePagePlan(srv.addr(), body), 2)
	// 2 connections × 60 ms serve 33 a second; 100 a second are offered.
	res := g.run(windowSpec{index: 1, rate: 100, duration: 300 * time.Millisecond})
	if res.failed() != 0 {
		t.Fatalf("%d failed: %v", res.failed(), res.errs)
	}
	if res.reads != len(res.samples) || res.readsOK != res.reads {
		t.Errorf("reads %d, ok %d, timed %d: every request sent must be answered and timed", res.reads, res.readsOK, len(res.samples))
	}
	if res.inWindow >= res.reads {
		t.Errorf("%d of %d completed inside the window; the last ones were in flight when it closed", res.inWindow, res.reads)
	}
	if res.backlog == 0 || res.backlog+res.reads != res.offered {
		t.Errorf("backlog %d + sent %d != offered %d", res.backlog, res.reads, res.offered)
	}
}

func TestACorruptedBodyLowersOKShare(t *testing.T) {
	good := []byte("the document as recorded in warm-up")
	bad := []byte("the document as recorded in warm-UP")
	srv := newFakeServer(t, func(_ string, nth int) (int, []byte, time.Duration) {
		if nth%10 == 0 {
			return 200, bad, 0
		}
		return 200, good, 0
	})
	g := testGenerator(t, onePagePlan(srv.addr(), good), 1)
	res := g.run(windowSpec{index: 1, count: 50})
	if res.reads != 50 || res.readsOK != 45 || res.failed() != 5 {
		t.Fatalf("reads %d ok %d failed %d; want 50, 45, 5", res.reads, res.readsOK, res.failed())
	}
}

func TestAStaleVersionPastTheGraceIsAFailure(t *testing.T) {
	now := time.Now()
	d := &poolDoc{}
	d.noteIssued(3)
	d.noteAcked(2, now.Add(-5*time.Second))
	d.noteAcked(3, now.Add(-2*time.Second))
	for _, c := range []struct {
		name      string
		seen      int
		sent      time.Time
		ok, stale bool
	}{
		{"current", 3, now, true, false},
		{"previous, inside the grace", 2, now.Add(-2*time.Second + staleGrace/2), true, true},
		{"previous, past the grace", 2, now, false, false},
		{"previous, sent before the write was acknowledged", 2, now.Add(-3 * time.Second), true, false},
		{"never written", 4, now, false, false},
	} {
		if ok, stale := d.judge(c.seen, c.sent); ok != c.ok || stale != c.stale {
			t.Errorf("%s: ok %v stale %v, want %v %v", c.name, ok, stale, c.ok, c.stale)
		}
	}
}

func TestStampedDocumentChecksAtEveryVersion(t *testing.T) {
	template := []byte("<p>" + stampMark + "00000000 and the rest</p>")
	at := len("<p>" + stampMark)
	e := learn(stamp(nil, template, at, 1))
	if e.stampAt != at {
		t.Fatalf("stamp found at %d, want %d", e.stampAt, at)
	}
	if v, ok := e.check(stamp(nil, template, at, 4711)); !ok || v != 4711 {
		t.Errorf("version 4711 read as %d, ok %v", v, ok)
	}
	other := stamp(nil, template, at, 2)
	other[len(other)-5] ^= 1
	if _, ok := e.check(other); ok {
		t.Error("a changed byte outside the stamp passed the check")
	}
}

func TestReferenceWindowCountsVerifiedReplies(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go serveReference(l)
	ref := &reference{gen: testGenerator(t, referencePlan(l.Addr().String()), 4)}
	for i := 0; i < 2; i++ {
		if err := ref.window(50 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if ref.windows != 2 || ref.elapsed != 100*time.Millisecond || ref.ops == 0 {
		t.Fatalf("%d windows, %v, %d replies", ref.windows, ref.elapsed, ref.ops)
	}
	if got, want := ref.rps(), float64(ref.ops)/0.1; got != want {
		t.Errorf("rps = %v, want %v", got, want)
	}
}

func TestPercentileMedianQuartiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {0.01, 1}, {1, 10}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) || !math.IsNaN(median(nil)) {
		t.Error("an empty series has no percentile and no median")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v", got)
	}
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10.5], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10.5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
	if q1, q3 := quartiles([]float64{3, 1}); q1 != 0.5 || q3 != 3.5 {
		t.Errorf("quartiles of two = %v, %v; Python gives 0.5, 3.5", q1, q3)
	}
}

func TestQuiescenceBracket(t *testing.T) {
	text := "# HELP x\ndcws_migrations_total 3\ndcws_serve_seconds_sum{kind=\"home\"} 0.5\n" +
		"dcws_serve_seconds_bucket{kind=\"home\",le=\"0.1\"} 7\ndcws_wal_snapshots_total 1 # {trace_id=\"a\"} 0.2\n"
	before := parseExposition([]byte(text))
	if before["dcws_migrations_total"] != 3 || before[`dcws_serve_seconds_sum{kind="home"}`] != 0.5 || before["dcws_wal_snapshots_total"] != 1 {
		t.Fatalf("parsed %v", before)
	}
	if len(before) != 3 {
		t.Errorf("buckets and comments must be skipped: %v", before)
	}
	after := scrape{"dcws_migrations_total": 4, "dcws_wal_snapshots_total": 1, "dcws_fetches_total": 9}
	moved := quiescent(before, after)
	if len(moved) != 1 || moved[0] != "dcws_migrations_total +1" {
		t.Errorf("moved = %v; only the migration counter did", moved)
	}
	if moved := quiescent(after, after); moved != nil {
		t.Errorf("a frozen system reported %v", moved)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := newRecorder()
	t0 := r.epoch
	root := r.add(1, 0, "request", t0, t0.Add(100*time.Microsecond))
	r.add(1, root, "parse", t0, t0.Add(30*time.Microsecond))
	r.add(1, root, "write", t0.Add(60*time.Microsecond), t0.Add(100*time.Microsecond))
	got := map[string]time.Duration{}
	for _, s := range r.selfTimes() {
		got[s.name] = s.busy
	}
	want := map[string]time.Duration{"request": 30 * time.Microsecond, "parse": 30 * time.Microsecond, "write": 40 * time.Microsecond}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// TestSmoke runs every workload end to end on real node processes with
// windows of about a second.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real servers")
	}
	tmp := t.TempDir()
	nodeBin := filepath.Join(tmp, "node")
	if out, err := exec.Command("go", "build", "-o", nodeBin, "./node").CombinedOutput(); err != nil {
		t.Fatalf("build node: %v\n%s", err, out)
	}
	cpus, err := planCPUs()
	if err != nil {
		t.Fatal(err)
	}
	// The manifest at the root of the repository names what a run prints.
	var m struct {
		manifest
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if data, err := os.ReadFile("../BENCHMARK.json"); err != nil {
		t.Fatal(err)
	} else if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			r := &run{w: w, seed: 1, seconds: 6, nodeBin: nodeBin, cpus: cpus, dir: filepath.Join(tmp, w.name), out: filepath.Join(tmp, "out")}
			defer r.cleanup()
			res, err := r.measure()
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct %v, failed %d of %d", res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(m.EndToEnd) {
				t.Errorf("%d metrics printed, BENCHMARK.json lists %d end-to-end", len(res.Metrics), len(m.EndToEnd))
			}
			for _, em := range m.EndToEnd {
				if v, ok := res.Metrics[em.Name]; !ok || !(v.Value > 0) || v.Unit != em.Unit {
					t.Errorf("%s = %v %s; every end-to-end metric of BENCHMARK.json is printed, positive, in its unit", em.Name, v.Value, v.Unit)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		w := workloadByName("update-churn")
		r := &run{w: w, seed: 1, seconds: 6, nodeBin: nodeBin, cpus: cpus, dir: filepath.Join(tmp, "traced"), out: filepath.Join(tmp, "out")}
		defer r.cleanup()
		res, err := r.traced()
		if err != nil {
			t.Fatal(err)
		}
		if res.Failed != 0 {
			t.Errorf("%d of %d failed", res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(m.PerLayer) {
			t.Errorf("%d metrics printed, BENCHMARK.json lists %d per-layer", len(res.Metrics), len(m.PerLayer))
		}
		for _, pm := range m.PerLayer {
			if v, ok := res.Metrics[pm.Name]; !ok || v.Unit != pm.Unit {
				t.Errorf("%s: printed %v, BENCHMARK.json wants unit %s", pm.Name, v, pm.Unit)
			}
		}
		if res.Metrics["wal.appends"].Value == 0 || res.Metrics["dcws.inval_pushes"].Value == 0 {
			t.Errorf("update-churn without WAL appends or invalidation pushes: %v", res.Metrics)
		}
		if _, err := os.Stat(filepath.Join(tmp, "out", "update-churn.trace.json")); err != nil {
			t.Error(err)
		}
	})
}

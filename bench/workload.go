package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/hypertext"
	"dcws/internal/naming"
	"dcws/internal/store"
)

// workload is one traffic mix. baseRPS and limit are constants, measured
// once on the commit that added the benchmark and then frozen (README.md
// says how), so that a later commit is measured at the same offered rate
// and against the same latency limit as its parent.
type workload struct {
	name string
	why  string

	site  func() *dataset.Site
	scale float64
	nodes int           // 1: a lone home; 4: a home and three empty co-ops
	wal   bool          // durable tier on every node
	lease time.Duration // push-invalidation lease

	baseRPS float64       // offered rate of the base phase, ≈ 25 % of max_rps
	limit   time.Duration // latency limit of slo_ok_share

	writeEvery int // every n-th slot is an update (0: read-only)
	warmup     int // stream requests sent after the verified pass, a fixed count

	// stream builds the URL table and the request stream.
	stream func(s *setup, rng *rand.Rand) error
}

// streamLen is the length of the cyclic request stream of the static
// workloads; walkLen that of the recorded Algorithm-2 walk.
const (
	streamLen = 1 << 16
	walkLen   = 50000
	poolSize  = 64
)

var workloads = []workload{
	{
		name: "static-small",
		why:  "one node, 1 534 MAPUG documents of 3.8 KB, Zipf(0.9) GETs: per-request cost (httpx parse/write, graph lookup, render-cache hit, GLT header) is nearly all of the time",
		site: dataset.MAPUG, scale: 1, nodes: 1,
		baseRPS: 5000, limit: 10 * time.Millisecond, warmup: 30000,
		stream: zipfStream,
	},
	{
		name: "static-large",
		why:  "one node, 130 Sequoia rasters of 0.9 MB, uniform GETs: per-byte cost (store.GetShared, response write, copies) dominates and request parsing is under 5 %",
		site: dataset.Sequoia, scale: 0.5, nodes: 1,
		baseRPS: 1000, limit: 50 * time.Millisecond, warmup: 1500,
		stream: uniformImageStream,
	},
	{
		name: "migrated-walk",
		why:  "home plus three co-ops, SBLog with every second document migrated, a recorded Algorithm-2 walk: naming.Decode, co-op serving, rewritten links, GLT piggyback; read-only, so caches and leases stay warm",
		site: dataset.SBLog, scale: 1, nodes: 4, wal: true, lease: 30 * time.Second,
		baseRPS: 4000, limit: 20 * time.Millisecond, warmup: 10000,
		stream: walkStream,
	},
	{
		name: "update-churn",
		why:  "the same cluster and walk with every 200th slot a POST /~dcws/update: cache invalidated, store.Put, wal.Append, invalidation push, co-op refetch, regeneration under load",
		site: dataset.SBLog, scale: 1, nodes: 4, wal: true, lease: 30 * time.Second,
		baseRPS: 3500, limit: 20 * time.Millisecond, warmup: 10000,
		writeEvery: 200,
		stream:     walkStream,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// setup is a workload brought to the start of its first window: servers
// running, placement scripted and frozen, every URL seen and verified,
// caches warm, generator connections open.
type setup struct {
	w       *workload
	cluster *cluster
	site    *dataset.Site
	plan    *plan
	gen     *generator
	homeDir string // the home's document root

	elapsed   time.Duration // what setup_s reports
	migrateNs []int64       // client timing of each scripted migration
	redirects int           // 301s followed while the walk was recorded
	fetcher   *fetcher
}

// plainFiles materializes a data set as plain files. It implements only the
// Put that dataset.Site.Materialize calls: store.Dir.Put fsyncs the file and
// its directory to make an update crash-atomic, which for 1 534 start-up
// files would time the disk and not the servers.
type plainFiles struct {
	store.Store
	root string
}

func (p plainFiles) Put(name string, data []byte) error {
	file := filepath.Join(p.root, filepath.FromSlash(name))
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	return os.WriteFile(file, data, 0o644)
}

// setUp brings w to the start of its first window. dir is a fresh run
// directory it may fill; nodeBin the built launcher.
func setUp(w *workload, seed int64, nodeBin, dir string, cpus *cpuPlan, verbose bool) (_ *setup, err error) {
	start := time.Now()
	s := &setup{w: w, site: w.site(), homeDir: filepath.Join(dir, "node0", "root")}
	if err := s.site.Materialize(plainFiles{root: s.homeDir}, w.scale); err != nil {
		return nil, err
	}
	specs := make([]nodeSpec, w.nodes)
	for i := range specs {
		specs[i] = nodeSpec{wal: w.wal, lease: w.lease}
	}
	specs[0].home, specs[0].entry = true, s.site.EntryPoints
	if s.cluster, err = startCluster(nodeBin, dir, specs, cpus, verbose); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	addrs := s.cluster.addrs()
	s.fetcher = newFetcher()
	s.plan = &plan{addrs: addrs, writeEvery: w.writeEvery}

	if w.nodes > 1 {
		if err := s.scriptPlacement(); err != nil {
			return nil, err
		}
	}
	if w.writeEvery > 0 {
		if err := s.preparePool(); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	if err := w.stream(s, rng); err != nil {
		return nil, err
	}
	// Second visit of every URL of the stream: the reply must equal what
	// the first visit recorded.
	used := make(map[int32]bool)
	for _, ti := range s.plan.stream {
		used[ti] = true
	}
	for ti := range s.plan.targets {
		if !used[int32(ti)] {
			continue
		}
		t := &s.plan.targets[ti]
		resp, err := s.fetcher.get(addrs[t.srv], t.path)
		if err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", t.path, err)
		}
		if _, ok := t.exp.check(resp.body); resp.status != 200 || !ok {
			return nil, fmt.Errorf("warm-up %s: second visit (status %d, %d bytes) differs from the first (%d bytes)",
				t.path, resp.status, len(resp.body), t.exp.length)
		}
	}
	s.fetcher.close()

	// Fixed-count warm-up through the generator itself, which also opens
	// its connections.
	if s.gen, err = newGenerator(s.plan, generatorWorkers); err != nil {
		return nil, err
	}
	warm := s.gen.run(windowSpec{index: 0, count: w.warmup})
	if warm.failed() > 0 {
		warm.report(os.Stderr, "warm-up")
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed(), warm.reads+warm.writes)
	}
	s.elapsed = time.Since(start)
	return s, nil
}

func (s *setup) close() {
	if s.gen != nil {
		s.gen.close()
	}
	if s.fetcher != nil {
		s.fetcher.close()
	}
	if s.cluster != nil {
		s.cluster.stop()
	}
}

// migratedDocs returns the documents the set-up migrates: every second
// non-entry document in name order.
func migratedDocs(site *dataset.Site) []string {
	entry := make(map[string]bool)
	for _, e := range site.EntryPoints {
		entry[e] = true
	}
	var names []string
	for i := range site.Docs {
		if n := site.Docs[i].Name; !entry[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []string
	for i := 1; i < len(names); i += 2 {
		out = append(out, names[i])
	}
	return out
}

// scriptPlacement migrates every second non-entry document to the co-ops in
// rotation through the operator endpoint. After this nothing moves: the
// nodes run with the migration policy off.
func (s *setup) scriptPlacement() error {
	addrs := s.cluster.addrs()
	for i, name := range migratedDocs(s.site) {
		coop := addrs[1+i%(len(addrs)-1)]
		req := postRequest(addrs[0], "/~dcws/migrate", map[string]string{"X-DCWS-Doc": name, "X-DCWS-Fetch": coop}, nil)
		t0 := time.Now()
		resp, err := s.fetcher.do(addrs[0], req)
		if err != nil {
			return fmt.Errorf("migrate %s: %w", name, err)
		}
		if resp.status != 200 {
			return fmt.Errorf("migrate %s: status %d: %s", name, resp.status, resp.body)
		}
		s.migrateNs = append(s.migrateNs, int64(time.Since(t0)))
	}
	return nil
}

// preparePool picks the update pool — the first poolSize migrated HTML
// documents — and writes version 1 of each, so that every copy served from
// here on carries a stamp.
func (s *setup) preparePool() error {
	addrs := s.cluster.addrs()
	for _, name := range migratedDocs(s.site) {
		if len(s.plan.pool) == poolSize {
			break
		}
		if !strings.HasSuffix(name, ".html") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(s.homeDir, filepath.FromSlash(name)))
		if err != nil {
			return err
		}
		// The stamp overwrites filler text, so the document keeps its
		// length and its links.
		at := bytes.Index(src, []byte("Lorem ipsum"))
		if at < 0 || at+len(stampMark)+stampDigits > len(src) {
			return fmt.Errorf("update pool: %s has no filler text to stamp", name)
		}
		copy(src[at:], stampMark)
		doc := &poolDoc{name: name, template: src, stampAt: at + len(stampMark)}
		body := stamp(nil, doc.template, doc.stampAt, 1)
		doc.noteIssued(1)
		resp, err := s.fetcher.do(addrs[0], postRequest(addrs[0], "/~dcws/update", map[string]string{"X-DCWS-Doc": name}, body))
		if err != nil {
			return fmt.Errorf("update %s: %w", name, err)
		}
		if resp.status != 200 {
			return fmt.Errorf("update %s: status %d: %s", name, resp.status, resp.body)
		}
		doc.noteAcked(1, time.Now())
		s.plan.pool = append(s.plan.pool, doc)
	}
	if len(s.plan.pool) < poolSize {
		return fmt.Errorf("update pool: only %d migrated HTML documents", len(s.plan.pool))
	}
	return nil
}

// addTarget fetches addr+path for the first time, records what a correct
// reply looks like, and returns the target's index.
func (s *setup) addTarget(srv int, p string) (int32, []byte, error) {
	addr := s.plan.addrs[srv]
	resp, err := s.fetcher.get(addr, p)
	if err != nil {
		return 0, nil, fmt.Errorf("first visit %s%s: %w", addr, p, err)
	}
	if resp.status != 200 {
		return 0, nil, fmt.Errorf("first visit %s%s: status %d", addr, p, resp.status)
	}
	t := target{srv: srv, path: p, req: getRequest(addr, p), exp: learn(resp.body), pool: -1}
	if _, doc, err := naming.Decode(p); err == nil && t.exp.stampAt >= 0 {
		for i, d := range s.plan.pool {
			if d.name == doc {
				t.pool = i
			}
		}
	}
	s.plan.targets = append(s.plan.targets, t)
	return int32(len(s.plan.targets) - 1), resp.body, nil
}

// zipfStream: seeded Zipf(0.9) GETs over every document of the site, the
// popularity ranks assigned by a seeded shuffle.
func zipfStream(s *setup, rng *rand.Rand) error {
	names := make([]string, len(s.site.Docs))
	for i := range s.site.Docs {
		names[i] = s.site.Docs[i].Name
	}
	sort.Strings(names)
	for _, n := range names {
		if _, _, err := s.addTarget(0, n); err != nil {
			return err
		}
	}
	rank := rng.Perm(len(names)) // rank r → target
	cum := make([]float64, len(names))
	var total float64
	for r := range cum {
		total += 1 / math.Pow(float64(r+1), 0.9)
		cum[r] = total
	}
	s.plan.stream = make([]int32, streamLen)
	for i := range s.plan.stream {
		r := sort.SearchFloat64s(cum, rng.Float64()*total)
		s.plan.stream[i] = int32(rank[r])
	}
	return nil
}

// uniformImageStream: seeded uniform GETs over the site's non-HTML
// documents.
func uniformImageStream(s *setup, rng *rand.Rand) error {
	var names []string
	for i := range s.site.Docs {
		if d := &s.site.Docs[i]; !d.IsHTML() {
			names = append(names, d.Name)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		if _, _, err := s.addTarget(0, n); err != nil {
			return err
		}
	}
	s.plan.stream = make([]int32, streamLen)
	for i := range s.plan.stream {
		s.plan.stream[i] = int32(rng.Intn(len(names)))
	}
	return nil
}

// walkStream records one seeded Algorithm-2 walk (paper §5.2) as a URL
// list: start at the entry point; on each page request the embedded images
// not yet seen in this sequence, then follow a random anchor; a sequence is
// 1–25 pages, and what it already requested it does not request again (the
// client's per-sequence cache). Links are taken from the bodies the servers
// return, so they are the rewritten ones, and a 301 is followed. Each
// distinct URL is fetched once, on first touch; the walk itself is then a
// pure function of the seed and the servers' addresses.
func walkStream(s *setup, rng *rand.Rand) error {
	type page struct {
		target  int32
		anchors []string // absolute URLs
		images  []string
	}
	pages := map[string]*page{}
	srvOf := map[string]int{}
	for i, a := range s.plan.addrs {
		srvOf[a] = i
	}
	visit := func(url string) (*page, error) {
		if pg := pages[url]; pg != nil {
			return pg, nil
		}
		addr, p, err := naming.SplitURL(url)
		if err != nil {
			return nil, err
		}
		// Follow redirects by hand, to request the final URL in the windows.
		for hops := 0; ; hops++ {
			resp, err := s.fetcher.get(addr, p)
			if err != nil {
				return nil, err
			}
			if resp.status != 301 {
				break
			}
			if hops == 3 {
				return nil, fmt.Errorf("redirect loop at %s", url)
			}
			s.redirects++
			if addr, p, err = naming.SplitURL(resp.location); err != nil {
				return nil, err
			}
		}
		final := "http://" + addr + p
		if pg := pages[final]; pg != nil {
			pages[url] = pg
			return pg, nil
		}
		srv, ok := srvOf[addr]
		if !ok {
			return nil, fmt.Errorf("%s links outside the group: %s", url, final)
		}
		ti, body, err := s.addTarget(srv, p)
		if err != nil {
			return nil, err
		}
		pg := &page{target: ti}
		if strings.HasSuffix(p, ".html") {
			for _, l := range hypertext.Parse(string(body)).Links() {
				abs := resolve(addr, p, l.URL)
				if abs == "" {
					continue
				}
				if l.Kind == hypertext.LinkImage {
					pg.images = append(pg.images, abs)
				} else {
					pg.anchors = append(pg.anchors, abs)
				}
			}
		}
		pages[url], pages[final] = pg, pg
		return pg, nil
	}

	entry := "http://" + s.plan.addrs[0] + s.site.EntryPoints[0]
	for len(s.plan.stream) < walkLen {
		seen := map[int32]bool{}
		request := func(pg *page) {
			if !seen[pg.target] {
				seen[pg.target] = true
				s.plan.stream = append(s.plan.stream, pg.target)
			}
		}
		url := entry
		for steps := 1 + rng.Intn(25); steps > 0; steps-- {
			pg, err := visit(url)
			if err != nil {
				return err
			}
			request(pg)
			for _, img := range pg.images {
				ipg, err := visit(img)
				if err != nil {
					return err
				}
				request(ipg)
			}
			if len(pg.anchors) == 0 {
				break
			}
			url = pg.anchors[rng.Intn(len(pg.anchors))]
		}
	}
	s.plan.stream = s.plan.stream[:walkLen]
	return nil
}

// resolve makes a link found in the document at addr+base absolute, or
// returns "" for a link that leaves HTTP.
func resolve(addr, base, raw string) string {
	switch {
	case strings.HasPrefix(raw, "http://"):
		return raw
	case strings.Contains(raw, "://"), strings.HasPrefix(raw, "#"), strings.HasPrefix(raw, "mailto:"):
		return ""
	case strings.HasPrefix(raw, "/"):
		return "http://" + addr + raw
	default:
		return "http://" + addr + path.Join(path.Dir(base), raw)
	}
}

// fetcher is the set-up's simple client: one keep-alive connection per
// server, sequential requests.
type fetcher struct {
	conns map[string]*conn
}

func newFetcher() *fetcher { return &fetcher{conns: map[string]*conn{}} }

func (f *fetcher) close() {
	for a, c := range f.conns {
		c.close()
		delete(f.conns, a)
	}
}

func (f *fetcher) do(addr string, req []byte) (response, error) {
	c := f.conns[addr]
	if c == nil {
		var err error
		if c, err = dial(addr); err != nil {
			return response{}, err
		}
		f.conns[addr] = c
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		c.close()
		delete(f.conns, addr)
	}
	return resp, err
}

func (f *fetcher) get(addr, p string) (response, error) {
	return f.do(addr, getRequest(addr, p))
}

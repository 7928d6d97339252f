package dcws

import (
	"bytes"
	"errors"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"dcws/internal/clock"
	"dcws/internal/glt"
	"dcws/internal/graph"
	"dcws/internal/httpx"
	"dcws/internal/hypertext"
	"dcws/internal/memnet"
	"dcws/internal/metrics"
	"dcws/internal/naming"
	"dcws/internal/policy"
	"dcws/internal/resilience"
	"dcws/internal/store"
	"dcws/internal/telemetry"
	"dcws/internal/wal"
)

// Extension header names used between cooperating servers. All ride on
// ordinary HTTP messages; servers that do not understand them ignore them.
const (
	// headerFetch marks an internal home-to-coop document fetch.
	headerFetch = "X-DCWS-Fetch"
	// headerValidate carries the coop's content hash during validation
	// re-requests; the home answers 304 when it matches.
	headerValidate = "X-DCWS-Validate"
	// headerRevokeDoc names the document being revoked.
	headerRevokeDoc = "X-DCWS-Doc"
	// headerReplicas carries the document's full replica set (comma-
	// separated coop addresses) on home fetch/validation responses, so
	// each coop learns which siblings can also serve the document.
	headerReplicas = "X-DCWS-Replicas"
	// headerHedge marks a hedged fetch probing a sibling replica: the
	// sibling serves only a locally present copy and must never recurse
	// into its own fetch from the (possibly stalled) home server.
	headerHedge = "X-DCWS-Hedge"
	// headerHot carries a coop's hottest hosted documents back to homes
	// (replication extension).
	headerHot = "X-DCWS-Hot"
	// headerChain carries the remaining dissemination chain on a
	// /~dcws/replicate push or a chain revocation: a comma-separated list
	// of successor coop addresses each link relays to, CDTP-style.
	headerChain = "X-DCWS-Chain"
	// headerAcked aggregates, back up the chain, which coops stored the
	// pushed copy (or applied the revocation): each link prepends itself
	// to its successor's list before answering.
	headerAcked = "X-DCWS-Acked"
)

// Internal control paths. The "~dcws" first component cannot collide with
// stored documents, mirroring the "~migrate" convention.
const (
	pingPath      = "/~dcws/ping"
	revokePath    = "/~dcws/revoke"
	replicatePath = "/~dcws/replicate"
	subscribePath = "/~dcws/subscribe"
	statusPath    = "/~dcws/status"
	recallPath    = "/~dcws/recall"
	migratePath   = "/~dcws/migrate"
	updatePath    = "/~dcws/update"
	graphPath     = "/~dcws/graph"
	metricsPath   = "/~dcws/metrics"
	tracePath     = "/~dcws/trace"
	slowPath      = "/~dcws/slow"
	profilesPath  = "/~dcws/profiles"
)

// Settings with one value in every caller are constants here, not Params
// fields (DESIGN.md §17).
const (
	// rateWindow is the sliding window of the CPS/BPS load metrics.
	rateWindow = 10 * time.Second
	// retryMaxDelay caps the exponential backoff between RPC attempts.
	retryMaxDelay = 2 * time.Second
	// breakerCooldown is how long an open breaker waits before admitting a
	// half-open trial call.
	breakerCooldown = 30 * time.Second
	// Idle keep-alive connections kept per peer for inter-server RPCs, how
	// long one may sit unused, and how long one may live at all.
	poolMaxIdlePerPeer = 4
	poolIdleTimeout    = 30 * time.Second
	poolMaxLifetime    = 5 * time.Minute
	// walSyncInterval paces background fsyncs under the "interval" WALSync
	// policy; walSegmentBytes is the size at which the active segment
	// rotates.
	walSyncInterval = 100 * time.Millisecond
	walSegmentBytes = 16 << 20
	// walSnapshotBytes is how far the log may grow, since its last
	// snapshot or the server's start, before the next snapshot is taken
	// early, checked every walGrowthCheck: update records carry bodies,
	// and this bounds the log's disk use and the replay a restart pays.
	walSnapshotBytes = 64 << 20
	walGrowthCheck   = time.Second
)

// Config assembles a server's identity and dependencies.
type Config struct {
	// Origin is the server's address; its host:port is both the listen
	// address and the name peers use in the global load table.
	Origin naming.Origin
	// Store holds the server's home documents, and receives physically
	// migrated co-op copies under their /~migrate names.
	Store store.Store
	// Network provides Listen and Dial (real TCP or an in-memory fabric).
	Network memnet.Network
	// Clock drives every timer; tests and demos use accelerated clocks.
	Clock clock.Clock
	// EntryPoints are the well-known entry point document names (§3.1);
	// they never migrate.
	EntryPoints []string
	// Peers are the initially known cooperating servers.
	Peers []string
	// Params tunes the system; zero fields take Table 1 defaults.
	Params Params
	// Logger receives operational messages; nil discards them.
	Logger *log.Logger
	// AccessLog, when non-nil, receives one line per served request
	// including the response's trace ID, so slow requests in the log can
	// be joined against /~dcws/trace. Nil disables access logging.
	AccessLog *log.Logger
	// WALDir, when non-empty, enables the durable tier: every migration,
	// revocation, co-op admission/eviction, and document change is
	// appended to a write-ahead log in this directory, with periodic
	// full-state snapshots. On startup the server recovers from
	// snapshot+replay instead of a cold store scan, so a crashed server
	// rejoins with its hosted co-op documents still valid. Empty disables
	// the tier (state is rebuilt from the store alone).
	WALDir string
	// ProfileDir, when non-empty, is where the SLO watcher drops pprof
	// CPU+heap profile pairs on sustained burn-rate alerts (a bounded ring
	// of Params.ProfileRingSize captures, served at /~dcws/profiles).
	// Empty disables automatic profile capture.
	ProfileDir string
}

// Server is one DCWS node.
//
// Shared state is decomposed into independently locked pieces so the
// request hot path never serializes behind maintenance work: coops (the
// co-op core: hosted copies with their LRU, and peer health), rcache (the
// rendered-document cache, itself sharded), replicas (the replica sets),
// pushMu for chains in flight; the control plane (ctl) locks its own
// hot-document state.
type Server struct {
	cfg    Config
	params Params
	log    *log.Logger
	addr   string // cached Origin.Addr()

	// files is cfg.Store when it opens documents as files (store.Dir),
	// else nil: bodies of at least store.LargeBody then leave by
	// sendfile (handler.go, sendsFile).
	files store.FileOpener

	ldg *graph.LDG
	// resolve is originResolver(cfg.Origin), the one link resolver of
	// every graph write and link rewrite.
	resolve func(base, raw string) string
	table   *glt.Table
	stats   *metrics.ServerStats
	ledger  *policy.Ledger
	// ctl decides every migration, replication, shrink and revocation
	// (control.go); this server is its Plant (maintenance.go). It shares
	// table and ledger.
	ctl    *Controller
	client *httpx.Client
	res    *resilience.Registry
	rcache *renderCache
	// coops is the co-op core (coop.go): hosted copies, validation and
	// peer health; this server carries its requests.
	coops *Coop
	tel   *serverTelemetry
	slo   *sloWatcher

	// hub is the home side of push invalidation (subscriber table and
	// fan-out); subs the co-op side (outbound subscription channels).
	hub  *invalHub
	subs *subManager

	// fetchPolicy retries lazy-migration fetches; probePolicy retries
	// pinger probes inside one tick (both derived from Params).
	fetchPolicy resilience.Policy
	probePolicy resilience.Policy

	httpSrv *httpx.Server

	replicas *ReplicaTable
	// pushing: doc -> the links a chain push is in flight to. A link may
	// subscribe to its new copy before the acks come back and the replica
	// set names it; hostsCopy lets it.
	pushMu  sync.RWMutex
	pushing map[string][]string
	// fetching: co-op key -> the lazy fetch in flight for it, which
	// concurrent first touches of the key wait for (fetchOnce).
	fetchMu  sync.Mutex
	fetching map[string]*fetchCall

	// capMu guards the measured service capacity (docs/s) and the serve-
	// histogram totals the per-tick delta is computed against. See
	// capacity.go.
	capMu        sync.Mutex
	capacity     float64
	capLastCount int64
	capLastSum   time.Duration

	wal      *wal.Log // nil when the durable tier is disabled
	recovery recoveryStats
	// staged holds the home-document bodies durable only in the WAL until
	// the next snapshot (durability.go; nil without a WAL). updMu orders
	// updates and deletes of home documents with their WAL records,
	// regeneration's write-back, and the snapshot's flush of staged
	// bodies.
	staged *store.Mem
	updMu  sync.Mutex
	// snapAppended is the log's AppendedBytes (counted from the server's
	// start) at the newest snapshot's covered LSN.
	snapAppended atomic.Int64

	startOnce sync.Once
	stopOnce  sync.Once
	walOnce   sync.Once
	stopped   chan struct{}
	wg        sync.WaitGroup
}

// New builds a server: it scans the store, parses every HTML document, and
// constructs the local document graph (§3.3: "computed upon initialization
// of the web server by scanning its disk and parsing the documents").
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("dcws: Config.Store is required")
	}
	if cfg.Network == nil {
		return nil, errors.New("dcws: Config.Network is required")
	}
	if cfg.Origin.Host == "" || cfg.Origin.Port <= 0 {
		return nil, errors.New("dcws: Config.Origin is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	params := cfg.Params.WithDefaults()

	// Build with the origin-aware resolver: documents regenerated by a
	// previous run may carry absolute ~migrate URLs for this server's own
	// content, and those links must survive a restart as graph edges.
	resolver := originResolver(cfg.Origin)

	// With a WAL configured, startup state comes from snapshot+replay —
	// the §4.5 fast-rejoin path: migrations, hosted co-op copies, and
	// replica sets all survive a crash, so peers' revocation timers never
	// fire. Without one, the graph is rebuilt by the cold store scan.
	var (
		wlog     *wal.Log
		rec      *recoveredState
		recStats recoveryStats
	)
	recStart := time.Now()
	if cfg.WALDir != "" {
		syncPolicy, err := wal.ParseSyncPolicy(params.WALSync)
		if err != nil {
			return nil, fmt.Errorf("dcws: %w", err)
		}
		wlog, err = wal.Open(wal.Options{
			Dir:          cfg.WALDir,
			SegmentBytes: walSegmentBytes,
			Sync:         syncPolicy,
			SyncInterval: walSyncInterval,
			Logger:       cfg.Logger,
		})
		if err != nil {
			return nil, fmt.Errorf("dcws: open WAL: %w", err)
		}
		rec, err = recoverState(wlog, cfg.Store, resolver)
		if err != nil {
			wlog.Close()
			return nil, err
		}
		reconcileStart := time.Now()
		if err := rec.reconcile(cfg.Store, &recStats, resolver); err != nil {
			wlog.Close()
			return nil, fmt.Errorf("dcws: reconcile recovered state: %w", err)
		}
		recStats.reconcileDur = time.Since(reconcileStart)
		recStats.recovered = rec.fromSnapshot || rec.replayed > 0
		recStats.replayed = rec.replayed
		recStats.snapshotLSN = rec.snapshotLSN
		recStats.snapshotDur = rec.snapshotDur
		recStats.replayDur = rec.replayDur
	}
	var ldg *graph.LDG
	if rec != nil {
		ldg = rec.ldg
	} else {
		var err error
		ldg, err = graph.BuildWithResolver(cfg.Store, resolver)
		if err != nil {
			return nil, fmt.Errorf("dcws: build document graph: %w", err)
		}
	}
	for _, ep := range cfg.EntryPoints {
		name, err := store.CleanName(ep)
		if err != nil {
			return nil, fmt.Errorf("dcws: entry point %q: %w", ep, err)
		}
		if !ldg.Has(name) {
			return nil, fmt.Errorf("dcws: entry point %q not in store", ep)
		}
		if err := ldg.SetEntryPoint(name, true); err != nil {
			return nil, err
		}
	}

	self := cfg.Origin.Addr()
	table := glt.NewTable(self)
	for _, p := range cfg.Peers {
		if p != self {
			table.Observe(glt.Entry{Server: p, Load: 0, Updated: time.Time{}})
		}
	}
	if rec != nil {
		// Peers remembered in the snapshot rejoin the table with no
		// timestamp (their load is unknown until gossip resumes), so a
		// restarted server knows the cluster even when its static peer
		// list is incomplete.
		for _, p := range rec.peers {
			if p != self {
				table.Observe(glt.Entry{Server: p, Load: 0, Updated: time.Time{}})
			}
		}
	}

	ledger := policy.NewLedger()
	replicas := NewReplicaTable(params.Zone, table)
	if rec != nil {
		ledger = rec.ledger
		for doc, reps := range rec.replicas {
			replicas.Set(doc, reps)
		}
	}

	logger := cfg.Logger
	if logger == nil {
		logger = log.New(discard{}, "", 0)
	}
	files, _ := cfg.Store.(store.FileOpener)

	s := &Server{
		cfg:     cfg,
		params:  params,
		log:     logger,
		addr:    self,
		files:   files,
		ldg:     ldg,
		resolve: resolver,
		table:   table,
		stats:   metrics.NewServerStats(rateWindow),
		ledger:  ledger,
		client: httpx.NewPooledClient(httpx.DialerFunc(cfg.Network.Dial), httpx.PoolConfig{
			MaxIdlePerHost: poolMaxIdlePerPeer,
			IdleTimeout:    poolIdleTimeout,
			MaxLifetime:    poolMaxLifetime,
		}),
		res: resilience.NewRegistry(cfg.Clock, resilience.BreakerConfig{
			FailureThreshold: params.BreakerThreshold,
			Cooldown:         breakerCooldown,
		}),
		fetchPolicy: resilience.Policy{
			MaxAttempts: params.FetchAttempts,
			BaseDelay:   params.RetryBaseDelay,
			MaxDelay:    retryMaxDelay,
			Jitter:      0.5,
		},
		probePolicy: resilience.Policy{
			MaxAttempts: params.ProbeAttempts,
			BaseDelay:   params.RetryBaseDelay,
			MaxDelay:    retryMaxDelay,
			Jitter:      0.5,
		},
		rcache:   newRenderCache(renderCacheBytes),
		coops:    NewCoop(params, table),
		tel:      newServerTelemetry(),
		wal:      wlog,
		replicas: replicas,
		pushing:  make(map[string][]string),
		fetching: make(map[string]*fetchCall),
		stopped:  make(chan struct{}),
	}
	if wlog != nil {
		s.staged = store.NewMem()
		for name, body := range rec.staged {
			s.staged.Put(name, body) // a Mem put of a clean name cannot fail
		}
	}
	s.ctl = &Controller{
		Self:   self,
		Params: params,
		Plant:  plant{s},
		Graph:  ldg,
		Table:  table,
		Ledger: ledger,
		Gate:   policy.NewRateGate(params.StatsInterval, params.CoopMigrateInterval),
	}
	// A tripped breaker means the peer's recent calls all failed: idle
	// pooled connections to it are equally suspect, so flush them and let
	// recovery re-dial fresh.
	s.res.OnTrip(func(peer string) { s.client.Pool.FlushAddr(peer) })
	s.httpSrv = httpx.NewServer(httpx.ServerConfig{
		Workers:     params.Workers,
		QueueLength: params.QueueLength,
		KeepAlive:   true,
		Observer:    s.tel,
		AccessLog:   cfg.AccessLog,
		TraceHeader: telemetry.TraceHeader,
	}, httpx.HandlerFunc(s.handle))
	s.tel.reg.SetSeriesLimit(params.MetricsSeriesLimit)
	if rec != nil {
		for _, seed := range rec.coops {
			s.coops.restore(*seed)
		}
		recStats.seconds = time.Since(recStart).Seconds()
		s.recovery = recStats
		if recStats.recovered {
			s.log.Printf("dcws %s: recovered in %.3fs: snapshot LSN %d, %d records replayed, %d coop docs restored (%d dropped), %d home docs rescanned",
				s.Addr(), recStats.seconds, recStats.snapshotLSN, recStats.replayed,
				recStats.coopRestored, recStats.coopDropped, recStats.docsRestored)
		}
		// Record the startup recovery as a trace: one root span plus one
		// child per phase. The phases ran before the telemetry ring was
		// built, so they are recorded retroactively from buffered timings;
		// `dcwsctl trace` shows where a slow rejoin spent its time.
		root := telemetry.NewSpan(telemetry.NewTraceID(), "", self, "recovery")
		root.Start = s.now()
		root.Duration = time.Since(recStart)
		for _, ph := range []struct {
			op  string
			dur time.Duration
		}{
			{"snapshot-load", recStats.snapshotDur},
			{"replay", recStats.replayDur},
			{"reconcile", recStats.reconcileDur},
		} {
			child := root.Child(ph.op)
			child.Start = root.Start
			child.Duration = ph.dur
			s.tel.record(child)
		}
		s.tel.record(root)
	}
	s.hub = newInvalHub(s)
	s.subs = newSubManager(s)
	if rec != nil {
		// Recovered subscribers rejoin disconnected; their reconnect
		// triggers catch-up invalidations for whatever changed meanwhile.
		for addr, docs := range rec.subscribers {
			s.hub.restore(addr, docs)
		}
	}
	s.slo = newSLOWatcher(s)
	// Seed the capacity estimate (and the gossiped capacity/zone self
	// metadata) before the listener opens, so the very first piggybacked
	// header already carries normalized load.
	s.calibrateCapacity()
	if !s.params.CapacityEnabled() && s.params.Zone != "" {
		s.table.SetSelfInfo(0, s.params.Zone)
	}
	s.tel.bindServer(s)
	return s, nil
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// Addr returns the server's host:port identity.
func (s *Server) Addr() string { return s.addr }

// Origin returns the server's origin.
func (s *Server) Origin() naming.Origin { return s.cfg.Origin }

// Start begins listening and launches the statistics, pinger, and
// validator threads. It returns once the listener is active.
func (s *Server) Start() error {
	var startErr error
	s.startOnce.Do(func() {
		if startErr = s.listenAndServe(); startErr == nil {
			s.startLoops()
		}
	})
	return startErr
}

// listenAndServe opens the listener and serves it in the background.
func (s *Server) listenAndServe() error {
	l, err := s.cfg.Network.Listen(s.Addr())
	if err != nil {
		return fmt.Errorf("dcws: listen %s: %w", s.Addr(), err)
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.httpSrv.Serve(l); err != nil {
			s.log.Printf("dcws %s: serve: %v", s.Addr(), err)
		}
	}()
	return nil
}

// startLoops launches the background maintenance: the statistics module
// (§5.1), the pinger and the co-op validator (§4.5), then the loops of the
// extensions that are switched on.
func (s *Server) startLoops() {
	s.every(s.params.StatsInterval, s.TickStats)
	s.every(s.params.PingerInterval, s.TickPinger)
	s.every(s.params.ValidateInterval, s.TickValidator)
	if s.params.AntiEntropyInterval > 0 {
		s.every(s.params.AntiEntropyInterval, s.TickAntiEntropy)
	}
	if s.wal != nil && s.params.SnapshotInterval > 0 {
		// writeSnapshot logs its own failure; the next round retries.
		s.every(s.params.SnapshotInterval, func() { _ = s.writeSnapshot() })
		s.every(walGrowthCheck, func() {
			if s.wal.AppendedBytes()-s.snapAppended.Load() >= walSnapshotBytes {
				_ = s.writeSnapshot()
			}
		})
	}
	if s.params.SLOCheckInterval > 0 {
		s.every(s.params.SLOCheckInterval, s.TickSLO)
	}
	if s.params.LeaseDuration > 0 {
		// Re-subscribe for every home we host recovered documents for;
		// fresh admissions subscribe from their own fetch paths.
		for _, home := range s.coops.homes() {
			s.subs.ensureSubscribed(home)
		}
	}
	s.log.Printf("dcws %s: started with %d documents", s.Addr(), s.ldg.Len())
}

// every starts a maintenance loop: tick runs each time wait has elapsed
// on the server's clock, until the server stops.
func (s *Server) every(wait time.Duration, tick func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for {
			select {
			case <-s.stopped:
				return
			case <-s.cfg.Clock.After(wait):
			}
			tick()
		}
	}()
}

// Close stops the server and waits for its threads. With a WAL it writes
// a final state snapshot and syncs the log, so the next startup recovers
// instantly with zero replay.
func (s *Server) Close() error { return s.shutdown(false) }

// Abort stops the server WITHOUT the final snapshot or WAL sync — the
// crash-simulation path: whatever reached the log (one write(2) call per
// append) is what recovery gets, exactly as after a kill -9.
func (s *Server) Abort() error { return s.shutdown(true) }

func (s *Server) shutdown(abort bool) error {
	s.stopOnce.Do(func() {
		close(s.stopped)
		// Force-close upgraded subscription connections on both sides so
		// their reader goroutines unblock before wg.Wait below.
		s.hub.closeAll()
		s.subs.closeAll()
		s.httpSrv.Close()
		s.client.CloseIdle()
	})
	s.wg.Wait()
	if s.wal != nil {
		s.walOnce.Do(func() {
			if abort {
				s.wal.Abandon()
				return
			}
			s.writeSnapshot()
			if err := s.wal.Close(); err != nil {
				s.log.Printf("dcws %s: close WAL: %v", s.Addr(), err)
			}
		})
	}
	return nil
}

// Graph exposes the local document graph for inspection (status tooling,
// tests, experiments).
func (s *Server) Graph() *graph.LDG { return s.ldg }

// LoadTable exposes the server's view of the global load table.
func (s *Server) LoadTable() *glt.Table { return s.table }

// Stats exposes the server's traffic counters.
func (s *Server) Stats() *metrics.ServerStats { return s.stats }

// Migrations exposes the home-side migration ledger.
func (s *Server) Migrations() *policy.Ledger { return s.ledger }

// Coop exposes the co-op core: hosted copies and peer health (status
// tooling, tests).
func (s *Server) Coop() *Coop { return s.coops }

// CoopDocCount reports how many documents this server currently hosts on
// behalf of other servers (physically present or pending lazy fetch).
func (s *Server) CoopDocCount() int { return s.coops.count() }

// CacheCounts reports the rendered-document cache's cumulative hits and
// misses.
func (s *Server) CacheCounts() (hits, misses int64) { return s.rcache.counts() }

// UpdateDocument replaces a home document's content at run time (the
// administrator edit case of §4.5). The body is parsed once: its resolved
// links replace the document's in the LDG and, when a co-op may host the
// document, the same parse renders the copy co-ops refetch, cached under
// the new generation. An invalidation is then pushed at once to every
// co-op subscribed to this home (leases on, DESIGN §15); a co-op without a
// live subscription finds the change at its next validation.
//
// With a WAL the update's one durable write is its recDocPut, which
// carries the body: the update returns once the record is as durable as
// Params.WALSync promises (DESIGN §12), and the body is staged until the
// next snapshot writes it to the store. Should the record fail, the body
// is written to the store at once. Without a WAL the store is the only
// durable copy, and the body is written through Store.Put. The durable
// write comes first: when it fails the update changes nothing and returns
// the error. Only a failed sync under "always", found after the update
// took effect, can leave it applied but not durable (commitUpdate).
func (s *Server) UpdateDocument(name string, content []byte) error {
	cleaned, err := store.CleanName(name)
	if err != nil {
		return err
	}
	body := bytes.Clone(content) // the render cache may keep it
	var doc *hypertext.Document
	var linkTo []string
	if graph.IsHTML(cleaned) {
		doc = hypertext.Parse(string(body))
		linkTo = graph.LinkTargets(cleaned, doc, s.resolve)
	}
	s.updMu.Lock()
	var lsn uint64
	if s.wal == nil {
		err = s.cfg.Store.Put(cleaned, body)
	} else if lsn, err = s.wal.Write(recDocPut, encodeDocPut(cleaned, body)); err == nil {
		s.staged.Put(cleaned, body) // a Mem put of a clean name cannot fail
	} else {
		err = s.storeUnloggedLocked(cleaned, body, err)
	}
	if err != nil {
		s.updMu.Unlock()
		return err
	}
	gen := s.ldg.AddDoc(cleaned, int64(len(body)), linkTo)
	s.rcache.invalidate(cleaned)
	s.updMu.Unlock()
	if lsn != 0 {
		// Waiting outside updMu lets concurrent updates share one
		// group-committed fsync under "always", and keeps regeneration's
		// write-back from waiting on it.
		if err := s.commitUpdate(cleaned, lsn); err != nil {
			return err
		}
	}
	// Push invalidation: subscribed co-ops learn of the change now, not at
	// their next validation tick, and receive the co-op copy with it.
	// Only its hash stays here.
	var cp *shippedCopy
	if s.copiesOut(cleaned) {
		cp = &shippedCopy{gen: gen, body: body}
		if doc != nil {
			cp.body = s.migrationCopy(cleaned, doc, body)
		}
		cp.hash = contentHash(cp.body)
		s.rcache.putCopyHash(cleaned, gen, cp.hash)
	}
	s.hub.pushUpdate(cleaned, cp)
	return nil
}

// commitUpdate waits for the update record at lsn to be as durable as
// WALSync promises. Should the sync fail, the body staged for name now,
// the record's or a later update's, is written to the store instead; if
// that fails too, the update is applied but not durable, and the error
// says so.
func (s *Server) commitUpdate(name string, lsn uint64) error {
	err := s.wal.Commit(lsn)
	if err == nil {
		return nil
	}
	s.updMu.Lock()
	defer s.updMu.Unlock()
	data, ok := s.stagedBody(name)
	if !ok {
		return nil // deleted since, or a snapshot wrote it to the store
	}
	if err := s.storeUnloggedLocked(name, data, err); err != nil {
		return fmt.Errorf("dcws: update %s applied but not durable: %w", name, err)
	}
	return nil
}

// storeUnloggedLocked writes through Store.Put an update body whose
// recDocPut failed with recErr (a body over the WAL's record bound, a
// failed write or sync), and unstages any other body, which would shadow
// the file. A record of the name alone then tells replay that the store
// holds the body, so the older body's record is not replayed over it.
// updMu must be held.
func (s *Server) storeUnloggedLocked(name string, body []byte, recErr error) error {
	s.log.Printf("dcws %s: wal record for %s: %v; writing it to the store", s.Addr(), name, recErr)
	if err := s.cfg.Store.Put(name, body); err != nil {
		return fmt.Errorf("dcws: update %s not stored: %w", name, err)
	}
	s.staged.Delete(name) // a Mem delete cannot fail
	s.walAppend(recDocPut, encodeNameRecord(name))
	return nil
}

// DeleteDocument removes a home document at run time. Subscribed co-ops
// hosting a copy are told at once and drop it (leases on, DESIGN §15);
// others learn of the removal through their next validation pass.
func (s *Server) DeleteDocument(name string) error {
	cleaned, err := store.CleanName(name)
	if err != nil {
		return err
	}
	s.updMu.Lock()
	if err := s.cfg.Store.Delete(cleaned); err != nil {
		s.updMu.Unlock()
		return err
	}
	if s.staged != nil {
		s.staged.Delete(cleaned) // a Mem delete cannot fail
	}
	s.ldg.Remove(cleaned)
	s.rcache.invalidate(cleaned)
	s.walAppend(recDocDelete, encodeNameRecord(cleaned))
	s.updMu.Unlock()
	s.ctl.Forget(cleaned)
	s.replicas.Set(cleaned, nil)
	s.hub.push(invalDelete, []string{cleaned}, nil)
	return nil
}

// now returns the current time on the configured clock.
func (s *Server) now() time.Time { return s.cfg.Clock.Now() }

// Resilience exposes the per-peer breaker registry and its counters
// (status endpoint, operational tooling, tests).
func (s *Server) Resilience() *resilience.Registry { return s.res }

// How the advertised load is formed and gossiped.
const (
	// queueLoadFactor is how many load units each connection backlogged in
	// the socket queue adds to the CPS/BPS rate.
	queueLoadFactor = 1.0
	// MaxPiggybackEntries caps how many load entries one inter-server
	// X-DCWS-Load delta carries, keeping header size near-constant as the
	// cluster grows; entries the peer has not acked queue stalest-first
	// for later responses. Exported for the simulator, which gossips
	// through the same codec.
	MaxPiggybackEntries = 12
)

// loadMetric reports this server's current load for the global load
// table: the paper's CPS/BPS rate plus the queue-aware shedding term, so
// a saturated server looks hot to its peers (and to its own migration
// trigger) before it starts dropping connections.
func (s *Server) loadMetric(now time.Time) float64 {
	load := s.stats.LoadMetric(now, s.params.UseBPSMetric)
	if d := s.httpSrv.QueueDepth(); d > 0 {
		load += queueLoadFactor * float64(d)
	}
	return load
}

// piggybackTo attaches the load-table delta this peer has not yet acked
// to an outgoing header map. It only encodes: the statistics tick is the
// one publisher of the self entry, so between ticks the table version is
// unchanged and the per-peer encoding cache answers with a compare.
func (s *Server) piggybackTo(h httpx.Header, peer string) {
	h.Set(glt.HeaderName, s.table.EncodePiggybackTo(peer, s.now(), MaxPiggybackEntries, false))
}

// absorbPiggyback merges piggybacked load information from an incoming
// header map through the co-op core, which also notes the direct contact
// and re-admits a declared-down sender (Coop.Absorb), and returns the
// decoded piggyback — sender address and any per-shard digests — so
// callers that speak the digest protocol can see what the sender asked
// for.
func (s *Server) absorbPiggyback(h httpx.Header) glt.Piggyback {
	var p glt.Piggyback
	if v := h.Get(glt.HeaderName); v != "" {
		p = glt.DecodePiggyback(v)
		for _, peer := range s.coops.Absorb(p, s.now()) {
			s.res.Reset(peer)
			s.log.Printf("dcws %s: peer %s recovered, re-admitted to load table", s.Addr(), peer)
		}
	}
	s.absorbHot(h)
	return p
}

// peerSuspect reports whether peer is in the suspect window: the co-op
// core holds probe failures or a down declaration against it
// (Coop.Suspect), or its circuit breaker is not closed.
func (s *Server) peerSuspect(peer string) bool {
	return s.coops.Suspect(peer) || s.res.StateOf(peer) != resilience.Closed
}

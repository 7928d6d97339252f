package dcws

import (
	"bytes"
	"encoding/json"
	"strconv"
	"sync"
	"time"

	"dcws/internal/glt"
	"dcws/internal/httpx"
	"dcws/internal/metrics"
	"dcws/internal/resilience"
	"dcws/internal/store"
	"dcws/internal/telemetry"
	"dcws/internal/wal"
)

// Sizes of the two span rings and the duration that makes a span slow.
const (
	traceRingSize      = 512
	tailRingSize       = 256
	slowTraceThreshold = 500 * time.Millisecond
)

// serverTelemetry owns one server's metrics registry and trace-span ring
// and implements httpx.Observer so the wire layer reports into it. Hot-path
// series (request counters, latency histograms) are plain fields observed
// directly; everything the server already counts elsewhere (ServerStats,
// the render cache, the GLT, the breaker registry) is promoted into the
// registry as scrape-time functions by bindServer, so no existing counter
// had to be rewritten to become scrapeable.
type serverTelemetry struct {
	reg  *telemetry.Registry
	ring *telemetry.Ring
	// tail is the tail-retention ring: every span that ended in an error,
	// and every span at least slowTraceThreshold long, is copied here.
	// Only such spans compete for tail slots, so the evidence of a
	// tail-latency incident survives long after ordinary traffic has
	// wrapped the main ring.
	tail *telemetry.Ring

	// httpx layer (fed by the Observer callbacks).
	queued     *telemetry.Counter
	shed       *telemetry.Counter
	bytesIn    *telemetry.Counter
	bytesOut   *telemetry.Counter
	queueWait  *metrics.Histogram
	reqSeconds *metrics.Histogram
	respCodes  sync.Map // int -> *telemetry.Counter

	// dcws serving layer.
	serveHome    *metrics.Histogram
	serveCoop    *metrics.Histogram
	serveFetch   *metrics.Histogram
	regenSeconds *metrics.Histogram

	// Maintenance threads.
	migrations      *telemetry.Counter
	revokes         *telemetry.Counter
	recalls         *telemetry.Counter
	declaredDown    *telemetry.Counter
	validatorPasses *telemetry.Counter
	// antiEntropyRounds counts exchanges initiated by this server's
	// anti-entropy thread.
	antiEntropyRounds *telemetry.Counter

	// Hedged lazy-migration fetches. Every launched hedge ends up counted
	// exactly once: won (sibling answered 200 first), miss (sibling
	// answered but had no usable copy), or wasted (the primary prevailed
	// over an in-flight or failed hedge leg). The miss/wasted split keeps
	// HedgeDelay tunable: misses mean the sibling list is stale, wasted
	// legs mean the delay fires too early.
	hedgeLaunched *telemetry.Counter
	hedgeWon      *telemetry.Counter
	hedgeMiss     *telemetry.Counter
	hedgeWasted   *telemetry.Counter

	// Proactive chain replication. pushes/pushBytes measure the home's
	// upload cost (the number the chain exists to keep flat); relays and
	// stored count the work the co-op side absorbs; chainSkips count dead
	// links promoted past. Revocation reuses the chain: revokeChains are
	// chain-ordered fan-outs, revokeFallbacks the per-peer revokes still
	// needed for hosts the chain did not reach.
	replicateTriggers        *telemetry.Counter
	replicatePushes          *telemetry.Counter
	replicatePushBytes       *telemetry.Counter
	replicateRelays          *telemetry.Counter
	replicateStored          *telemetry.Counter
	replicateChainSkips      *telemetry.Counter
	replicateRevokeChains    *telemetry.Counter
	replicateRevokeFallbacks *telemetry.Counter

	// Push invalidation with leases. On the home: pushes sent and acks
	// received. On the co-op: frames received, reconnect attempts, copies
	// skipped by the validator under lease cover vs polls actually issued,
	// and requests failed closed on an expired lease with the home
	// unreachable. replicateShrinks counts chains partially shrunk by the
	// warm-document T_home path.
	invalPushes       *telemetry.Counter
	invalAcks         *telemetry.Counter
	invalCopies       *telemetry.Counter
	invalReceived     *telemetry.Counter
	invalReconnects   *telemetry.Counter
	invalLeaseExpired *telemetry.Counter
	invalLeaseSkips   *telemetry.Counter
	validatePolls     *telemetry.Counter
	replicateShrinks  *telemetry.Counter

	// Batched and version-numbered invalidation frames: multi-document
	// frames sent (and how many docs they carried), sequence gaps a co-op
	// detected on a live channel, and the inventory resyncs those gaps
	// triggered.
	invalBatches   *telemetry.Counter
	invalBatchDocs *telemetry.Counter
	invalGaps      *telemetry.Counter

	// Digest anti-entropy: push-pull digest rounds completed by this
	// requester, digest requests answered as responder, stripes of entries
	// shipped in either direction, and push-back third legs.
	digestRounds     *telemetry.Counter
	digestResponses  *telemetry.Counter
	digestShardsSent *telemetry.Counter
	digestPushbacks  *telemetry.Counter
}

func newServerTelemetry() *serverTelemetry {
	reg := telemetry.NewRegistry()
	t := &serverTelemetry{
		reg:  reg,
		ring: telemetry.NewRing(traceRingSize),
		tail: telemetry.NewRing(tailRingSize),
	}

	t.queued = reg.Counter("dcws_httpx_connections_queued_total",
		"accepted connections that entered the socket queue")
	t.shed = reg.Counter("dcws_httpx_connections_shed_total",
		"connections answered 503 because the socket queue was full")
	t.bytesIn = reg.Counter("dcws_httpx_bytes_in_total",
		"bytes read from client connections")
	t.bytesOut = reg.Counter("dcws_httpx_bytes_out_total",
		"bytes written to client connections")
	t.queueWait = reg.Histogram("dcws_httpx_queue_wait_seconds",
		"time accepted connections waited in the socket queue for a worker")
	t.reqSeconds = reg.Histogram("dcws_httpx_request_seconds",
		"request-parsed to response-written latency at the wire layer")

	t.serveHome = reg.Histogram("dcws_serve_seconds",
		"document-serving latency by role", telemetry.Label{Key: "kind", Value: "home"})
	t.serveCoop = reg.Histogram("dcws_serve_seconds",
		"document-serving latency by role", telemetry.Label{Key: "kind", Value: "coop"})
	t.serveFetch = reg.Histogram("dcws_serve_seconds",
		"document-serving latency by role", telemetry.Label{Key: "kind", Value: "fetch"})
	t.regenSeconds = reg.Histogram("dcws_regenerate_seconds",
		"hyperlink regeneration cost per dirty document")

	t.migrations = reg.Counter("dcws_migrations_total",
		"documents logically migrated to a co-op server")
	t.revokes = reg.Counter("dcws_revokes_total",
		"documents revoked back to this home server")
	t.recalls = reg.Counter("dcws_recalls_total",
		"recall operations run against a co-op server")
	t.declaredDown = reg.Counter("dcws_peers_declared_down_total",
		"peers declared down after repeated probe failures")
	t.validatorPasses = reg.Counter("dcws_validator_passes_total",
		"co-op validation passes completed")
	t.antiEntropyRounds = reg.Counter("dcws_glt_anti_entropy_rounds_total",
		"anti-entropy exchanges initiated as the delta-piggyback safety net")

	t.hedgeLaunched = reg.Counter("dcws_hedge_launched_total",
		"hedge legs raced against a slow or failing home-server fetch")
	t.hedgeWon = reg.Counter("dcws_hedge_won_total",
		"hedged fetches answered by the sibling replica first")
	t.hedgeMiss = reg.Counter("dcws_hedge_miss_total",
		"hedge probes answered by a sibling that had no usable copy")
	t.hedgeWasted = reg.Counter("dcws_hedge_wasted_total",
		"hedge legs that lost the race to the primary or errored outright")

	t.replicateTriggers = reg.Counter("dcws_replicate_hot_triggers_total",
		"chain disseminations started because a document's serve-rate EWMA crossed the replication threshold")
	t.replicatePushes = reg.Counter("dcws_replicate_pushes_total",
		"chain uploads sent by this home server (one per dissemination round)")
	t.replicatePushBytes = reg.Counter("dcws_replicate_push_bytes_total",
		"document bytes uploaded by this home server into dissemination chains")
	t.replicateRelays = reg.Counter("dcws_replicate_relays_total",
		"chain pushes this co-op relayed onward to its successor")
	t.replicateStored = reg.Counter("dcws_replicate_stored_total",
		"replica copies stored on this co-op via chain pushes")
	t.replicateChainSkips = reg.Counter("dcws_replicate_chain_skips_total",
		"unreachable chain links skipped during pushes, relays, or revocations")
	t.replicateRevokeChains = reg.Counter("dcws_replicate_revoke_chains_total",
		"revocations fanned out along the replica chain")
	t.replicateRevokeFallbacks = reg.Counter("dcws_replicate_revoke_fallbacks_total",
		"per-peer fallback revokes for hosts the revocation chain missed")

	t.invalPushes = reg.Counter("dcws_invalidate_pushes_total",
		"invalidation frames pushed to subscribed co-ops by this home server")
	t.invalAcks = reg.Counter("dcws_invalidate_acks_total",
		"invalidation acks received back from subscribed co-ops")
	t.invalCopies = reg.Counter("dcws_invalidate_copies_total",
		"invalidation frames that shipped the updated co-op copy itself")
	t.invalReceived = reg.Counter("dcws_invalidate_received_total",
		"invalidation frames received over home subscription channels")
	t.invalReconnects = reg.Counter("dcws_invalidate_reconnects_total",
		"subscription channel connect attempts after a failure or drop")
	t.invalLeaseExpired = reg.Counter("dcws_invalidate_lease_expired_total",
		"requests failed closed because the copy's lease expired with the home unreachable")
	t.invalLeaseSkips = reg.Counter("dcws_invalidate_lease_skips_total",
		"validator polls skipped because the copy held a live lease on a live channel")
	t.validatePolls = reg.Counter("dcws_validate_polls_total",
		"conditional-GET validation polls issued by the periodic validator")
	t.replicateShrinks = reg.Counter("dcws_replicate_shrinks_total",
		"replica chains partially shrunk after T_home expiry of a warm document")

	t.invalBatches = reg.Counter("dcws_invalidate_batches_total",
		"multi-document invalidation frames pushed (one per subscriber per storm)")
	t.invalBatchDocs = reg.Counter("dcws_invalidate_batch_docs_total",
		"documents carried inside batched invalidation frames")
	t.invalGaps = reg.Counter("dcws_invalidate_gaps_total",
		"sequence gaps detected on live subscription channels (each forces an inventory resync)")

	t.digestRounds = reg.Counter("dcws_glt_digest_rounds_total",
		"anti-entropy rounds completed via the per-shard digest protocol")
	t.digestResponses = reg.Counter("dcws_glt_digest_responses_total",
		"digest anti-entropy requests answered as the responder")
	t.digestShardsSent = reg.Counter("dcws_glt_digest_shards_sent_total",
		"diverged table stripes whose entries were shipped during digest exchanges")
	t.digestPushbacks = reg.Counter("dcws_glt_digest_pushbacks_total",
		"third-leg pushes of stripes where this side was fresher than the responder")
	return t
}

// record files one finished span: always into the main ring, and into the
// tail-retention ring when it ended in an error or ran slow.
func (t *serverTelemetry) record(sp telemetry.Span) {
	t.ring.Record(sp)
	if sp.Err != "" || sp.Duration >= slowTraceThreshold {
		t.tail.Record(sp)
	}
}

// ConnQueued implements httpx.Observer.
func (t *serverTelemetry) ConnQueued() { t.queued.Inc() }

// ConnDropped implements httpx.Observer.
func (t *serverTelemetry) ConnDropped() { t.shed.Inc() }

// QueueWait implements httpx.Observer.
func (t *serverTelemetry) QueueWait(d time.Duration) { t.queueWait.Observe(d) }

// Request implements httpx.Observer.
func (t *serverTelemetry) Request(status int, in, out int64, d time.Duration) {
	t.reqSeconds.Observe(d)
	t.bytesIn.Add(in)
	t.bytesOut.Add(out)
	t.respCounter(status).Inc()
}

// respCounter returns the per-status-code response counter, caching the
// lookup so the hot path avoids the registry lock after first use.
func (t *serverTelemetry) respCounter(status int) *telemetry.Counter {
	if c, ok := t.respCodes.Load(status); ok {
		return c.(*telemetry.Counter)
	}
	c := t.reg.Counter("dcws_httpx_responses_total",
		"responses written, by HTTP status code",
		telemetry.Label{Key: "code", Value: strconv.Itoa(status)})
	t.respCodes.Store(status, c)
	return c
}

// validation counts one co-op validation outcome: current (304), refreshed
// (200), dropped (revoked behind our back), or error.
func (t *serverTelemetry) validation(result string) {
	t.reg.Counter("dcws_validations_total",
		"co-op document validations by outcome",
		telemetry.Label{Key: "result", Value: result}).Inc()
}

// bindServer promotes the server's existing state into scrape-time metric
// families. Called once from New after every subsystem is constructed.
func (t *serverTelemetry) bindServer(s *Server) {
	reg := t.reg
	counter := func(c *metrics.Counter) func() float64 {
		return func() float64 { return float64(c.Value()) }
	}

	// Traffic counters the serving engine already keeps (§5.2's canonical
	// measures among them).
	reg.CounterFunc("dcws_requests_total",
		"completed request/response exchanges", counter(&s.stats.Connections))
	reg.CounterFunc("dcws_response_body_bytes_total",
		"response body bytes served", counter(&s.stats.Bytes))
	reg.CounterFunc("dcws_redirects_total",
		"301 responses for migrated documents", counter(&s.stats.Redirects))
	reg.CounterFunc("dcws_fetches_total",
		"internal home-to-coop document fetches", counter(&s.stats.Fetches))
	reg.CounterFunc("dcws_rebuilds_total",
		"documents regenerated because their dirty bit was set", counter(&s.stats.Rebuilds))
	reg.GaugeFunc("dcws_load_cps",
		"connections per second over the sliding window",
		func() float64 { return s.stats.CPS(s.now()) })
	reg.GaugeFunc("dcws_load_bps",
		"response bytes per second over the sliding window",
		func() float64 { return s.stats.BPS(s.now()) })

	reg.GaugeFunc("dcws_httpx_queue_depth",
		"connections waiting in the socket queue right now",
		func() float64 { return float64(s.httpSrv.QueueDepth()) })
	reg.GaugeFunc("dcws_capacity",
		"measured service capacity in documents per second (0 when normalization is off)",
		func() float64 { return s.Capacity() })
	reg.GaugeFunc("dcws_headroom",
		"spare capacity: capacity times one minus the advertised utilization",
		func() float64 {
			e, ok := s.table.Get(s.Addr())
			if !ok {
				return 0
			}
			return e.Headroom()
		})
	reg.GaugeFunc("dcws_documents",
		"documents in the local document graph",
		func() float64 { return float64(s.ldg.Len()) })
	reg.GaugeFunc("dcws_coop_hosted",
		"documents hosted on behalf of other servers",
		func() float64 { return float64(s.coops.count()) })
	reg.GaugeFunc("dcws_invalidate_subscribers",
		"co-op servers holding a live invalidation subscription to this home",
		func() float64 { c, _ := s.hub.subscriberCount(); return float64(c) })
	reg.GaugeFunc("dcws_invalidate_subscribers_known",
		"co-op servers with a durable subscription record here, connected or not",
		func() float64 { _, n := s.hub.subscriberCount(); return float64(n) })
	reg.GaugeFunc("dcws_invalidate_leased",
		"hosted copies currently covered by an unexpired lease",
		func() float64 { return float64(s.coops.leasedCount(s.now())) })

	// Rendered-document cache.
	reg.CounterFunc("dcws_render_cache_hits_total",
		"rendered-document cache hits",
		func() float64 { h, _ := s.rcache.counts(); return float64(h) })
	reg.CounterFunc("dcws_render_cache_misses_total",
		"rendered-document cache misses",
		func() float64 { _, m := s.rcache.counts(); return float64(m) })
	reg.GaugeFunc("dcws_render_cache_entries",
		"rendered documents currently cached",
		func() float64 { return float64(s.rcache.len()) })

	// Inter-server RPC resilience: the cluster-wide aggregates plus one
	// series per peer so operators can see WHICH peer is flaky.
	rs := s.res.Stats()
	reg.CounterFunc("dcws_resilience_retries_total",
		"RPC attempts re-issued after a transient failure", counter(&rs.Retries))
	reg.CounterFunc("dcws_resilience_trips_total",
		"circuit-breaker transitions into the open state", counter(&rs.Trips))
	reg.CounterFunc("dcws_resilience_rejections_total",
		"calls refused while a breaker was open", counter(&rs.Rejections))
	reg.CounterFunc("dcws_resilience_probes_total",
		"half-open trial calls admitted", counter(&rs.Probes))
	reg.CounterFunc("dcws_resilience_recoveries_total",
		"breakers closed again after tripping", counter(&rs.Recoveries))
	peerSamples := func(value func(resilience.PeerStats) float64) func() []telemetry.Sample {
		return func() []telemetry.Sample {
			snaps := s.res.PeerSnapshots()
			out := make([]telemetry.Sample, 0, len(snaps))
			for peer, ps := range snaps {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{{Key: "peer", Value: peer}},
					Value:  value(ps),
				})
			}
			return out
		}
	}
	reg.Collector("dcws_resilience_peer_state",
		"breaker state per peer (0 closed, 1 open, 2 half-open)", "gauge",
		peerSamples(func(ps resilience.PeerStats) float64 { return float64(ps.State) }))
	reg.Collector("dcws_resilience_peer_retries_total",
		"RPC attempts re-issued, per peer", "counter",
		peerSamples(func(ps resilience.PeerStats) float64 { return float64(ps.Retries) }))
	reg.Collector("dcws_resilience_peer_trips_total",
		"breaker trips, per peer", "counter",
		peerSamples(func(ps resilience.PeerStats) float64 { return float64(ps.Trips) }))
	reg.Collector("dcws_resilience_peer_rejections_total",
		"calls refused while the peer's breaker was open", "counter",
		peerSamples(func(ps resilience.PeerStats) float64 { return float64(ps.Rejections) }))
	reg.Collector("dcws_resilience_peer_last_transition_seconds",
		"unix time of the breaker's last state change (0: never left closed)", "gauge",
		peerSamples(func(ps resilience.PeerStats) float64 { return unixSeconds(ps.LastTransition) }))

	// Inter-server connection pool: reuse vs dial volume, retirements by
	// cause, and per-peer open/idle gauges.
	pool := s.client.Pool
	reg.CounterFunc("dcws_pool_reuses_total",
		"inter-server RPCs served over a pooled keep-alive connection",
		func() float64 { return float64(pool.Reuses()) })
	reg.CounterFunc("dcws_pool_dials_total",
		"fresh connections dialed for inter-server RPCs",
		func() float64 { return float64(pool.Dials()) })
	reg.Collector("dcws_pool_retires_total",
		"pooled connections retired, by cause", "counter",
		func() []telemetry.Sample {
			ps := pool.Stats()
			out := make([]telemetry.Sample, 0, len(ps.Retires))
			for cause, n := range ps.Retires {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{{Key: "cause", Value: cause}},
					Value:  float64(n),
				})
			}
			return out
		})
	poolPeerSamples := func(value func(httpx.PeerPoolStats) float64) func() []telemetry.Sample {
		return func() []telemetry.Sample {
			ps := pool.Stats()
			out := make([]telemetry.Sample, 0, len(ps.Peers))
			for peer, pp := range ps.Peers {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{{Key: "peer", Value: peer}},
					Value:  value(pp),
				})
			}
			return out
		}
	}
	reg.Collector("dcws_pool_open",
		"connections currently open to each peer", "gauge",
		poolPeerSamples(func(pp httpx.PeerPoolStats) float64 { return float64(pp.Open) }))
	reg.Collector("dcws_pool_idle",
		"idle keep-alive connections pooled per peer", "gauge",
		poolPeerSamples(func(pp httpx.PeerPoolStats) float64 { return float64(pp.Idle) }))

	// Global load table: merge freshness and piggyback-encoding costs.
	reg.GaugeFunc("dcws_glt_entries",
		"servers in the global load table",
		func() float64 { return float64(s.table.Len()) })
	reg.CounterFunc("dcws_glt_merged_total",
		"peer entries applied from piggybacked headers",
		func() float64 { return float64(s.table.Merged()) })
	reg.GaugeFunc("dcws_glt_oldest_entry_age_seconds",
		"seconds since this server last heard news of its stalest peer",
		func() float64 { return s.table.OldestAge(s.now()).Seconds() })
	reg.GaugeFunc("dcws_glt_header_bytes",
		"size of the most recently emitted X-DCWS-Load piggyback header",
		func() float64 { return float64(s.table.HeaderBytes()) })
	reg.GaugeFunc("dcws_glt_header_entries",
		"load entries carried by the most recently emitted piggyback header",
		func() float64 { return float64(s.table.LastHeaderEntries()) })
	reg.CounterFunc("dcws_glt_delta_regens_total",
		"times a per-peer delta encoding was rebuilt",
		func() float64 { return float64(s.table.DeltaRegens()) })
	reg.CounterFunc("dcws_glt_emits_total",
		"piggyback headers emitted, by kind",
		func() float64 { return float64(s.table.DeltaEmits()) },
		telemetry.Label{Key: "kind", Value: "delta"})
	reg.CounterFunc("dcws_glt_emits_total",
		"piggyback headers emitted, by kind",
		func() float64 { return float64(s.table.FullEmits()) },
		telemetry.Label{Key: "kind", Value: "full"})
	reg.CounterFunc("dcws_glt_emits_total",
		"piggyback headers emitted, by kind",
		func() float64 { return float64(s.table.ClientEmits()) },
		telemetry.Label{Key: "kind", Value: "client"})
	reg.GaugeFunc("dcws_glt_version",
		"monotonic table version of the newest accepted write",
		func() float64 { return float64(s.table.Version()) })
	reg.GaugeFunc("dcws_glt_shards",
		"stripes the load table is hashed across",
		func() float64 { return float64(s.table.ShardCount()) })
	reg.Collector("dcws_glt_shard_entries",
		"load-table entries per stripe", "gauge",
		func() []telemetry.Sample {
			sizes := s.table.ShardSizes()
			out := make([]telemetry.Sample, 0, len(sizes))
			for i, n := range sizes {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{{Key: "shard", Value: strconv.Itoa(i)}},
					Value:  float64(n),
				})
			}
			return out
		})
	gossipSamples := func(value func(glt.PeerGossip) float64) func() []telemetry.Sample {
		return func() []telemetry.Sample {
			gossip := s.table.GossipPeers()
			out := make([]telemetry.Sample, 0, len(gossip))
			for peer, g := range gossip {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{{Key: "peer", Value: peer}},
					Value:  value(g),
				})
			}
			return out
		}
	}
	reg.Collector("dcws_glt_peer_acked_version",
		"highest table version each gossip peer has acknowledged", "gauge",
		gossipSamples(func(g glt.PeerGossip) float64 { return float64(g.Acked) }))
	reg.Collector("dcws_glt_peer_seen_version",
		"each gossip peer's own table version as last advertised to this server", "gauge",
		gossipSamples(func(g glt.PeerGossip) float64 { return float64(g.Seen) }))
	reg.Collector("dcws_glt_peer_last_full_seconds",
		"unix time an anti-entropy exchange last reached each gossip peer (0: never)", "gauge",
		gossipSamples(func(g glt.PeerGossip) float64 { return unixSeconds(g.LastFull) }))
	reg.Collector("dcws_glt_load",
		"advertised load per server in the local view", "gauge",
		func() []telemetry.Sample {
			entries := s.table.Snapshot()
			out := make([]telemetry.Sample, 0, len(entries))
			for _, e := range entries {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{{Key: "server", Value: e.Server}},
					Value:  e.Load,
				})
			}
			return out
		})

	// Trace rings.
	reg.CounterFunc("dcws_trace_spans_total",
		"trace spans recorded, including ones the ring has overwritten",
		func() float64 { return float64(t.ring.Total()) })
	reg.CounterFunc("dcws_trace_tail_spans_total",
		"error or slow spans copied into the tail-retention ring",
		func() float64 { return float64(t.tail.Total()) })

	// Durable tier. The families exist even with the WAL disabled (all
	// zero), so dashboards and `dcwsctl metrics -check` can rely on them
	// unconditionally.
	walStat := func(f func(*wal.Log) float64) func() float64 {
		return func() float64 {
			if s.wal == nil {
				return 0
			}
			return f(s.wal)
		}
	}
	reg.GaugeFunc("dcws_wal_enabled",
		"1 when the durable tier (WAL + snapshots) is active",
		walStat(func(*wal.Log) float64 { return 1 }))
	reg.CounterFunc("dcws_wal_appends_total",
		"records appended to the write-ahead log",
		walStat(func(l *wal.Log) float64 { return float64(l.Appends()) }))
	reg.CounterFunc("dcws_wal_appended_bytes_total",
		"bytes appended to the write-ahead log (framing included)",
		walStat(func(l *wal.Log) float64 { return float64(l.AppendedBytes()) }))
	reg.CounterFunc("dcws_wal_syncs_total",
		"fsync batches issued against the active WAL segment",
		walStat(func(l *wal.Log) float64 { return float64(l.Syncs()) }))
	reg.CounterFunc("dcws_wal_snapshots_total",
		"full-state snapshots written",
		walStat(func(l *wal.Log) float64 { return float64(l.Snapshots()) }))
	reg.CounterFunc("dcws_wal_truncations_total",
		"corrupt or torn WAL tails truncated during recovery",
		walStat(func(l *wal.Log) float64 { return float64(l.Truncations()) }))
	reg.GaugeFunc("dcws_wal_lsn",
		"log sequence number of the newest appended record",
		walStat(func(l *wal.Log) float64 { return float64(l.LSN()) }))
	reg.GaugeFunc("dcws_wal_snapshot_lsn",
		"highest LSN covered by the newest snapshot",
		walStat(func(l *wal.Log) float64 { return float64(l.SnapshotLSN()) }))
	reg.GaugeFunc("dcws_wal_segments",
		"WAL segment files currently on disk",
		walStat(func(l *wal.Log) float64 { return float64(l.Segments()) }))
	reg.GaugeFunc("dcws_wal_staged_bodies",
		"updated home documents whose body is durable only in the WAL until the next snapshot",
		walStat(func(*wal.Log) float64 {
			names, _ := s.staged.List() // a Mem list cannot fail
			return float64(len(names))
		}))
	reg.GaugeFunc("dcws_wal_staged_bytes",
		"bytes of the home-document bodies staged until the next snapshot",
		walStat(func(*wal.Log) float64 {
			n, _ := store.TotalBytes(s.staged) // nor can a Mem size
			return float64(n)
		}))

	reg.GaugeFunc("dcws_recovery_last_seconds",
		"wall time the last startup recovery took (0: cold start)",
		func() float64 { return s.recovery.seconds })
	reg.GaugeFunc("dcws_recovery_recovered",
		"1 when the last startup restored state from snapshot+replay",
		func() float64 {
			if s.recovery.recovered {
				return 1
			}
			return 0
		})
	reg.GaugeFunc("dcws_recovery_replayed_records",
		"WAL records replayed at the last startup",
		func() float64 { return float64(s.recovery.replayed) })
	reg.GaugeFunc("dcws_recovery_coop_docs_restored",
		"hosted co-op copies that survived the last restart with bytes intact",
		func() float64 { return float64(s.recovery.coopRestored) })
	reg.GaugeFunc("dcws_recovery_home_docs_rescanned",
		"home documents found only by the post-replay store scan",
		func() float64 { return float64(s.recovery.docsRestored) })
}

// handleMetrics serves the registry in the Prometheus text exposition
// format at /~dcws/metrics.
func (s *Server) handleMetrics() *httpx.Response {
	var buf bytes.Buffer
	if err := s.tel.reg.WritePrometheus(&buf); err != nil {
		return status(500, err.Error())
	}
	resp := httpx.NewResponse(200)
	resp.Header.Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	resp.Body = buf.Bytes()
	return resp
}

// handleTrace serves retained trace spans as JSON, oldest first. With an
// ?id= query it returns only that trace's spans, merged from the main and
// tail rings (deduplicated by span ID) — the fan-out target of
// `dcwsctl trace -cluster`, which stitches the per-node results into one
// tree.
func (s *Server) handleTrace(req *httpx.Request) *httpx.Response {
	_, query := httpx.SplitQuery(req.Path)
	if id := httpx.QueryParam(query, "id"); id != "" {
		return spanJSON(s.spansForTrace(id))
	}
	return spanJSON(s.tel.ring.Snapshot())
}

// handleSlow serves the tail-retention ring: the error and slow spans that
// survive main-ring wraparound. ?id= filters to one trace.
func (s *Server) handleSlow(req *httpx.Request) *httpx.Response {
	_, query := httpx.SplitQuery(req.Path)
	if id := httpx.QueryParam(query, "id"); id != "" {
		return spanJSON(s.tel.tail.ByTrace(id))
	}
	return spanJSON(s.tel.tail.Snapshot())
}

// spansForTrace merges one trace's spans from the main and tail rings,
// deduplicating by span ID (a slow span lives in both rings).
func (s *Server) spansForTrace(id string) []telemetry.Span {
	spans := s.tel.ring.ByTrace(id)
	seen := make(map[string]bool, len(spans))
	for _, sp := range spans {
		seen[sp.ID] = true
	}
	for _, sp := range s.tel.tail.ByTrace(id) {
		if sp.ID == "" || !seen[sp.ID] {
			spans = append(spans, sp)
		}
	}
	return spans
}

func spanJSON(spans []telemetry.Span) *httpx.Response {
	if spans == nil {
		spans = []telemetry.Span{}
	}
	data, err := json.MarshalIndent(spans, "", "  ")
	if err != nil {
		return status(500, err.Error())
	}
	resp := httpx.NewResponse(200)
	resp.Header.Set("Content-Type", "application/json")
	resp.Body = append(data, '\n')
	return resp
}

// unixSeconds renders a timestamp as a gauge value: unix seconds, 0 for
// the zero time.
func unixSeconds(t time.Time) float64 {
	if t.IsZero() {
		return 0
	}
	return float64(t.UnixNano()) / 1e9
}

// Telemetry exposes the server's metrics registry (tests, embedding).
func (s *Server) Telemetry() *telemetry.Registry { return s.tel.reg }

// metric reads one of the server's series from its registry. It panics on
// a name the registry does not hold, so a misspelt family cannot pass for
// a zero count.
func (s *Server) metric(name string, labels ...telemetry.Label) float64 {
	v, ok := s.tel.reg.Value(name, labels...)
	if !ok {
		panic("dcws: no metric series " + name)
	}
	return v
}

// Traces exposes the server's trace-span ring.
func (s *Server) Traces() *telemetry.Ring { return s.tel.ring }

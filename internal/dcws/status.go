package dcws

import (
	"encoding/json"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/resilience"
)

// Status is the operational snapshot served at /~dcws/status and returned
// by Server.Status, for dashboards, tests, and the dcwsctl-style tooling.
type Status struct {
	Addr        string             `json:"addr"`
	Documents   int                `json:"documents"`
	MigratedOut map[string]string  `json:"migrated_out"`
	CoopHosted  []string           `json:"coop_hosted"`
	Connections int64              `json:"connections"`
	Bytes       int64              `json:"bytes"`
	Dropped     int64              `json:"dropped"`
	Redirects   int64              `json:"redirects"`
	Fetches     int64              `json:"fetches"`
	Rebuilds    int64              `json:"rebuilds"`
	CPS         float64            `json:"cps"`
	BPS         float64            `json:"bps"`
	LoadTable   map[string]float64 `json:"load_table"`

	// Zone is this server's topology label; Capacity its measured service
	// capacity in docs/s (0 when normalization is off). Placement is the
	// capacity/zone view of every load-table entry, keyed by address.
	Zone      string                     `json:"zone,omitempty"`
	Capacity  float64                    `json:"capacity,omitempty"`
	Placement map[string]PlacementStatus `json:"placement,omitempty"`

	// PeerHealth classifies every tracked peer: "ok", "suspect" (failing
	// probes or a non-closed breaker; excluded from new migrations), or
	// "down" (declared down, documents recalled).
	PeerHealth map[string]string `json:"peer_health,omitempty"`
	// Breakers lists peers whose circuit breaker is not closed, with the
	// breaker state ("open" or "half-open").
	Breakers map[string]string `json:"breakers,omitempty"`
	// Retries counts inter-server RPC attempts beyond the first.
	Retries int64 `json:"retries"`
	// BreakerTrips counts closed-to-open breaker transitions.
	BreakerTrips int64 `json:"breaker_trips"`
	// PeerResilience breaks the retry/trip/rejection counters down by peer
	// and records when each breaker last changed state, so operators can
	// see which peer is flaky, not just that one is.
	PeerResilience map[string]PeerResilienceStatus `json:"peer_resilience,omitempty"`

	// GLT summarizes the sharded global load table and its delta-encoded
	// piggyback gossip.
	GLT GLTStatus `json:"glt"`

	// Pool summarizes the inter-server keep-alive connection pool.
	Pool PoolStatus `json:"pool"`
	// Hedge summarizes hedged lazy-migration fetches.
	Hedge HedgeStatus `json:"hedge"`
	// Replication summarizes proactive chain dissemination of hot
	// documents and chain-ordered revocation.
	Replication ReplicationStatus `json:"replication"`
	// Invalidation summarizes push invalidation and leases: the home-side
	// subscriber table and push counters, and the co-op-side lease cover.
	Invalidation InvalidationStatus `json:"invalidation"`

	// CacheHits / CacheMisses count rendered-document cache lookups.
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// QueueDepth is the number of accepted connections waiting in the
	// socket queue right now; it feeds the queue-aware load metric.
	QueueDepth int `json:"queue_depth"`

	// Durability summarizes the WAL-backed durable tier and the last
	// startup recovery.
	Durability DurabilityStatus `json:"durability"`

	// SLO is the burn-rate watcher's latest evaluation.
	SLO SLOStatus `json:"slo"`
}

// SLOStatus is the SLO watcher's row in Status: the most recent
// multi-window burn-rate evaluation per serve role, plus the shed budget
// and the profile-capture counters.
type SLOStatus struct {
	// Alerting is true while some burn rate exceeds the threshold in both
	// windows.
	Alerting bool `json:"alerting"`
	// Checks / Alerts / Profiles are the watcher's cumulative counters.
	Checks   int64 `json:"checks"`
	Alerts   int64 `json:"alerts"`
	Profiles int64 `json:"profiles"`
	// Ops is the per-role evaluation (home, coop, fetch).
	Ops map[string]SLOOpStatus `json:"ops,omitempty"`
	// ShedRate / ShedBurn are the shed budget's short- and long-window
	// figures, keyed "short" / "long".
	ShedRate map[string]float64 `json:"shed_rate,omitempty"`
	ShedBurn map[string]float64 `json:"shed_burn,omitempty"`
}

// SLOOpStatus is one serve role's row in SLOStatus.Ops.
type SLOOpStatus struct {
	P50Seconds float64 `json:"p50_seconds"`
	P99Seconds float64 `json:"p99_seconds"`
	BurnShort  float64 `json:"burn_short"`
	BurnLong   float64 `json:"burn_long"`
	Alerting   bool    `json:"alerting,omitempty"`
}

// DurabilityStatus is the durable tier's row in Status: WAL progress and
// what the last startup recovery restored.
type DurabilityStatus struct {
	// Enabled is true when Config.WALDir is set.
	Enabled bool `json:"enabled"`
	// SyncPolicy is the fsync policy in force: always, interval, or none.
	SyncPolicy string `json:"sync_policy,omitempty"`
	// LSN is the newest appended record's log sequence number.
	LSN uint64 `json:"lsn,omitempty"`
	// SnapshotLSN is the highest LSN the newest snapshot covers.
	SnapshotLSN uint64 `json:"snapshot_lsn,omitempty"`
	// Segments is how many WAL segment files are on disk.
	Segments int `json:"segments,omitempty"`
	// Appends / AppendedBytes / Syncs / Snapshots / Truncations are the
	// log's cumulative counters.
	Appends       int64 `json:"appends,omitempty"`
	AppendedBytes int64 `json:"appended_bytes,omitempty"`
	Syncs         int64 `json:"syncs,omitempty"`
	Snapshots     int64 `json:"snapshots,omitempty"`
	Truncations   int64 `json:"truncations,omitempty"`
	// Recovery is the last startup recovery's summary.
	Recovery RecoveryInfo `json:"recovery"`
}

// PeerResilienceStatus is one peer's row in Status.PeerResilience.
type PeerResilienceStatus struct {
	State      string `json:"state"`
	Retries    int64  `json:"retries"`
	Trips      int64  `json:"trips"`
	Rejections int64  `json:"rejections"`
	// LastTransition is when the breaker last changed state, RFC 3339;
	// empty when it never left closed.
	LastTransition string `json:"last_transition,omitempty"`
}

// GLTStatus is the load table's gossip view: how the table is striped,
// how far each peer has acknowledged it, and when the anti-entropy safety
// net last ran against each peer.
type GLTStatus struct {
	// Shards is how many stripes the table is hashed across.
	Shards int `json:"shards"`
	// Version is the monotonic counter stamped on the newest accepted write.
	Version uint64 `json:"version"`
	// Entries is the total number of load entries across all shards.
	Entries int `json:"entries"`
	// DeltaEmits / FullEmits / ClientEmits count piggyback headers emitted
	// by kind since start.
	DeltaEmits  int64 `json:"delta_emits"`
	FullEmits   int64 `json:"full_emits"`
	ClientEmits int64 `json:"client_emits"`
	// AntiEntropyRounds counts anti-entropy exchanges this server initiated.
	AntiEntropyRounds int64 `json:"anti_entropy_rounds"`
	// AntiEntropySkipped / AntiEntropyForced are the adaptive cadence's
	// counters: rounds skipped because piggyback deltas already had every
	// peer current, and backoff resets forced by churn.
	AntiEntropySkipped int64 `json:"anti_entropy_skipped"`
	AntiEntropyForced  int64 `json:"anti_entropy_forced"`
	// AntiEntropyIntervalSeconds is the adaptive interval currently in
	// force (between 1x and 4x Params.AntiEntropyInterval).
	AntiEntropyIntervalSeconds float64 `json:"anti_entropy_interval_seconds"`
	// Digest protocol counters: push-pull digest rounds completed as
	// requester, digest requests answered as responder, diverged stripes
	// shipped, and third-leg push-backs.
	DigestRounds     int64 `json:"digest_rounds"`
	DigestResponses  int64 `json:"digest_responses"`
	DigestShardsSent int64 `json:"digest_shards_sent"`
	DigestPushbacks  int64 `json:"digest_pushbacks"`
	// Peers is the per-peer gossip state, keyed by peer address.
	Peers map[string]GLTPeerStatus `json:"peers,omitempty"`
}

// PlacementStatus is one server's row in Status.Placement: the
// capacity-normalized, zone-aware view placement decisions rank by.
type PlacementStatus struct {
	// Load is the gossiped load figure — a fraction of capacity when the
	// sender normalizes, a raw rate otherwise.
	Load float64 `json:"load"`
	// Capacity is the sender's advertised service capacity (docs/s);
	// 0 when the entry carries none (legacy sender or normalization off).
	Capacity float64 `json:"capacity,omitempty"`
	// Zone is the sender's advertised topology label.
	Zone string `json:"zone,omitempty"`
	// Headroom is capacity × (1 − load), the ranking key.
	Headroom float64 `json:"headroom"`
}

// GLTPeerStatus is one peer's row in GLTStatus.Peers.
type GLTPeerStatus struct {
	// Acked is the highest local table version the peer has echoed back;
	// deltas to it only carry entries written after this mark.
	Acked uint64 `json:"acked"`
	// Seen is the peer's own table version last advertised to us.
	Seen uint64 `json:"seen"`
	// LastFull is when a full-table exchange last reached the peer, RFC
	// 3339; empty when none has.
	LastFull string `json:"last_full,omitempty"`
}

// PoolStatus summarizes the keep-alive connection pool used for
// inter-server RPCs.
type PoolStatus struct {
	// Reuses and Dials count RPCs served over a pooled connection vs over
	// a fresh dial; ReuseRatio is reuses/(reuses+dials).
	Reuses     int64   `json:"reuses"`
	Dials      int64   `json:"dials"`
	ReuseRatio float64 `json:"reuse_ratio"`
	// Retires counts pooled connections retired, by cause.
	Retires map[string]int64 `json:"retires,omitempty"`
	// Peers reports open/idle connection counts per peer address.
	Peers map[string]httpx.PeerPoolStats `json:"peers,omitempty"`
}

// HedgeStatus summarizes hedged lazy-migration fetches. Every launched
// hedge ends as exactly one of won (sibling answered 200 first), miss
// (sibling answered but had no usable copy), or wasted (lost the race to
// the primary or errored outright).
type HedgeStatus struct {
	Launched int64 `json:"launched"`
	Won      int64 `json:"won"`
	Miss     int64 `json:"miss"`
	Wasted   int64 `json:"wasted"`
}

// ReplicationStatus summarizes proactive chain replication. PushBytes is
// the home's total upload into dissemination chains — the number the
// chain topology keeps flat as the replica count grows.
type ReplicationStatus struct {
	HotTriggers     int64 `json:"hot_triggers"`
	Pushes          int64 `json:"pushes"`
	PushBytes       int64 `json:"push_bytes"`
	Relays          int64 `json:"relays"`
	Stored          int64 `json:"stored"`
	ChainSkips      int64 `json:"chain_skips"`
	RevokeChains    int64 `json:"revoke_chains"`
	RevokeFallbacks int64 `json:"revoke_fallbacks"`
}

// InvalidationStatus summarizes the push-invalidation subsystem. With
// leases disabled (Params.LeaseDuration zero) every field stays zero and
// the server validates by polling exactly as the paper describes.
type InvalidationStatus struct {
	// Enabled is true when Params.LeaseDuration > 0.
	Enabled bool `json:"enabled"`
	// Subscribers / SubscribersKnown are the home-side subscriber table:
	// co-ops with a live channel right now vs all co-ops with durable
	// subscription records (including crashed or partitioned ones).
	Subscribers      int `json:"subscribers"`
	SubscribersKnown int `json:"subscribers_known"`
	// Leased counts hosted copies currently covered by an unexpired lease.
	Leased int `json:"leased"`
	// Pushes / Acks are the home side's cumulative frame counters;
	// Received / Reconnects the co-op side's.
	Pushes     int64 `json:"pushes"`
	Acks       int64 `json:"acks"`
	Received   int64 `json:"received"`
	Reconnects int64 `json:"reconnects"`
	// LeaseSkips counts validator polls elided under lease cover;
	// ValidatePolls counts the polls actually issued. Their ratio is the
	// §4.5 validation traffic this subsystem removed.
	LeaseSkips    int64 `json:"lease_skips"`
	ValidatePolls int64 `json:"validate_polls"`
	// LeaseExpired counts requests failed closed on an expired lease with
	// the home unreachable — the partition-safety path.
	LeaseExpired int64 `json:"lease_expired"`
	// Shrinks counts replica chains partially shrunk after T_home expiry
	// of a warm document.
	Shrinks int64 `json:"shrinks"`
	// Batches / BatchDocs count multi-document invalidation frames pushed
	// and the documents they carried; Gaps counts sequence gaps co-ops
	// detected on live channels (each triggers an inventory resync).
	Batches   int64 `json:"batches"`
	BatchDocs int64 `json:"batch_docs"`
	Gaps      int64 `json:"gaps"`
}

// Status returns the server's current operational snapshot.
func (s *Server) Status() Status {
	now := s.now()
	st := Status{
		Addr:        s.Addr(),
		Documents:   s.ldg.Len(),
		MigratedOut: s.ldg.Migrated(),
		Connections: s.stats.Connections.Value(),
		Bytes:       s.stats.Bytes.Value(),
		Dropped:     s.Dropped(),
		Redirects:   s.stats.Redirects.Value(),
		Fetches:     s.stats.Fetches.Value(),
		Rebuilds:    s.stats.Rebuilds.Value(),
		CPS:         s.stats.CPS(now),
		BPS:         s.stats.BPS(now),
		LoadTable:   make(map[string]float64),
	}
	ps := s.client.Pool.Stats()
	st.Pool = PoolStatus{Reuses: ps.Reuses, Dials: ps.Dials, Retires: ps.Retires, Peers: ps.Peers}
	if total := ps.Reuses + ps.Dials; total > 0 {
		st.Pool.ReuseRatio = float64(ps.Reuses) / float64(total)
	}
	st.Hedge = HedgeStatus{
		Launched: s.tel.hedgeLaunched.Value(),
		Won:      s.tel.hedgeWon.Value(),
		Miss:     s.tel.hedgeMiss.Value(),
		Wasted:   s.tel.hedgeWasted.Value(),
	}
	st.Replication = ReplicationStatus{
		HotTriggers:     s.tel.replicateTriggers.Value(),
		Pushes:          s.tel.replicatePushes.Value(),
		PushBytes:       s.tel.replicatePushBytes.Value(),
		Relays:          s.tel.replicateRelays.Value(),
		Stored:          s.tel.replicateStored.Value(),
		ChainSkips:      s.tel.replicateChainSkips.Value(),
		RevokeChains:    s.tel.replicateRevokeChains.Value(),
		RevokeFallbacks: s.tel.replicateRevokeFallbacks.Value(),
	}
	connected, total := s.hub.subscriberCount()
	st.Invalidation = InvalidationStatus{
		Enabled:          s.params.LeaseDuration > 0,
		Subscribers:      connected,
		SubscribersKnown: total,
		Leased:           s.coops.leasedCount(now),
		Pushes:           s.tel.invalPushes.Value(),
		Acks:             s.tel.invalAcks.Value(),
		Received:         s.tel.invalReceived.Value(),
		Reconnects:       s.tel.invalReconnects.Value(),
		LeaseSkips:       s.tel.invalLeaseSkips.Value(),
		ValidatePolls:    s.tel.validatePolls.Value(),
		LeaseExpired:     s.tel.invalLeaseExpired.Value(),
		Shrinks:          s.tel.replicateShrinks.Value(),
		Batches:          s.tel.invalBatches.Value(),
		BatchDocs:        s.tel.invalBatchDocs.Value(),
		Gaps:             s.tel.invalGaps.Value(),
	}
	st.CacheHits, st.CacheMisses = s.rcache.counts()
	st.QueueDepth = s.httpSrv.QueueDepth()
	s.aeMu.Lock()
	aeInterval := s.aeInterval
	s.aeMu.Unlock()
	st.GLT = GLTStatus{
		Shards:                     s.table.ShardCount(),
		Version:                    s.table.Version(),
		Entries:                    s.table.Len(),
		DeltaEmits:                 s.table.DeltaEmits(),
		FullEmits:                  s.table.FullEmits(),
		ClientEmits:                s.table.ClientEmits(),
		AntiEntropyRounds:          s.tel.antiEntropyRounds.Value(),
		AntiEntropySkipped:         s.tel.aeSkipped.Value(),
		AntiEntropyForced:          s.tel.aeForced.Value(),
		AntiEntropyIntervalSeconds: aeInterval.Seconds(),
		DigestRounds:               s.tel.digestRounds.Value(),
		DigestResponses:            s.tel.digestResponses.Value(),
		DigestShardsSent:           s.tel.digestShardsSent.Value(),
		DigestPushbacks:            s.tel.digestPushbacks.Value(),
	}
	for p, g := range s.table.GossipPeers() {
		row := GLTPeerStatus{Acked: g.Acked, Seen: g.Seen}
		if !g.LastFull.IsZero() {
			row.LastFull = g.LastFull.UTC().Format(time.RFC3339Nano)
		}
		if st.GLT.Peers == nil {
			st.GLT.Peers = make(map[string]GLTPeerStatus)
		}
		st.GLT.Peers[p] = row
	}
	st.Zone = s.params.Zone
	st.Capacity = s.Capacity()
	for _, e := range s.table.Snapshot() {
		st.LoadTable[e.Server] = e.Load
		if st.Placement == nil {
			st.Placement = make(map[string]PlacementStatus)
		}
		st.Placement[e.Server] = PlacementStatus{
			Load:     e.Load,
			Capacity: e.Capacity,
			Zone:     e.Zone,
			Headroom: e.Headroom(),
		}
	}
	rs := s.res.Stats()
	st.Retries = rs.Retries.Value()
	st.BreakerTrips = rs.Trips.Value()
	st.PeerHealth = make(map[string]string)
	for _, p := range s.table.Servers() {
		if p == s.Addr() {
			continue
		}
		if s.peerSuspect(p) {
			st.PeerHealth[p] = "suspect"
		} else {
			st.PeerHealth[p] = "ok"
		}
	}
	for p, ps := range s.res.PeerSnapshots() {
		if ps.State != resilience.Closed {
			if st.Breakers == nil {
				st.Breakers = make(map[string]string)
			}
			st.Breakers[p] = ps.State.String()
		}
		row := PeerResilienceStatus{
			State:      ps.State.String(),
			Retries:    ps.Retries,
			Trips:      ps.Trips,
			Rejections: ps.Rejections,
		}
		if !ps.LastTransition.IsZero() {
			row.LastTransition = ps.LastTransition.UTC().Format(time.RFC3339Nano)
		}
		if st.PeerResilience == nil {
			st.PeerResilience = make(map[string]PeerResilienceStatus)
		}
		st.PeerResilience[p] = row
	}
	s.peerMu.Lock()
	for p := range s.downAt {
		st.PeerHealth[p] = "down"
	}
	s.peerMu.Unlock()
	st.CoopHosted = s.coops.keys()
	st.SLO = s.slo.status()
	st.Durability = DurabilityStatus{Recovery: s.Recovery()}
	if s.wal != nil {
		st.Durability.Enabled = true
		st.Durability.SyncPolicy = s.wal.SyncPolicy().String()
		st.Durability.LSN = s.wal.LSN()
		st.Durability.SnapshotLSN = s.wal.SnapshotLSN()
		st.Durability.Segments = s.wal.Segments()
		st.Durability.Appends = s.wal.Appends()
		st.Durability.AppendedBytes = s.wal.AppendedBytes()
		st.Durability.Syncs = s.wal.Syncs()
		st.Durability.Snapshots = s.wal.Snapshots()
		st.Durability.Truncations = s.wal.Truncations()
	}
	return st
}

// handleStatus serves the status snapshot as JSON.
func (s *Server) handleStatus() *httpx.Response {
	data, err := json.MarshalIndent(s.Status(), "", "  ")
	if err != nil {
		return status(500, err.Error())
	}
	resp := httpx.NewResponse(200)
	resp.Header.Set("Content-Type", "application/json")
	resp.Body = append(data, '\n')
	return resp
}

// GraphDump is the JSON form of the local document graph served at
// /~dcws/graph for operational inspection.
type GraphDump struct {
	Addr string      `json:"addr"`
	Docs []GraphNode `json:"docs"`
}

// GraphNode is one LDG tuple in a GraphDump.
type GraphNode struct {
	Name       string   `json:"name"`
	Location   string   `json:"location,omitempty"`
	Size       int64    `json:"size"`
	Hits       int64    `json:"hits"`
	LinkTo     []string `json:"link_to,omitempty"`
	LinkFrom   []string `json:"link_from,omitempty"`
	Dirty      bool     `json:"dirty,omitempty"`
	EntryPoint bool     `json:"entry_point,omitempty"`
}

// handleGraph serves the local document graph as JSON.
func (s *Server) handleGraph() *httpx.Response {
	dump := GraphDump{Addr: s.Addr()}
	for _, d := range s.ldg.Snapshot() {
		dump.Docs = append(dump.Docs, GraphNode{
			Name:       d.Name,
			Location:   d.Location,
			Size:       d.Size,
			Hits:       d.Hits,
			LinkTo:     d.LinkTo,
			LinkFrom:   d.LinkFrom,
			Dirty:      d.Dirty,
			EntryPoint: d.EntryPoint,
		})
	}
	data, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return status(500, err.Error())
	}
	resp := httpx.NewResponse(200)
	resp.Header.Set("Content-Type", "application/json")
	resp.Body = append(data, '\n')
	return resp
}

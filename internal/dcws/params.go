// Package dcws implements the Distributed Cooperative Web Server — the
// paper's primary contribution. A Server is simultaneously a home server
// for its own documents and a potential co-op server for any peer (§3.3:
// "fully symmetric"). Load balancing is achieved by migrating documents
// between servers and dynamically rewriting the hyperlinks that reach
// them; no router, DNS trick, or shared filesystem is involved.
package dcws

import "time"

// Params collects every tunable of the system. The first seven fields are
// the paper's Table 1 and default to its values; the rest configure the
// extensions added on top (resilient RPC, durability, chain replication,
// push invalidation, placement, the SLO watcher) and default to the
// settings those extensions were measured with. Values nobody varies are
// constants next to the code that reads them, not fields here; DESIGN.md
// "Configuration" lists both. TestParamsFieldCount pins the field count:
// a new field has to be argued for.
type Params struct {
	// Workers is the number of worker threads, N_wk.
	Workers int
	// QueueLength is the socket queue length for backlogged requests,
	// L_sq. Overflow is dropped gracefully with 503.
	QueueLength int
	// StatsInterval is the statistics re-calculation interval, T_st. It
	// also paces migrations: at most one document leaves a home server
	// per statistics interval.
	StatsInterval time.Duration
	// PingerInterval is the pinger thread activation interval, T_pi.
	PingerInterval time.Duration
	// ValidateInterval is the co-op document validation interval, T_val.
	ValidateInterval time.Duration
	// HomeReMigrateInterval is the home server document re-migration
	// interval, T_home: how old a migration must be before the home
	// server may abandon it and re-migrate the document elsewhere.
	HomeReMigrateInterval time.Duration
	// CoopMigrateInterval is the minimum time between migrations into the
	// same co-op server, T_coop.
	CoopMigrateInterval time.Duration

	// MigrationThreshold is Algorithm 1's load threshold T: the minimum
	// window hit count that justifies migrating a document.
	MigrationThreshold int64
	// UseBPSMetric selects bytes-per-second as the load metric instead of
	// connections-per-second (recommended by §5.3 for large-file data
	// sets such as Sequoia).
	UseBPSMetric bool
	// MaxPingFailures is how many consecutive failed pinger probes mark a
	// co-op server down, triggering recall of its documents.
	MaxPingFailures int

	// CoopCacheBytes bounds the disk space this server devotes to hosting
	// other servers' documents. 0 means unlimited. When the budget is
	// exceeded the least-recently-used hosted copy is discarded — §4.5:
	// "a co-op server should not throw away any data until absolutely
	// necessary (i.e. lack of disk space)". An evicted document is simply
	// re-fetched lazily on its next request.
	CoopCacheBytes int64

	// MaintenanceTimeout bounds each maintenance RPC (pinger probe,
	// validation re-request). It must be well below PingerInterval so a
	// slow peer cannot stall a whole pinger round; the default is 5 s
	// against the Table 1 T_pi of 20 s.
	MaintenanceTimeout time.Duration
	// FetchTimeout bounds each individual attempt of a lazy-migration
	// fetch from a home server (default 10 s).
	FetchTimeout time.Duration
	// FetchAttempts is the total number of tries for a lazy-migration
	// fetch before the co-op answers 503 (default 3). Retries back off
	// exponentially from RetryBaseDelay.
	FetchAttempts int
	// ProbeAttempts is the number of tries per pinger probe inside one
	// pinger tick (default 2): a single dropped SYN must not count as a
	// failed round toward MaxPingFailures.
	ProbeAttempts int
	// RetryBaseDelay is the backoff after the first failed attempt of a
	// retried RPC; subsequent attempts double it up to retryMaxDelay (2 s),
	// with deterministic per-peer jitter. A negative value disables
	// inter-attempt delays (deterministic tests on manual clocks).
	RetryBaseDelay time.Duration
	// BreakerThreshold is how many consecutive RPC failures against one
	// peer trip its circuit breaker (default 5). While the breaker is
	// open, fetches degrade to fast 503s instead of tying up workers.
	BreakerThreshold int

	// HedgeDelay is how long a lazy-migration fetch waits on the home
	// server before racing a known sibling replica for the same document
	// (first usable response wins, the loser is canceled). Default 250 ms;
	// negative disables hedging.
	HedgeDelay time.Duration

	// AntiEntropyInterval paces the digest exchange that backstops delta
	// piggybacking: each round, the server reconciles its table with the
	// peer whose last exchange is oldest, so dropped deltas and restarted
	// peers reconverge within one sweep. Default 60 s; negative disables
	// anti-entropy.
	AntiEntropyInterval time.Duration
	// MetricsSeriesLimit caps how many series any one metric family may
	// emit per /~dcws/metrics scrape; overflow is counted in
	// telemetry_series_dropped_total instead of unboundedly growing the
	// exposition with per-peer labels at cluster scale. Default 1024;
	// negative removes the cap.
	MetricsSeriesLimit int

	// WALSync selects the write-ahead-log fsync policy when Config.WALDir
	// is set, and with it what an acknowledged change survives, a document
	// update included (its record carries the body; DESIGN §12): "always"
	// fsyncs every append before it returns (group-committed), so it
	// survives an OS crash; "interval" (default) fsyncs on a 100 ms timer,
	// so an OS crash loses at most that interval; "none" never fsyncs. In
	// every mode a process crash (kill -9) loses nothing, because an append
	// is one write(2) call.
	WALSync string
	// SnapshotInterval paces full-state snapshots that bound recovery
	// replay time and let old WAL segments be pruned. Default 5 m;
	// negative disables periodic snapshots (one is still written on clean
	// shutdown).
	SnapshotInterval time.Duration

	// PlacementMaxStaleness bounds how old a peer's load-table entry may
	// be before migration and replication stop selecting that peer: a
	// stale entry means gossip from the peer has dried up, so its
	// advertised load — possibly a long-gone idle reading — must not
	// attract documents. Entries with no timestamp (statically configured
	// peers never heard from) are exempt, as first contact happens through
	// placement probes. Default 60 s; negative disables the check.
	PlacementMaxStaleness time.Duration

	// HotReplicateRate is the proactive-replication trigger: when the
	// EWMA of a document's serve rate (hits per second, home serves plus
	// coop-reported hits) crosses this threshold, the home pushes the
	// rendered bytes to HotReplicaCount co-op servers along a CDTP-style
	// dissemination chain instead of waiting for lazy per-coop fetches.
	// Default 50 hits/s; negative disables replication.
	HotReplicateRate float64
	// HotReplicaCount is k: how many replicas a chain-replicated hot
	// document is brought up to in one dissemination round (default 2).
	HotReplicaCount int

	// LeaseDuration enables push invalidation with leases, the extension
	// that retires the polling validator's steady-state traffic: each
	// co-op opens one long-lived subscription channel per home server and
	// every hosted copy holds a lease of this duration, renewed implicitly
	// by channel liveness. While a copy's subscription channel is live and
	// its lease unexpired, the home pushes invalidation frames on every
	// update/revoke/migration and the periodic validator skips the copy
	// entirely; when the channel drops or the lease runs out, the co-op
	// degrades to the paper's §4.5 timeout-polled validation, so a
	// partitioned node is never less safe than the base design. Zero
	// disables the extension (pure polling, the paper's behaviour).
	LeaseDuration time.Duration
	// InvalidateHeartbeat paces the subscription channel's keepalive
	// frames; a peer silent for three heartbeats is considered gone and
	// the channel is torn down for reconnection. Zero derives
	// LeaseDuration/4 — so a silent partition is detected, and polling
	// resumed, before the lease expires; negative disables heartbeats
	// (tests that drive frames by hand).
	InvalidateHeartbeat time.Duration

	// Zone is this server's topology label (rack, availability zone,
	// datacenter — whatever locality the operator cares about). It is
	// gossiped alongside the load entry, and placement (migration, chain
	// replication, hedge siblings, link rewriting) prefers same-zone
	// targets, spilling across zones only when local headroom is
	// exhausted. Empty disables zone preference.
	Zone string
	// CapacitySmoothing is the EWMA weight for the continuously-measured
	// service capacity: each statistics interval the achievable
	// throughput implied by the serve-latency histograms is folded into
	// the calibrated capacity with this weight. The capacity divides the
	// advertised load, so the gossiped figure is a fraction of capacity
	// and placement ranks peers by absolute headroom instead of raw
	// load — what makes least-loaded policies work on heterogeneous
	// fleets. Default 0.2; negative disables capacity normalization
	// entirely (raw loads on the wire, the paper's homogeneous-testbed
	// behaviour).
	CapacitySmoothing float64

	// SLOCheckInterval paces the SLO watcher's rolling-window evaluation
	// (default 10 s; negative disables the watcher).
	SLOCheckInterval time.Duration
	// SLOProfileSeconds is how long an auto-captured CPU profile runs
	// once sustained burn is detected (default 5 s).
	SLOProfileSeconds time.Duration
	// ProfileRingSize bounds the on-disk ring of auto-captured profile
	// pairs (cpu+heap) under Config.ProfileDir; older captures are
	// deleted as new ones land (default 4 pairs).
	ProfileRingSize int
}

// DefaultParams returns the configuration of Table 1 — 12 worker threads, a
// socket queue of 100, statistics every 10 s, pinger every 20 s, validation
// every 120 s, re-migration after 300 s, and at most one migration into a
// co-op server per 60 s — plus the defaults of the extensions.
func DefaultParams() Params {
	return Params{
		Workers:               12,
		QueueLength:           100,
		StatsInterval:         10 * time.Second,
		PingerInterval:        20 * time.Second,
		ValidateInterval:      120 * time.Second,
		HomeReMigrateInterval: 300 * time.Second,
		CoopMigrateInterval:   60 * time.Second,
		MigrationThreshold:    10,
		MaxPingFailures:       3,
		MaintenanceTimeout:    5 * time.Second,
		FetchTimeout:          10 * time.Second,
		FetchAttempts:         3,
		ProbeAttempts:         2,
		RetryBaseDelay:        50 * time.Millisecond,
		BreakerThreshold:      5,
		HedgeDelay:            250 * time.Millisecond,
		AntiEntropyInterval:   60 * time.Second,
		MetricsSeriesLimit:    1024,
		WALSync:               "interval",
		SnapshotInterval:      5 * time.Minute,
		PlacementMaxStaleness: 60 * time.Second,
		HotReplicateRate:      50,
		HotReplicaCount:       2,
		CapacitySmoothing:     0.2,
		SLOCheckInterval:      10 * time.Second,
		SLOProfileSeconds:     5 * time.Second,
		ProfileRingSize:       4,
	}
}

// WithDefaults fills every unset field with its DefaultParams value. It is
// the one resolution rule for the live server and the simulator, so the
// same Params value describes the same system to both. Two conventions:
// a field with no "off" meaning takes its default when zero or negative
// (unset); a field that can be switched off takes its default only when
// zero, and keeps a negative value, which means "off" (or, for
// RetryBaseDelay, "retry without waiting"). LeaseDuration, Zone,
// CoopCacheBytes and InvalidateHeartbeat have meaningful zero values and
// are left alone.
func (p Params) WithDefaults() Params {
	d := DefaultParams()
	fillUnset(&p.Workers, d.Workers)
	fillUnset(&p.QueueLength, d.QueueLength)
	fillUnset(&p.StatsInterval, d.StatsInterval)
	fillUnset(&p.PingerInterval, d.PingerInterval)
	fillUnset(&p.ValidateInterval, d.ValidateInterval)
	fillUnset(&p.HomeReMigrateInterval, d.HomeReMigrateInterval)
	fillUnset(&p.CoopMigrateInterval, d.CoopMigrateInterval)
	fillUnset(&p.MigrationThreshold, d.MigrationThreshold)
	fillUnset(&p.MaxPingFailures, d.MaxPingFailures)
	fillUnset(&p.MaintenanceTimeout, d.MaintenanceTimeout)
	fillUnset(&p.FetchTimeout, d.FetchTimeout)
	fillUnset(&p.FetchAttempts, d.FetchAttempts)
	fillUnset(&p.ProbeAttempts, d.ProbeAttempts)
	fillUnset(&p.BreakerThreshold, d.BreakerThreshold)
	fillUnset(&p.HotReplicaCount, d.HotReplicaCount)
	fillUnset(&p.SLOProfileSeconds, d.SLOProfileSeconds)
	fillUnset(&p.ProfileRingSize, d.ProfileRingSize)

	fillZero(&p.RetryBaseDelay, d.RetryBaseDelay)
	fillZero(&p.HedgeDelay, d.HedgeDelay)
	fillZero(&p.AntiEntropyInterval, d.AntiEntropyInterval)
	fillZero(&p.MetricsSeriesLimit, d.MetricsSeriesLimit)
	fillZero(&p.SnapshotInterval, d.SnapshotInterval)
	fillZero(&p.PlacementMaxStaleness, d.PlacementMaxStaleness)
	fillZero(&p.HotReplicateRate, d.HotReplicateRate)
	fillZero(&p.CapacitySmoothing, d.CapacitySmoothing)
	fillZero(&p.SLOCheckInterval, d.SLOCheckInterval)

	if p.WALSync == "" {
		p.WALSync = d.WALSync
	}
	return p
}

type number interface {
	~int | ~int64 | ~float64
}

// fillUnset replaces a zero or negative value with its default.
func fillUnset[T number](v *T, def T) {
	if *v <= 0 {
		*v = def
	}
}

// fillZero replaces only the zero value; a negative value is the caller's
// "off".
func fillZero[T number](v *T, def T) {
	if *v == 0 {
		*v = def
	}
}

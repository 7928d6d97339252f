// Package resilience hardens inter-server RPCs against the failure modes
// of §4.5: flaky links, slow peers, and crashed servers. It provides a
// retry Policy (capped exponential backoff with deterministic jitter, all
// timing driven by the injected clock.Clock so tests stay virtual), a
// per-peer circuit Breaker with the classic closed/open/half-open state
// machine, and a Registry tying both together with metrics counters.
//
// Two call paths exist on purpose:
//
//   - Execute gates calls through the peer's breaker: while the breaker is
//     open, calls fail fast without touching the network (graceful
//     degradation — a wobbling co-op must not hold worker threads hostage).
//   - Probe bypasses the breaker gate but still records outcomes: the
//     pinger thread is the failure DETECTOR, so it must keep probing a
//     peer whose breaker is open, otherwise recovery would never be seen.
package resilience

import (
	"errors"
	"hash/fnv"
	"sync"
	"time"

	"dcws/internal/clock"
	"dcws/internal/metrics"
)

// ErrOpen is returned by Execute when the peer's circuit is open and the
// cooldown has not yet elapsed.
var ErrOpen = errors.New("resilience: circuit open")

// ErrAborted, returned (or wrapped) by an Execute/Probe callback, stops
// the run immediately without recording a breaker failure or retrying:
// the caller chose to abandon the call (e.g. a hedged fetch canceling its
// losing leg), which says nothing about the peer's health.
var ErrAborted = errors.New("resilience: aborted")

// Policy configures retries for one class of RPC.
type Policy struct {
	// MaxAttempts is the total number of tries including the first.
	// Values < 1 are treated as 1 (no retry).
	MaxAttempts int
	// BaseDelay is the backoff after the first failed attempt. A negative
	// value disables inter-attempt delays entirely (retries fire
	// back-to-back), which deterministic tests on manual clocks rely on.
	BaseDelay time.Duration
	// MaxDelay caps the exponential growth. 0 means no cap.
	MaxDelay time.Duration
	// Multiplier scales the delay between consecutive attempts
	// (default 2).
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized, in [0, 1).
	// The randomization is deterministic: it hashes (key, attempt), so a
	// given peer retries on the same schedule every run, while distinct
	// peers desynchronize (no retry storms after a shared outage).
	Jitter float64
}

// Backoff returns the delay to wait after the attempt-th failed try
// (attempt counts from 1). The schedule is BaseDelay * Multiplier^(attempt-1),
// capped at MaxDelay, with the Jitter fraction replaced by a deterministic
// hash of (key, attempt).
func (p Policy) Backoff(key string, attempt int) time.Duration {
	if p.BaseDelay <= 0 || attempt < 1 {
		return 0
	}
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 1; i < attempt; i++ {
		d *= mult
		if p.MaxDelay > 0 && d >= float64(p.MaxDelay) {
			d = float64(p.MaxDelay)
			break
		}
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 && p.Jitter < 1 {
		h := fnv.New64a()
		h.Write([]byte(key))
		h.Write([]byte{byte(attempt), byte(attempt >> 8)})
		frac := float64(h.Sum64()%1000) / 1000.0
		d = d*(1-p.Jitter) + d*p.Jitter*frac
	}
	return time.Duration(d)
}

// State is a circuit breaker state.
type State int

// The classic three breaker states.
const (
	// Closed: calls flow normally; consecutive failures are counted.
	Closed State = iota
	// Open: calls are refused without touching the network until the
	// cooldown elapses.
	Open
	// HalfOpen: the cooldown elapsed; a single trial call is allowed
	// through. Success closes the circuit, failure re-opens it.
	HalfOpen
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// BreakerConfig tunes the per-peer circuit breakers.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures trip the breaker
	// (default 5).
	FailureThreshold int
	// Cooldown is how long an open breaker waits before allowing a
	// half-open trial call (default 30s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	return c
}

// Breaker is a circuit breaker for one peer.
type Breaker struct {
	mu        sync.Mutex
	clk       clock.Clock
	cfg       BreakerConfig
	stats     *metrics.ResilienceStats
	state     State
	failures  int       // consecutive failures while closed
	openUntil time.Time // when an open breaker may go half-open
	probing   bool      // a half-open trial call is in flight

	// Per-peer observability counters (the shared stats above aggregate
	// across all peers; operators also need to see WHICH peer is flaky).
	retries        int64     // attempts re-issued against this peer
	trips          int64     // closed/half-open -> open transitions
	rejections     int64     // calls refused while open
	lastTransition time.Time // when the state last changed (zero: never)

	// onTrip, when set, runs (outside b.mu) after each transition to Open,
	// letting the owner react — the connection pool flushes the peer's
	// idle conns, since they are as suspect as the calls that tripped it.
	onTrip func()
}

// NewBreaker returns a closed breaker on the given clock. stats may be nil.
func NewBreaker(clk clock.Clock, cfg BreakerConfig, stats *metrics.ResilienceStats) *Breaker {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Breaker{clk: clk, cfg: cfg.withDefaults(), stats: stats}
}

// Allow reports whether a call may proceed. In the open state it returns
// false until the cooldown elapses, then transitions to half-open and
// admits exactly one trial call at a time.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if b.clk.Now().Before(b.openUntil) {
			b.rejections++
			if b.stats != nil {
				b.stats.Rejections.Inc()
			}
			return false
		}
		b.state = HalfOpen
		b.lastTransition = b.clk.Now()
		b.probing = true
		if b.stats != nil {
			b.stats.Probes.Inc()
		}
		return true
	case HalfOpen:
		if b.probing {
			b.rejections++
			if b.stats != nil {
				b.stats.Rejections.Inc()
			}
			return false
		}
		b.probing = true
		if b.stats != nil {
			b.stats.Probes.Inc()
		}
		return true
	}
	return true
}

// Success records a successful call, closing the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != Closed {
		b.lastTransition = b.clk.Now()
		if b.stats != nil {
			b.stats.Recoveries.Inc()
		}
	}
	b.state = Closed
	b.failures = 0
	b.probing = false
}

// Failure records a failed call. A half-open trial failure re-opens the
// circuit immediately; in the closed state the circuit trips once
// FailureThreshold consecutive failures accumulate.
func (b *Breaker) Failure() {
	b.mu.Lock()
	tripped := false
	switch b.state {
	case HalfOpen:
		b.trip()
		tripped = true
	case Closed:
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
			tripped = true
		}
	case Open:
		// A detector-path failure while open just extends nothing; the
		// cooldown keeps running.
	}
	b.probing = false
	cb := b.onTrip
	b.mu.Unlock()
	if tripped && cb != nil {
		cb()
	}
}

// trip moves the breaker to open. Callers hold b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.failures = 0
	b.openUntil = b.clk.Now().Add(b.cfg.Cooldown)
	b.trips++
	b.lastTransition = b.clk.Now()
	if b.stats != nil {
		b.stats.Trips.Inc()
	}
}

// releaseProbe frees the half-open trial slot held by a call that was
// admitted through Allow but aborted without an outcome (e.g. the losing
// leg of a hedged fetch reeled in by its CancelToken). The abort says
// nothing about the peer's health, so no state transition is recorded;
// the breaker stays half-open with the slot free, and the next gated call
// becomes the trial instead. Without this an aborted trial would leave
// probing stuck true and wedge the breaker rejecting every gated call.
func (b *Breaker) releaseProbe() {
	b.mu.Lock()
	b.probing = false
	b.mu.Unlock()
}

// noteRetry records one re-issued attempt against this peer.
func (b *Breaker) noteRetry() {
	b.mu.Lock()
	b.retries++
	b.mu.Unlock()
}

// State reports the breaker's current state without side effects.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Reset forces the breaker closed (e.g. when a peer declared down comes
// back and re-registers through piggybacked load).
func (b *Breaker) Reset() {
	b.mu.Lock()
	if b.state != Closed {
		b.lastTransition = b.clk.Now()
	}
	b.state = Closed
	b.failures = 0
	b.probing = false
	b.mu.Unlock()
}

// PeerStats is one peer's resilience snapshot: current breaker state, the
// per-peer counters, and when the breaker last changed state
// (zero: it never left closed).
type PeerStats struct {
	State          State
	Retries        int64
	Trips          int64
	Rejections     int64
	LastTransition time.Time
}

// Snapshot returns the breaker's per-peer counters and state.
func (b *Breaker) Snapshot() PeerStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	return PeerStats{
		State:          b.state,
		Retries:        b.retries,
		Trips:          b.trips,
		Rejections:     b.rejections,
		LastTransition: b.lastTransition,
	}
}

// Registry holds one Breaker per peer plus the shared counters.
type Registry struct {
	mu       sync.Mutex
	clk      clock.Clock
	cfg      BreakerConfig
	stats    *metrics.ResilienceStats
	breakers map[string]*Breaker
	onTrip   func(peer string)
}

// NewRegistry returns an empty registry on the given clock.
func NewRegistry(clk clock.Clock, cfg BreakerConfig) *Registry {
	if clk == nil {
		clk = clock.Real{}
	}
	return &Registry{
		clk:      clk,
		cfg:      cfg.withDefaults(),
		stats:    &metrics.ResilienceStats{},
		breakers: make(map[string]*Breaker),
	}
}

// Stats exposes the registry's shared counters.
func (r *Registry) Stats() *metrics.ResilienceStats { return r.stats }

// OnTrip registers a callback invoked with the peer's address whenever
// that peer's breaker trips open. The callback runs outside breaker and
// registry locks, on the goroutine whose Failure tripped the circuit, so
// it must be fast and must not block on the failing peer.
func (r *Registry) OnTrip(fn func(peer string)) {
	r.mu.Lock()
	r.onTrip = fn
	r.mu.Unlock()
}

// For returns the breaker for peer, creating it closed on first use.
func (r *Registry) For(peer string) *Breaker {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.breakers[peer]
	if !ok {
		b = NewBreaker(r.clk, r.cfg, r.stats)
		b.onTrip = func() {
			r.mu.Lock()
			fn := r.onTrip
			r.mu.Unlock()
			if fn != nil {
				fn(peer)
			}
		}
		r.breakers[peer] = b
	}
	return b
}

// StateOf reports peer's breaker state without creating a breaker;
// unknown peers report Closed.
func (r *Registry) StateOf(peer string) State {
	r.mu.Lock()
	b, ok := r.breakers[peer]
	r.mu.Unlock()
	if !ok {
		return Closed
	}
	return b.State()
}

// States snapshots every known peer's breaker state.
func (r *Registry) States() map[string]State {
	r.mu.Lock()
	peers := make([]string, 0, len(r.breakers))
	bs := make([]*Breaker, 0, len(r.breakers))
	for p, b := range r.breakers {
		peers = append(peers, p)
		bs = append(bs, b)
	}
	r.mu.Unlock()
	out := make(map[string]State, len(peers))
	for i, p := range peers {
		out[p] = bs[i].State()
	}
	return out
}

// PeerSnapshots returns every known peer's per-peer resilience counters,
// keyed by peer address — the data behind the per-peer telemetry
// families.
func (r *Registry) PeerSnapshots() map[string]PeerStats {
	r.mu.Lock()
	peers := make([]string, 0, len(r.breakers))
	bs := make([]*Breaker, 0, len(r.breakers))
	for p, b := range r.breakers {
		peers = append(peers, p)
		bs = append(bs, b)
	}
	r.mu.Unlock()
	out := make(map[string]PeerStats, len(peers))
	for i, p := range peers {
		out[p] = bs[i].Snapshot()
	}
	return out
}

// Reset closes peer's breaker if one exists.
func (r *Registry) Reset(peer string) {
	r.mu.Lock()
	b, ok := r.breakers[peer]
	r.mu.Unlock()
	if ok {
		b.Reset()
	}
}

// Execute runs fn against peer under the breaker and retry policy: calls
// are refused fast while the circuit is open, failures count toward
// tripping it, and transient errors are retried on the policy's backoff
// schedule. The last error (or ErrOpen if the very first attempt was
// refused) is returned.
func (r *Registry) Execute(p Policy, peer string, fn func() error) error {
	return r.run(p, peer, fn, true)
}

// Probe is Execute without the breaker gate: attempts always reach the
// network, but outcomes are still recorded so a succeeding probe closes
// the peer's breaker. The pinger thread uses this path.
func (r *Registry) Probe(p Policy, peer string, fn func() error) error {
	return r.run(p, peer, fn, false)
}

func (r *Registry) run(p Policy, peer string, fn func() error, gated bool) error {
	b := r.For(peer)
	attempts := p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if gated && !b.Allow() {
			if lastErr != nil {
				return lastErr
			}
			return ErrOpen
		}
		err := fn()
		if err == nil {
			b.Success()
			return nil
		}
		if errors.Is(err, ErrAborted) {
			// The caller abandoned the call; neither a failure signal nor
			// worth retrying. If this call was admitted as the half-open
			// trial, the slot must still be handed back — otherwise the
			// abort wedges the breaker half-open, rejecting every gated
			// call until the ungated pinger happens to probe the peer.
			if gated {
				b.releaseProbe()
			}
			return err
		}
		b.Failure()
		lastErr = err
		if attempt < attempts {
			r.stats.Retries.Inc()
			b.noteRetry()
			if d := p.Backoff(peer, attempt); d > 0 {
				r.clk.Sleep(d)
			}
		}
	}
	return lastErr
}

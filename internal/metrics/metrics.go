// Package metrics provides the performance counters used throughout DCWS:
// monotone counters, sliding-window rate estimators for the paper's two
// headline measures (connections per second and bytes per second), and time
// series samplers for the warm-up experiment (Figure 8).
package metrics

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a concurrency-safe monotone counter.
type Counter struct {
	n atomic.Int64
}

// Add increments the counter by delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("metrics: negative Counter.Add")
	}
	c.n.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value reports the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Rate estimates events per second over a sliding window. The paper's load
// metric ("total number of requests per minute could be used as a
// satisfactory load metric", §3.3) is a Rate with a one-minute window.
//
// Events are bucketed by time so memory stays bounded regardless of event
// volume.
type Rate struct {
	mu     sync.Mutex
	window time.Duration
	ring   rateRing
}

// NewRate returns a rate estimator over the given window. The window is
// divided into 60 buckets (minimum bucket 1ms).
func NewRate(window time.Duration) *Rate {
	if window <= 0 {
		window = time.Minute
	}
	return &Rate{window: window, ring: newRateRing(window)}
}

// Observe records weight events at time now.
func (r *Rate) Observe(now time.Time, weight float64) {
	u := now.UnixNano()
	r.mu.Lock()
	r.ring.observe(u, weight)
	r.mu.Unlock()
}

// PerSecond reports the estimated events per second as of now.
func (r *Rate) PerSecond(now time.Time) float64 {
	return r.Total(now) / r.window.Seconds()
}

// Total reports the sum of weights currently inside the window.
func (r *Rate) Total(now time.Time) float64 {
	u := now.UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.total(u)
}

// rateRing is a Rate's state without its lock: a fixed ring of buckets
// addressed by an integer bucket index, so recording an event costs one
// comparison and one addition, and no division once the current bucket is
// known. Bucket i covers the Unix nanoseconds [i·bucket − phase,
// (i+1)·bucket − phase): the boundaries of time.Time.Truncate(bucket),
// which aligns to the zero Time rather than to the Unix epoch.
//
// A bucket counts while it starts after the eviction cutoff, the latest
// now − window any call has seen, so eviction is permanent. Every live
// bucket then starts within one window of the newest reading, and
// ceil(window/bucket) slots hold them all without two sharing a slot.
type rateRing struct {
	window, bucket, phase int64 // nanoseconds
	slots                 []rateBucket
	newest                int64 // largest bucket index observed
	cutoff                int64 // buckets starting at or before it are evicted
	cur, curStart         int64 // the last bucket an observation fell in
	curSlot               *rateBucket
}

type rateBucket struct {
	idx int64 // which bucket the slot holds; math.MinInt64 when none
	sum float64
}

func newRateRing(window time.Duration) rateRing {
	bucket := window / 60
	if bucket < time.Millisecond {
		bucket = time.Millisecond
	}
	epoch := time.Unix(0, 0)
	r := rateRing{
		window:   int64(window),
		bucket:   int64(bucket),
		phase:    int64(epoch.Sub(epoch.Truncate(bucket))),
		slots:    make([]rateBucket, (window+bucket-1)/bucket),
		newest:   math.MinInt64,
		cutoff:   math.MinInt64,
		curStart: math.MaxInt64,
	}
	for i := range r.slots {
		r.slots[i].idx = math.MinInt64
	}
	return r
}

// index returns the bucket index of the Unix-nanosecond reading u and its
// slot. Consecutive readings nearly always fall in the bucket of the one
// before, which is answered without dividing.
func (r *rateRing) index(u int64) (int64, *rateBucket) {
	if u >= r.curStart && u-r.curStart < r.bucket {
		return r.cur, r.curSlot
	}
	v := u + r.phase
	idx := v / r.bucket
	if v%r.bucket < 0 {
		idx--
	}
	r.cur, r.curStart, r.curSlot = idx, idx*r.bucket-r.phase, r.slot(idx)
	return idx, r.curSlot
}

// slot returns the ring slot of bucket idx.
func (r *rateRing) slot(idx int64) *rateBucket {
	n := int64(len(r.slots))
	i := idx % n
	if i < 0 {
		i += n
	}
	return &r.slots[i]
}

// evict moves the cutoff up to u − window; it never moves back.
func (r *rateRing) evict(u int64) {
	if c := u - r.window; c > r.cutoff {
		r.cutoff = c
	}
}

func (r *rateRing) observe(u int64, weight float64) {
	r.evict(u)
	idx, b := r.index(u)
	if b.idx == idx {
		b.sum += weight
	} else if b.idx < idx {
		// The slot's bucket is at least a ring older: evicted.
		*b = rateBucket{idx: idx, sum: weight}
	} else {
		return // a ring behind a bucket already seen: evicted
	}
	if idx > r.newest {
		r.newest = idx
	}
}

// total sums the live buckets oldest first, as of u.
func (r *rateRing) total(u int64) float64 {
	r.evict(u)
	if r.newest == math.MinInt64 {
		return 0
	}
	var sum float64
	for idx := r.newest - int64(len(r.slots)) + 1; idx <= r.newest; idx++ {
		if b := r.slot(idx); b.idx == idx && idx*r.bucket-r.phase > r.cutoff {
			sum += b.sum
		}
	}
	return sum
}

// Sample is one point in a time series.
type Sample struct {
	At    time.Time
	Value float64
}

// Series collects timestamped samples, e.g. CPS sampled every ten seconds
// for the Figure 8 warm-up curve.
type Series struct {
	mu      sync.Mutex
	Name    string
	samples []Sample
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Record appends a sample.
func (s *Series) Record(at time.Time, v float64) {
	s.mu.Lock()
	s.samples = append(s.samples, Sample{At: at, Value: v})
	s.mu.Unlock()
}

// Samples returns a copy of the collected samples in record order.
func (s *Series) Samples() []Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Sample, len(s.samples))
	copy(out, s.samples)
	return out
}

// Len reports the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.samples)
}

// Max reports the largest sample value, or 0 for an empty series.
func (s *Series) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max float64
	for _, p := range s.samples {
		if p.Value > max {
			max = p.Value
		}
	}
	return max
}

// Mean reports the arithmetic mean of sample values, or 0 for an empty
// series.
func (s *Series) Mean() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.samples) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.samples {
		sum += p.Value
	}
	return sum / float64(len(s.samples))
}

// ServerStats aggregates a DCWS server's traffic counters. It is the source
// of the LoadMetric published in the global load table.
type ServerStats struct {
	Connections Counter // completed request/response exchanges
	Bytes       Counter // response body bytes sent
	Dropped     Counter // connections answered 503 due to a full queue
	Redirects   Counter // 301 responses for migrated documents
	Fetches     Counter // internal home-to-coop document fetches
	Rebuilds    Counter // documents reparsed and reconstructed (dirty bit)

	// mu guards both rate rings: a request updates CPS and BPS in one
	// critical section.
	mu  sync.Mutex
	cps rateRing
	bps rateRing
}

// NewServerStats returns stats with rate windows of the given width.
func NewServerStats(window time.Duration) *ServerStats {
	if window <= 0 {
		window = time.Minute
	}
	return &ServerStats{cps: newRateRing(window), bps: newRateRing(window)}
}

// ObserveRequest records one served request of size bytes at time now.
func (s *ServerStats) ObserveRequest(now time.Time, bytes int64) {
	s.Connections.Inc()
	s.Bytes.Add(bytes)
	u := now.UnixNano()
	s.mu.Lock()
	s.cps.observe(u, 1)
	s.bps.observe(u, float64(bytes))
	s.mu.Unlock()
}

// CPS reports connections per second over the sliding window.
func (s *ServerStats) CPS(now time.Time) float64 { return s.perSecond(&s.cps, now) }

// BPS reports bytes per second over the sliding window.
func (s *ServerStats) BPS(now time.Time) float64 { return s.perSecond(&s.bps, now) }

func (s *ServerStats) perSecond(r *rateRing, now time.Time) float64 {
	u := now.UnixNano()
	s.mu.Lock()
	sum := r.total(u)
	s.mu.Unlock()
	return sum / time.Duration(r.window).Seconds()
}

// LoadMetric reports the server's current load for the global load table.
// Per the paper's discussion (§5.3) the default metric is CPS; BPS can be
// selected for large-file workloads such as Sequoia.
func (s *ServerStats) LoadMetric(now time.Time, useBPS bool) float64 {
	if useBPS {
		return s.BPS(now)
	}
	return s.CPS(now)
}

// String summarizes the counters for logs and the dcwsctl-style dumps.
func (s *ServerStats) String() string {
	return fmt.Sprintf("conns=%d bytes=%d dropped=%d redirects=%d fetches=%d rebuilds=%d",
		s.Connections.Value(), s.Bytes.Value(), s.Dropped.Value(),
		s.Redirects.Value(), s.Fetches.Value(), s.Rebuilds.Value())
}

// ResilienceStats aggregates the retry and circuit-breaker counters of the
// inter-server RPC layer (internal/resilience).
type ResilienceStats struct {
	Retries    Counter // attempts re-issued after a transient failure
	Trips      Counter // breaker transitions into the open state
	Rejections Counter // calls refused while a breaker was open
	Probes     Counter // half-open trial calls admitted
	Recoveries Counter // breakers that closed again after tripping
}

// String summarizes the counters for logs.
func (s *ResilienceStats) String() string {
	return fmt.Sprintf("retries=%d trips=%d rejections=%d probes=%d recoveries=%d",
		s.Retries.Value(), s.Trips.Value(), s.Rejections.Value(),
		s.Probes.Value(), s.Recoveries.Value())
}

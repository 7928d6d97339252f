package metrics

import (
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounterAddAndValue(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %d, want 5", got)
	}
}

func TestCounterNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != 20000 {
		t.Fatalf("Value = %d, want 20000", got)
	}
}

func TestRatePerSecond(t *testing.T) {
	r := NewRate(10 * time.Second)
	base := time.Unix(1000, 0)
	// 100 events spread over the full 10s window -> 10 events/sec.
	for i := 0; i < 100; i++ {
		r.Observe(base.Add(time.Duration(i)*100*time.Millisecond), 1)
	}
	got := r.PerSecond(base.Add(10 * time.Second))
	if got < 9 || got > 11 {
		t.Fatalf("PerSecond = %v, want ~10", got)
	}
}

func TestRateEvictsOldEvents(t *testing.T) {
	r := NewRate(time.Second)
	base := time.Unix(0, 0)
	r.Observe(base, 100)
	if got := r.Total(base.Add(10 * time.Second)); got != 0 {
		t.Fatalf("events not evicted after window: Total = %v", got)
	}
}

func TestRateWeights(t *testing.T) {
	r := NewRate(time.Second)
	base := time.Unix(0, 0)
	r.Observe(base.Add(500*time.Millisecond), 2048)
	if got := r.Total(base.Add(900 * time.Millisecond)); got != 2048 {
		t.Fatalf("Total = %v, want 2048", got)
	}
}

func TestRateDefaultWindow(t *testing.T) {
	r := NewRate(0)
	if r.window != time.Minute {
		t.Fatalf("default window = %v, want 1m", r.window)
	}
}

func TestRateTotalNeverNegative(t *testing.T) {
	f := func(offsets []uint16) bool {
		r := NewRate(time.Second)
		base := time.Unix(0, 0)
		last := base
		for _, o := range offsets {
			at := base.Add(time.Duration(o) * time.Millisecond)
			if at.After(last) {
				last = at
			}
			r.Observe(at, 1)
		}
		return r.Total(last) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeriesRecordAndStats(t *testing.T) {
	s := NewSeries("cps")
	base := time.Unix(0, 0)
	for i, v := range []float64{1, 5, 3} {
		s.Record(base.Add(time.Duration(i)*time.Second), v)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	if s.Max() != 5 {
		t.Fatalf("Max = %v, want 5", s.Max())
	}
	if s.Mean() != 3 {
		t.Fatalf("Mean = %v, want 3", s.Mean())
	}
	if got := s.Samples(); len(got) != 3 || got[1].Value != 5 {
		t.Fatalf("Samples = %+v", got)
	}
}

func TestSeriesEmpty(t *testing.T) {
	s := NewSeries("empty")
	if s.Max() != 0 || s.Mean() != 0 || s.Len() != 0 {
		t.Fatal("empty series should report zeros")
	}
}

func TestSeriesSamplesIsCopy(t *testing.T) {
	s := NewSeries("x")
	s.Record(time.Unix(0, 0), 1)
	got := s.Samples()
	got[0].Value = 99
	if s.Samples()[0].Value != 1 {
		t.Fatal("Samples exposed internal storage")
	}
}

func TestServerStatsObserve(t *testing.T) {
	st := NewServerStats(10 * time.Second)
	base := time.Unix(0, 0)
	for i := 0; i < 50; i++ {
		st.ObserveRequest(base.Add(time.Duration(i)*100*time.Millisecond), 1000)
	}
	now := base.Add(5 * time.Second)
	if cps := st.CPS(now); cps < 4 || cps > 6 {
		t.Fatalf("CPS = %v, want ~5", cps)
	}
	if bps := st.BPS(now); bps < 4000 || bps > 6000 {
		t.Fatalf("BPS = %v, want ~5000", bps)
	}
	if st.Connections.Value() != 50 {
		t.Fatalf("Connections = %d", st.Connections.Value())
	}
	if st.Bytes.Value() != 50000 {
		t.Fatalf("Bytes = %d", st.Bytes.Value())
	}
}

func TestServerStatsLoadMetricSelection(t *testing.T) {
	st := NewServerStats(time.Second)
	now := time.Unix(0, 0)
	st.ObserveRequest(now, 5000)
	at := now.Add(500 * time.Millisecond)
	cps := st.LoadMetric(at, false)
	bps := st.LoadMetric(at, true)
	if bps <= cps {
		t.Fatalf("BPS metric (%v) should exceed CPS metric (%v) for a 5KB doc", bps, cps)
	}
}

func TestServerStatsString(t *testing.T) {
	st := NewServerStats(time.Second)
	st.Dropped.Inc()
	if s := st.String(); !strings.Contains(s, "dropped=1") {
		t.Fatalf("String() = %q", s)
	}
}

// truncRate is the Rate this package kept before its bucket ring: a list
// of buckets started by time.Time.Truncate, appended to and trimmed from
// the front. It is the reference the ring must match figure for figure.
type truncRate struct {
	window  time.Duration
	bucket  time.Duration
	buckets []truncBucket
}

type truncBucket struct {
	start time.Time
	sum   float64
}

func newTruncRate(window time.Duration) *truncRate {
	if window <= 0 {
		window = time.Minute
	}
	bucket := window / 60
	if bucket < time.Millisecond {
		bucket = time.Millisecond
	}
	return &truncRate{window: window, bucket: bucket}
}

func (r *truncRate) Observe(now time.Time, weight float64) {
	start := now.Truncate(r.bucket)
	n := len(r.buckets)
	if n > 0 && r.buckets[n-1].start.Equal(start) {
		r.buckets[n-1].sum += weight
	} else {
		r.buckets = append(r.buckets, truncBucket{start: start, sum: weight})
	}
	r.evict(now)
}

func (r *truncRate) Total(now time.Time) float64 {
	r.evict(now)
	var sum float64
	for _, b := range r.buckets {
		sum += b.sum
	}
	return sum
}

func (r *truncRate) PerSecond(now time.Time) float64 { return r.Total(now) / r.window.Seconds() }

func (r *truncRate) evict(now time.Time) {
	cutoff := now.Add(-r.window)
	i := 0
	for i < len(r.buckets) && !r.buckets[i].start.After(cutoff) {
		i++
	}
	if i > 0 {
		r.buckets = append(r.buckets[:0], r.buckets[i:]...)
	}
}

// rateStep advances a stream's clock the way the checks need: within a
// bucket, onto the next bucket boundary exactly, onto the exact eviction
// cutoff of the current bucket or a nanosecond either side of it, or past
// the whole window.
func rateStep(rng *rand.Rand, now time.Time, bucket, window time.Duration) time.Time {
	start := now.Truncate(bucket)
	switch rng.IntN(8) {
	case 0:
		return now
	case 1:
		return now.Add(time.Duration(rng.Int64N(int64(time.Millisecond))))
	case 2:
		return now.Add(time.Duration(rng.Int64N(int64(bucket))))
	case 3:
		return start.Add(bucket) // a bucket boundary, exactly
	case 4:
		if c := start.Add(window); c.After(now) {
			return c // the instant this bucket is evicted
		}
	case 5:
		if c := start.Add(window - 1); c.After(now) {
			return c // the last instant it still counts
		}
	case 6:
		return now.Add(time.Duration(rng.Int64N(int64(window))))
	}
	return now.Add(window + time.Duration(rng.Int64N(int64(window))))
}

// TestRateMatchesTruncateReference drives the ring and the reference with
// the same seeded streams — observations and reads interleaved on a clock
// that never runs back, steps landing on bucket boundaries and on the
// exact eviction cutoff — and requires identical Total and PerSecond
// after every step. The 10 s window gives the server's 166.67 ms bucket,
// which is not a whole second; the 50 ms window clamps to 1 ms buckets.
func TestRateMatchesTruncateReference(t *testing.T) {
	bases := []time.Time{
		time.Unix(1_700_000_000, 123_456_789),
		time.Date(2001, 2, 3, 4, 5, 6, 7, time.UTC),
		time.Unix(0, 0).Add(-3 * time.Second), // crosses the Unix epoch
	}
	for _, window := range []time.Duration{10 * time.Second, time.Minute, 50 * time.Millisecond} {
		for seed := uint64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewPCG(seed, uint64(window)))
			now := bases[seed%uint64(len(bases))]
			got, want := NewRate(window), newTruncRate(window)
			for step := 0; step < 2000; step++ {
				now = rateStep(rng, now, want.bucket, window)
				if rng.IntN(3) > 0 {
					w := float64(rng.IntN(5000))
					got.Observe(now, w)
					want.Observe(now, w)
					continue
				}
				if g, w := got.Total(now), want.Total(now); g != w {
					t.Fatalf("window %v seed %d step %d at %v: Total = %v, reference %v",
						window, seed, step, now, g, w)
				}
				if g, w := got.PerSecond(now), want.PerSecond(now); g != w {
					t.Fatalf("window %v seed %d step %d at %v: PerSecond = %v, reference %v",
						window, seed, step, now, g, w)
				}
			}
		}
	}
}

// TestServerStatsMatchesTruncateReference checks CPS and BPS, which share
// one critical section per request, against two reference rates.
func TestServerStatsMatchesTruncateReference(t *testing.T) {
	const window = 10 * time.Second
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 7))
		now := time.Unix(1_700_000_000, int64(seed)*1_000_003)
		st := NewServerStats(window)
		cps, bps := newTruncRate(window), newTruncRate(window)
		for step := 0; step < 2000; step++ {
			now = rateStep(rng, now, cps.bucket, window)
			switch rng.IntN(4) {
			case 0:
				if g, w := st.CPS(now), cps.PerSecond(now); g != w {
					t.Fatalf("seed %d step %d: CPS = %v, reference %v", seed, step, g, w)
				}
			case 1:
				if g, w := st.BPS(now), bps.PerSecond(now); g != w {
					t.Fatalf("seed %d step %d: BPS = %v, reference %v", seed, step, g, w)
				}
			default:
				n := rng.Int64N(1 << 20)
				st.ObserveRequest(now, n)
				cps.Observe(now, 1)
				bps.Observe(now, float64(n))
			}
		}
	}
}

// TestRateEvictsAtExactCutoff pins the boundary itself: a bucket counts
// until now − window reaches its start, and not at that instant.
func TestRateEvictsAtExactCutoff(t *testing.T) {
	const window = 10 * time.Second
	r := NewRate(window)
	at := time.Unix(1_700_000_000, 0).Truncate(window / 60) // a bucket start
	r.Observe(at.Add(time.Millisecond), 3)
	if got := r.Total(at.Add(window - 1)); got != 3 {
		t.Fatalf("Total one ns before the cutoff = %v, want 3", got)
	}
	if got := r.Total(at.Add(window)); got != 0 {
		t.Fatalf("Total at the cutoff = %v, want 0", got)
	}
	// Eviction is permanent: an earlier read does not bring it back.
	if got := r.Total(at.Add(window - 1)); got != 0 {
		t.Fatalf("Total after eviction = %v, want 0", got)
	}
}

// TestRequestAccountingAllocatesNothing: the per-request calls take no
// allocation.
func TestRequestAccountingAllocatesNothing(t *testing.T) {
	st := NewServerStats(10 * time.Second)
	now := time.Unix(1_700_000_000, 0)
	if n := testing.AllocsPerRun(1000, func() {
		now = now.Add(time.Millisecond)
		st.ObserveRequest(now, 3800)
	}); n != 0 {
		t.Errorf("ObserveRequest allocates %v times per call", n)
	}
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Add(3) }); n != 0 {
		t.Errorf("Counter.Add allocates %v times per call", n)
	}
}

func BenchmarkObserveRequest(b *testing.B) {
	st := NewServerStats(10 * time.Second)
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.ObserveRequest(now.Add(time.Duration(i)*time.Microsecond), 3800)
	}
}

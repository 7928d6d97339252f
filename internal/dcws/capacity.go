package dcws

import (
	"fmt"
	"math"
	"strings"
	"time"

	"dcws/internal/hypertext"
	"dcws/internal/metrics"
)

// Capacity calibration. The paper's placement policies (migration §4.3,
// replication §4.4) rank co-ops by raw connection load, which silently
// assumes a homogeneous testbed: on mixed hardware a "least loaded" count
// of 50 on a small box can mean saturation while 50 on a big box is idle.
// Each server therefore measures its own service capacity — documents per
// second it can actually push through its worker pool — and gossips load
// as a fraction of that capacity. Placement then ranks peers by absolute
// headroom (capacity × (1 − utilization)) instead of raw load, which is
// the quantity that actually predicts where spilled work fits.
//
// The estimate has two sources. At startup, before any traffic exists, a
// micro-calibration times the parse→rewrite→render cycle on a synthetic
// document of typical size, giving capacity₀ = workers / cost. From then
// on, every statistics tick folds the achieved mean serve latency (from
// the serve-latency histograms telemetry already keeps) into the estimate
// with EWMA weight Params.CapacitySmoothing, so the figure tracks what the
// machine demonstrates under real traffic — including effects the
// micro-benchmark cannot see, like cache hit rates and co-resident load.

// calibrationRounds is how many synthetic render cycles the startup
// micro-calibration times. Enough to amortize timer jitter and warm the
// path, small enough to keep startup under a few milliseconds.
const calibrationRounds = 24

// minServeCost floors the per-document cost estimate. Serving a cached
// document can complete in nanoseconds, which would imply near-infinite
// capacity and collapse every utilization to zero; the floor keeps the
// scale meaningful (it corresponds to ~50k docs/s/worker).
const minServeCost = 20 * time.Microsecond

// CapacityEnabled reports whether loads are normalized by measured
// capacity. Negative CapacitySmoothing opts out (legacy raw-load wire).
func (p *Params) CapacityEnabled() bool { return p.CapacitySmoothing >= 0 }

// calibrationDoc builds the synthetic document the startup calibration
// renders: ~8 KiB of markup with a realistic sprinkling of links, matching
// the dataset generator's typical page.
func calibrationDoc() []byte {
	var b strings.Builder
	b.WriteString("<html><head><title>calibration</title></head><body>\n")
	for i := 0; b.Len() < 8<<10; i++ {
		fmt.Fprintf(&b, "<p>paragraph %d with filler text to approximate a typical document body</p>\n", i)
		if i%4 == 0 {
			fmt.Fprintf(&b, "<a href=\"http://calib.invalid/doc%03d.html\">doc%03d</a>\n", i, i)
		}
	}
	b.WriteString("</body></html>\n")
	return []byte(b.String())
}

// calibrateCapacity runs the startup micro-calibration and seeds both the
// local estimate and the gossiped self entry. No-op when capacity
// normalization is disabled.
func (s *Server) calibrateCapacity() {
	if !s.params.CapacityEnabled() {
		return
	}
	raw := calibrationDoc()
	// Real wall time deliberately: calibration measures this machine, and
	// runs before the (possibly simulated) clock starts mattering.
	start := time.Now()
	for i := 0; i < calibrationRounds; i++ {
		doc := hypertext.Parse(string(raw))
		_ = doc.Render()
		_ = contentHash(raw)
	}
	per := time.Since(start) / calibrationRounds
	if per < minServeCost {
		per = minServeCost
	}
	cap0 := float64(s.params.Workers) / per.Seconds()
	s.capMu.Lock()
	s.capacity = cap0
	s.capMu.Unlock()
	s.table.SetSelfInfo(roundCapacity(cap0), s.params.Zone)
}

// updateCapacity folds the interval's achieved serve latency into the
// capacity estimate. Called once per statistics tick, before the tick
// computes utilization from the result.
func (s *Server) updateCapacity() {
	if !s.params.CapacityEnabled() {
		return
	}
	var count int64
	var sum time.Duration
	for _, h := range []*metrics.Histogram{s.tel.serveHome, s.tel.serveCoop, s.tel.serveFetch} {
		c, d := h.CountSum()
		count += c
		sum += d
	}
	// Under capMu: a harness's TickStats can overlap the statistics loop.
	s.capMu.Lock()
	deltaCount := count - s.capLastCount
	deltaSum := sum - s.capLastSum
	s.capLastCount, s.capLastSum = count, sum
	// Too few observations this interval to say anything about achievable
	// throughput; keep the current estimate.
	if deltaCount < 8 || deltaSum <= 0 {
		s.capMu.Unlock()
		return
	}
	mean := deltaSum / time.Duration(deltaCount)
	if mean < minServeCost {
		mean = minServeCost
	}
	achieved := float64(s.params.Workers) / mean.Seconds()
	alpha := s.params.CapacitySmoothing
	s.capacity = (1-alpha)*s.capacity + alpha*achieved
	cur := s.capacity
	s.capMu.Unlock()
	s.table.SetSelfInfo(roundCapacity(cur), s.params.Zone)
}

// Capacity reports the current service-capacity estimate (docs/s), 0 when
// capacity normalization is disabled or not yet calibrated.
func (s *Server) Capacity() float64 {
	s.capMu.Lock()
	defer s.capMu.Unlock()
	return s.capacity
}

// normalizeLoad converts a raw load figure to a fraction of capacity when
// normalization is on. With it off — or before calibration — the raw
// figure passes through, which is exactly the legacy wire format.
func (s *Server) normalizeLoad(load float64) float64 {
	if !s.params.CapacityEnabled() {
		return load
	}
	c := s.Capacity()
	if c <= 0 {
		return load
	}
	return load / c
}

// advertisedLoad is the figure the server gossips: the quantized raw load
// (quantizing before normalizing keeps the header-stability property of
// loadQuantum independent of the capacity scale) divided by capacity.
func (s *Server) advertisedLoad(now time.Time) float64 {
	return s.normalizeLoad(quantizeLoad(s.loadMetric(now)))
}

// roundCapacity rounds to three significant figures so jitter in the EWMA
// does not bump the gossiped self entry — and therefore re-ship it to
// every peer — on every tick.
func roundCapacity(c float64) float64 {
	if c <= 0 {
		return 0
	}
	scale := math.Pow(10, math.Floor(math.Log10(c))-2)
	return math.Round(c/scale) * scale
}

// Package telemetry is the cluster-wide observability layer: a
// concurrency-safe registry of named metric families (counters, gauges,
// and the power-of-two histograms of internal/metrics promoted behind a
// shared interface), rendered in the Prometheus text exposition format by
// a hand-rolled writer, plus lightweight request tracing (trace IDs
// carried between servers on the X-DCWS-Trace extension header and a
// bounded in-memory ring of recent spans).
//
// The paper names connections/sec, bytes/sec, and round-trip time the
// canonical web-server metrics (§5.2–5.3) but measures them only offline
// in the simulator; this package makes the live serving path report them
// continuously, the same way the load-balancing design itself depends on
// continuously observed per-server statistics (§3.3).
package telemetry

import (
	"io"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"dcws/internal/metrics"
)

// Label is one name=value pair attached to a metric series.
type Label struct {
	Key   string
	Value string
}

// Sample is one series emitted by a Collector: a label set and a value.
type Sample struct {
	Labels []Label
	Value  float64
}

// Counter is a registry-owned monotone counter. The zero value is unusable;
// obtain counters from Registry.Counter.
type Counter struct {
	v atomic.Int64
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments the counter by delta, which must be non-negative.
func (c *Counter) Add(delta int64) {
	if delta < 0 {
		panic("telemetry: negative Counter.Add")
	}
	c.v.Add(delta)
}

// Value reports the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// series is one (label set, backing value) pair inside a family.
type series struct {
	labelKey string // canonical rendered label block, "" for unlabeled
	labels   []Label
	counter  *Counter           // typ counter, registry-owned
	fn       func() float64     // typ counter/gauge, caller-backed
	hist     *metrics.Histogram // typ histogram
}

// family is one named metric family; every series in it shares the type.
type family struct {
	name    string
	help    string
	typ     string // "counter", "gauge", "histogram"
	series  []*series
	byKey   map[string]*series
	collect func() []Sample // dynamic families (per-peer, per-server views)
}

// Registry holds metric families and renders them for scraping. All methods
// are safe for concurrent use.
type Registry struct {
	mu          sync.Mutex
	families    []*family
	byName      map[string]*family
	seriesLimit int              // per-family cap at scrape time; <=0 is uncapped
	dropped     map[string]int64 // cumulative series dropped, by family name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family), dropped: make(map[string]int64)}
}

// SetSeriesLimit caps how many series any single family may emit per scrape.
// Dynamic families (per-peer, per-server collectors) grow with cluster size;
// the cap keeps one runaway family from blowing up scrape cost at hundreds
// of peers. Series past the cap are dropped in render order and counted in
// the telemetry_series_dropped_total meta-family. n <= 0 removes the cap.
func (r *Registry) SetSeriesLimit(n int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seriesLimit = n
}

// family returns the named family, creating it with the given type, or
// panics when the name is reused with a different type or invalid — both
// are programming errors a test catches immediately.
func (r *Registry) family(name, help, typ string) *family {
	if !validMetricName(name) {
		panic("telemetry: invalid metric name " + strconv.Quote(name))
	}
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, byKey: make(map[string]*series)}
		r.families = append(r.families, f)
		r.byName[name] = f
		return f
	}
	if f.typ != typ {
		panic("telemetry: metric " + name + " registered as " + f.typ + " and " + typ)
	}
	return f
}

// Counter returns the counter series for name+labels, registering the
// family (and the series) on first use. Repeated calls with the same name
// and labels return the same *Counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "counter")
	key := renderLabels(labels)
	if s, ok := f.byKey[key]; ok {
		if s.counter == nil {
			panic("telemetry: metric " + name + key + " is not a plain counter")
		}
		return s.counter
	}
	s := &series{labelKey: key, labels: labels, counter: &Counter{}}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s.counter
}

// CounterFunc registers a counter series whose value is read from fn at
// scrape time — the way existing counters elsewhere in the system (for
// example metrics.ServerStats) are promoted into the registry without
// being rewritten.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, "counter", fn, labels)
}

// GaugeFunc registers a gauge series whose value is read from fn at scrape
// time (queue depths, cache sizes, table lengths).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.registerFunc(name, help, "gauge", fn, labels)
}

func (r *Registry) registerFunc(name, help, typ string, fn func() float64, labels []Label) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typ)
	key := renderLabels(labels)
	if _, ok := f.byKey[key]; ok {
		panic("telemetry: metric " + name + key + " registered twice")
	}
	s := &series{labelKey: key, labels: labels, fn: fn}
	f.series = append(f.series, s)
	f.byKey[key] = s
}

// Histogram returns the histogram series for name+labels, registering it
// on first use. The returned histogram is the ordinary power-of-two
// internal/metrics.Histogram; callers Observe durations on it directly.
func (r *Registry) Histogram(name, help string, labels ...Label) *metrics.Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, "histogram")
	key := renderLabels(labels)
	if s, ok := f.byKey[key]; ok {
		if s.hist == nil {
			panic("telemetry: metric " + name + key + " is not a histogram")
		}
		return s.hist
	}
	s := &series{labelKey: key, labels: labels, hist: &metrics.Histogram{}}
	f.series = append(f.series, s)
	f.byKey[key] = s
	return s.hist
}

// Collector registers a dynamic family: fn is called at scrape time and
// may return a different series set on every scrape (per-peer breaker
// states, per-server load-table entries). typ must be "counter" or
// "gauge".
func (r *Registry) Collector(name, help, typ string, fn func() []Sample) {
	if typ != "counter" && typ != "gauge" {
		panic("telemetry: collector " + name + " must be counter or gauge, got " + typ)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, typ)
	if f.collect != nil || len(f.series) > 0 {
		panic("telemetry: collector " + name + " registered twice")
	}
	f.collect = fn
}

// Value reads one series by family name and label set: a counter or gauge
// reads as its value, a histogram as its observation count. ok is false
// when the registry holds no such series. A dynamic family is collected
// on the spot, exactly as a scrape would.
func (r *Registry) Value(name string, labels ...Label) (v float64, ok bool) {
	key := renderLabels(labels)
	r.mu.Lock()
	var s *series
	var collect func() []Sample
	if f := r.byName[name]; f != nil {
		s, collect = f.byKey[key], f.collect
	}
	r.mu.Unlock()
	switch {
	case s == nil:
	case s.hist != nil:
		return float64(s.hist.Snapshot().Count), true
	case s.counter != nil:
		return float64(s.counter.Value()), true
	case s.fn != nil:
		return s.fn(), true
	}
	if collect != nil {
		for _, smp := range collect() {
			if renderLabels(smp.Labels) == key {
				return smp.Value, true
			}
		}
	}
	return 0, false
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4): "# HELP" and "# TYPE" comments followed by one
// sample line per series, histograms expanded into cumulative _bucket /
// _sum / _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, len(r.families))
	copy(fams, r.families)
	limit := r.seriesLimit
	r.mu.Unlock()

	droppedNow := make(map[string]int64)
	var buf []byte
	for _, f := range fams {
		buf = buf[:0]
		buf = append(buf, "# HELP "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = appendEscapedHelp(buf, f.help)
		buf = append(buf, "\n# TYPE "...)
		buf = append(buf, f.name...)
		buf = append(buf, ' ')
		buf = append(buf, f.typ...)
		buf = append(buf, '\n')

		// budget counts emitted series within this family; each histogram
		// counts once, not per bucket line. Collector samples render first
		// (sorted, so truncation is deterministic), then static series.
		budget := limit
		if budget <= 0 {
			budget = int(^uint(0) >> 1)
		}
		if f.collect != nil {
			samples := f.collect()
			sort.Slice(samples, func(i, j int) bool {
				return renderLabels(samples[i].Labels) < renderLabels(samples[j].Labels)
			})
			if len(samples) > budget {
				droppedNow[f.name] += int64(len(samples) - budget)
				samples = samples[:budget]
			}
			budget -= len(samples)
			for _, s := range samples {
				buf = appendSample(buf, f.name, renderLabels(s.Labels), s.Value)
			}
		}
		for _, s := range f.series {
			if budget == 0 {
				droppedNow[f.name]++
				continue
			}
			budget--
			switch {
			case s.hist != nil:
				buf = appendHistogram(buf, f.name, s.labels, s.hist.Snapshot())
			case s.counter != nil:
				buf = appendSample(buf, f.name, s.labelKey, float64(s.counter.Value()))
			case s.fn != nil:
				buf = appendSample(buf, f.name, s.labelKey, s.fn())
			}
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}

	// Fold this scrape's drops into the cumulative per-family counts, then
	// render the meta-family (itself uncapped: it is bounded by the number
	// of registered families, not by cluster size).
	r.mu.Lock()
	for name, n := range droppedNow {
		r.dropped[name] += n
	}
	names := make([]string, 0, len(r.dropped))
	for name := range r.dropped {
		names = append(names, name)
	}
	counts := make([]int64, len(names))
	sort.Strings(names)
	for i, name := range names {
		counts[i] = r.dropped[name]
	}
	r.mu.Unlock()

	if len(names) > 0 {
		buf = buf[:0]
		buf = append(buf, "# HELP telemetry_series_dropped_total series dropped at scrape time by the per-family series limit\n"...)
		buf = append(buf, "# TYPE telemetry_series_dropped_total counter\n"...)
		for i, name := range names {
			key := renderLabels([]Label{{Key: "family", Value: name}})
			buf = appendSample(buf, "telemetry_series_dropped_total", key, float64(counts[i]))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// appendSample renders one "name{labels} value" line.
func appendSample(buf []byte, name, labelKey string, v float64) []byte {
	buf = append(buf, name...)
	buf = append(buf, labelKey...)
	buf = append(buf, ' ')
	buf = appendValue(buf, v)
	return append(buf, '\n')
}

// appendHistogram renders the cumulative bucket series of one histogram.
// Buckets are emitted up to the highest occupied power-of-two bound plus
// the mandatory +Inf bucket; _sum is in seconds per Prometheus convention.
// A bucket carrying an exemplar gets an OpenMetrics-style suffix
// ("... # {trace_id=\"x\"} value") linking the bucket to a concrete trace;
// parsers of the plain 0.0.4 format that split on the last space must
// strip the " # {...}" tail first (dcwsctl metrics -check does).
func appendHistogram(buf []byte, name string, labels []Label, snap metrics.HistogramSnapshot) []byte {
	top := -1
	for i, n := range snap.Buckets {
		if n > 0 {
			top = i
		}
	}
	var cum int64
	for i := 0; i <= top; i++ {
		cum += snap.Buckets[i]
		le := float64(uint64(1)<<uint(i+1)) / 1e6 // bucket upper bound in seconds
		buf = append(buf, name...)
		buf = append(buf, "_bucket"...)
		buf = append(buf, renderLabels(append(append([]Label(nil), labels...), Label{"le", formatFloat(le)}))...)
		buf = append(buf, ' ')
		buf = strconv.AppendInt(buf, cum, 10)
		if ex := snap.Exemplars[i]; ex.TraceID != "" {
			buf = append(buf, " # {trace_id=\""...)
			buf = appendEscapedValue(buf, ex.TraceID)
			buf = append(buf, "\"} "...)
			buf = appendValue(buf, ex.Value.Seconds())
		}
		buf = append(buf, '\n')
	}
	buf = append(buf, name...)
	buf = append(buf, "_bucket"...)
	buf = append(buf, renderLabels(append(append([]Label(nil), labels...), Label{"le", "+Inf"}))...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, snap.Count, 10)
	buf = append(buf, '\n')

	buf = append(buf, name...)
	buf = append(buf, "_sum"...)
	buf = append(buf, renderLabels(labels)...)
	buf = append(buf, ' ')
	buf = appendValue(buf, snap.Sum.Seconds())
	buf = append(buf, '\n')

	buf = append(buf, name...)
	buf = append(buf, "_count"...)
	buf = append(buf, renderLabels(labels)...)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, snap.Count, 10)
	return append(buf, '\n')
}

func appendValue(buf []byte, v float64) []byte {
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// renderLabels produces the canonical "{k=\"v\",...}" block, or "" for an
// empty label set. Keys are sorted so equal label sets render identically.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var buf []byte
	buf = append(buf, '{')
	for i, l := range sorted {
		if !validLabelName(l.Key) {
			panic("telemetry: invalid label name " + strconv.Quote(l.Key))
		}
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, l.Key...)
		buf = append(buf, '=', '"')
		buf = appendEscapedValue(buf, l.Value)
		buf = append(buf, '"')
	}
	buf = append(buf, '}')
	return string(buf)
}

// appendEscapedValue escapes a label value per the exposition format:
// backslash, double quote, and newline.
func appendEscapedValue(buf []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '"':
			buf = append(buf, '\\', '"')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, v[i])
		}
	}
	return buf
}

// appendEscapedHelp escapes HELP text: backslash and newline.
func appendEscapedHelp(buf []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			buf = append(buf, '\\', '\\')
		case '\n':
			buf = append(buf, '\\', 'n')
		default:
			buf = append(buf, v[i])
		}
	}
	return buf
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' ||
			('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') ||
			(i > 0 && '0' <= c && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

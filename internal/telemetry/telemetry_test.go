package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dcws_test_total", "a test counter")
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("Value = %d", c.Value())
	}
	// Same name+labels returns the same counter.
	if r.Counter("dcws_test_total", "a test counter") != c {
		t.Fatal("re-registration returned a different counter")
	}
	labeled := r.Counter("dcws_code_total", "per-code", Label{"code", "200"})
	labeled.Inc()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP dcws_test_total a test counter\n",
		"# TYPE dcws_test_total counter\n",
		"dcws_test_total 3\n",
		`dcws_code_total{code="200"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestGaugeAndCounterFunc(t *testing.T) {
	r := NewRegistry()
	depth := 7
	r.GaugeFunc("dcws_queue_depth", "queued connections", func() float64 { return float64(depth) })
	r.CounterFunc("dcws_ext_total", "promoted counter", func() float64 { return 42 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "dcws_queue_depth 7\n") || !strings.Contains(out, "dcws_ext_total 42\n") {
		t.Fatalf("exposition:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE dcws_queue_depth gauge\n") {
		t.Fatalf("gauge type missing:\n%s", out)
	}
}

func TestValueReadsEverySeriesKind(t *testing.T) {
	r := NewRegistry()
	r.Counter("dcws_plain_total", "plain").Add(5)
	r.Counter("dcws_code_total", "per-code", Label{"code", "503"}).Inc()
	r.GaugeFunc("dcws_depth", "gauge", func() float64 { return 2.5 })
	r.Histogram("dcws_lat_seconds", "hist", Label{"kind", "home"}).Observe(time.Millisecond)
	r.Collector("dcws_peer_state", "dynamic", "gauge", func() []Sample {
		return []Sample{{Labels: []Label{{"peer", "a:1"}, {"zone", "east"}}, Value: 7}}
	})
	for _, tc := range []struct {
		name   string
		labels []Label
		want   float64
	}{
		{"dcws_plain_total", nil, 5},
		{"dcws_code_total", []Label{{"code", "503"}}, 1},
		{"dcws_depth", nil, 2.5},
		{"dcws_lat_seconds", []Label{{"kind", "home"}}, 1},
		// Label order does not matter.
		{"dcws_peer_state", []Label{{"zone", "east"}, {"peer", "a:1"}}, 7},
	} {
		if got, ok := r.Value(tc.name, tc.labels...); !ok || got != tc.want {
			t.Errorf("Value(%s%v) = %v, %v; want %v", tc.name, tc.labels, got, ok, tc.want)
		}
	}
	for _, miss := range []struct {
		name   string
		labels []Label
	}{
		{"dcws_absent_total", nil},
		{"dcws_code_total", []Label{{"code", "200"}}},
		{"dcws_peer_state", []Label{{"peer", "b:2"}}},
	} {
		if _, ok := r.Value(miss.name, miss.labels...); ok {
			t.Errorf("Value(%s%v) found a series that does not exist", miss.name, miss.labels)
		}
	}
}

func TestHistogramExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("dcws_latency_seconds", "request latency", Label{"kind", "home"})
	h.Observe(3 * time.Microsecond)   // bucket 1, le 4e-06
	h.Observe(100 * time.Microsecond) // bucket 6, le 1.28e-04
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE dcws_latency_seconds histogram\n",
		`dcws_latency_seconds_bucket{kind="home",le="4e-06"} 1` + "\n",
		`dcws_latency_seconds_bucket{kind="home",le="+Inf"} 2` + "\n",
		`dcws_latency_seconds_count{kind="home"} 2` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be monotone non-decreasing.
	last := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "dcws_latency_seconds_bucket") {
			continue
		}
		var v int64
		if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%d", &v); err != nil {
			t.Fatalf("bad bucket line %q", line)
		}
		if v < last {
			t.Fatalf("non-monotone buckets:\n%s", out)
		}
		last = v
	}
}

func TestCollector(t *testing.T) {
	r := NewRegistry()
	r.Collector("dcws_peer_state", "per-peer breaker state", "gauge", func() []Sample {
		return []Sample{
			{Labels: []Label{{"peer", "b:81"}}, Value: 2},
			{Labels: []Label{{"peer", "a:80"}}, Value: 0},
		}
	})
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	ai := strings.Index(out, `dcws_peer_state{peer="a:80"} 0`)
	bi := strings.Index(out, `dcws_peer_state{peer="b:81"} 2`)
	if ai < 0 || bi < 0 || ai > bi {
		t.Fatalf("collector samples missing or unsorted:\n%s", out)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("dcws_esc_total", "escape test", Label{"path", "a\"b\\c\nd"}).Inc()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `dcws_esc_total{path="a\"b\\c\nd"} 1`
	if !strings.Contains(buf.String(), want) {
		t.Fatalf("escaped label missing %q:\n%s", want, buf.String())
	}
}

func TestRegistryTypeConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dcws_conflict", "as counter")
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on type conflict")
		}
	}()
	r.GaugeFunc("dcws_conflict", "as gauge", func() float64 { return 0 })
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				r.Counter("dcws_conc_total", "concurrent").Inc()
				r.Histogram("dcws_conc_seconds", "concurrent").Observe(time.Microsecond)
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if got := r.Counter("dcws_conc_total", "concurrent").Value(); got != 800 {
		t.Fatalf("counter = %d", got)
	}
}

func TestTraceIDsUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewTraceID()
		if id == "" || seen[id] {
			t.Fatalf("duplicate or empty trace id %q", id)
		}
		seen[id] = true
	}
}

func TestRingWrapAndByTrace(t *testing.T) {
	r := NewRing(4)
	for i := 0; i < 6; i++ {
		r.Record(Span{TraceID: fmt.Sprintf("t%d", i%2), Op: fmt.Sprintf("op%d", i)})
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("len(snapshot) = %d", len(snap))
	}
	// Oldest retained span is op2 (op0, op1 overwritten).
	if snap[0].Op != "op2" || snap[3].Op != "op5" {
		t.Fatalf("snapshot order: %+v", snap)
	}
	if r.Total() != 6 {
		t.Fatalf("Total = %d", r.Total())
	}
	t0 := r.ByTrace("t0")
	if len(t0) != 2 || t0[0].Op != "op2" || t0[1].Op != "op4" {
		t.Fatalf("ByTrace = %+v", t0)
	}
}

func TestSeriesLimitCapsCollector(t *testing.T) {
	r := NewRegistry()
	r.Collector("dcws_peer_gauge", "per-peer view", "gauge", func() []Sample {
		out := make([]Sample, 0, 256)
		for i := 0; i < 256; i++ {
			out = append(out, Sample{
				Labels: []Label{{"peer", fmt.Sprintf("peer-%03d", i)}},
				Value:  float64(i),
			})
		}
		return out
	})
	r.SetSeriesLimit(10)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "dcws_peer_gauge{"); got != 10 {
		t.Fatalf("emitted %d series, want 10:\n%s", got, out)
	}
	// Truncation is deterministic: sorted label order keeps the first ten.
	if !strings.Contains(out, `dcws_peer_gauge{peer="peer-009"}`) ||
		strings.Contains(out, `dcws_peer_gauge{peer="peer-010"}`) {
		t.Fatalf("wrong series survived the cap:\n%s", out)
	}
	if !strings.Contains(out, `telemetry_series_dropped_total{family="dcws_peer_gauge"} 246`+"\n") {
		t.Fatalf("dropped meta-counter missing:\n%s", out)
	}

	// The counter is cumulative across scrapes.
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `telemetry_series_dropped_total{family="dcws_peer_gauge"} 492`+"\n") {
		t.Fatalf("dropped counter not cumulative:\n%s", buf.String())
	}
}

func TestSeriesLimitCapsStaticSeries(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 5; i++ {
		r.Counter("dcws_labeled_total", "static series", Label{"i", fmt.Sprintf("%d", i)}).Inc()
	}
	r.SetSeriesLimit(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if got := strings.Count(out, "dcws_labeled_total{"); got != 3 {
		t.Fatalf("emitted %d series, want 3:\n%s", got, out)
	}
	if !strings.Contains(out, `telemetry_series_dropped_total{family="dcws_labeled_total"} 2`+"\n") {
		t.Fatalf("dropped meta-counter missing:\n%s", out)
	}
	// Removing the cap restores every series; the cumulative count remains.
	r.SetSeriesLimit(0)
	buf.Reset()
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out = buf.String()
	if got := strings.Count(out, "dcws_labeled_total{"); got != 5 {
		t.Fatalf("emitted %d series after uncapping, want 5:\n%s", got, out)
	}
	if !strings.Contains(out, `telemetry_series_dropped_total{family="dcws_labeled_total"} 2`+"\n") {
		t.Fatalf("cumulative dropped count lost:\n%s", out)
	}
}

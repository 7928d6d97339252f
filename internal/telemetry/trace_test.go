package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestRingWraparoundIndex drives the ring through several full wraps and
// checks ByTrace against a straight scan of the snapshot: every trace must
// yield exactly its retained spans, oldest first, and traces fully
// overwritten must vanish from its answers.
func TestRingWraparoundIndex(t *testing.T) {
	r := NewRing(8)
	traces := []string{"t-a", "t-b", "t-c"}
	for i := 0; i < 20; i++ {
		sp := NewSpan(traces[i%len(traces)], "", "srv", "op")
		sp.Target = fmt.Sprintf("/doc/%d", i)
		r.Record(sp)
	}
	if got := r.Total(); got != 20 {
		t.Fatalf("Total = %d, want 20", got)
	}
	snap := r.Snapshot()
	if len(snap) != 8 {
		t.Fatalf("Snapshot retains %d spans, want 8", len(snap))
	}
	for _, tr := range traces {
		var want []string
		for _, sp := range snap {
			if sp.TraceID == tr {
				want = append(want, sp.Target)
			}
		}
		got := r.ByTrace(tr)
		if len(got) != len(want) {
			t.Fatalf("ByTrace(%q) = %d spans, want %d", tr, len(got), len(want))
		}
		for i, sp := range got {
			if sp.TraceID != tr || sp.Target != want[i] {
				t.Fatalf("ByTrace(%q)[%d] = {%s %s}, want target %s",
					tr, i, sp.TraceID, sp.Target, want[i])
			}
		}
	}
	// A trace whose spans were all overwritten must be gone.
	r2 := NewRing(4)
	r2.Record(NewSpan("gone", "", "srv", "op"))
	for i := 0; i < 4; i++ {
		r2.Record(NewSpan("keep", "", "srv", "op"))
	}
	if got := r2.ByTrace("gone"); got != nil {
		t.Fatalf("ByTrace of overwritten trace = %v, want nil", got)
	}
	if got := len(r2.ByTrace("keep")); got != 4 {
		t.Fatalf("ByTrace(keep) = %d spans, want 4", got)
	}
}

// TestRingPerTraceBound: one trace recording far more spans than
// MaxTraceSpans yields only its newest MaxTraceSpans spans from ByTrace —
// a retry storm reusing one ID cannot flood a trace lookup.
func TestRingPerTraceBound(t *testing.T) {
	r := NewRing(MaxTraceSpans * 4)
	n := MaxTraceSpans + 50
	for i := 0; i < n; i++ {
		sp := NewSpan("storm", "", "srv", "op")
		sp.Target = fmt.Sprintf("/doc/%d", i)
		r.Record(sp)
	}
	got := r.ByTrace("storm")
	if len(got) != MaxTraceSpans {
		t.Fatalf("ByTrace = %d spans, want the MaxTraceSpans bound %d", len(got), MaxTraceSpans)
	}
	// The retained window is the newest MaxTraceSpans spans, oldest first.
	for i, sp := range got {
		want := fmt.Sprintf("/doc/%d", n-MaxTraceSpans+i)
		if sp.Target != want {
			t.Fatalf("ByTrace[%d].Target = %s, want %s", i, sp.Target, want)
		}
	}
}

// TestRingConcurrentSoak hammers one small ring from writer and reader
// goroutines so it wraps constantly while snapshots and by-trace scans
// run; under -race this doubles as the data-race soak for Record against
// ByTrace.
func TestRingConcurrentSoak(t *testing.T) {
	r := NewRing(16)
	traces := []string{"t-0", "t-1", "t-2", "t-3"}
	const writers, readers, perWriter = 4, 4, 500
	var wg sync.WaitGroup
	done := make(chan struct{})
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				sp := NewSpan(traces[(id+j)%len(traces)], "", "srv", "op")
				sp.Duration = time.Duration(j)
				r.Record(sp)
			}
		}(i)
	}
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if snap := r.Snapshot(); len(snap) > 16 {
					t.Errorf("snapshot exceeds capacity: %d", len(snap))
					return
				}
				for _, tr := range traces {
					for _, sp := range r.ByTrace(tr) {
						if sp.TraceID != tr {
							t.Errorf("ByTrace(%q) returned span of trace %q", tr, sp.TraceID)
							return
						}
					}
				}
			}
		}(i)
	}
	// Readers run until every writer's span is recorded, so lookups overlap
	// wraparound the whole time.
	for r.Total() < writers*perWriter {
		time.Sleep(time.Millisecond)
	}
	close(done)
	wg.Wait()

	if got := r.Total(); got != writers*perWriter {
		t.Fatalf("Total = %d, want %d", got, writers*perWriter)
	}
	if snap := r.Snapshot(); len(snap) != 16 {
		t.Fatalf("retained %d spans, want full capacity 16", len(snap))
	}
}

// TestFormatIDMatchesSprintf pins the hand-built IDs to the fmt renderings
// they replaced — dcwsctl trace and access-log joins compare them as
// strings — across the six-digit padding boundary and beyond it.
func TestFormatIDMatchesSprintf(t *testing.T) {
	for _, seq := range []uint64{0, 1, 0xfffff, 0x100000, 0x1000000, 1 << 40, 1<<64 - 1} {
		if got, want := formatID(tracePrefix, '-', seq), fmt.Sprintf("%s-%06x", tracePrefix, seq); got != want {
			t.Errorf("trace ID for %#x = %q, want %q", seq, got, want)
		}
		if got, want := formatID(tracePrefix, '.', seq), fmt.Sprintf("%s.%06x", tracePrefix, seq); got != want {
			t.Errorf("span ID for %#x = %q, want %q", seq, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = NewSpanID() }); n > 1 {
		t.Errorf("NewSpanID allocates %v times, want only the result string", n)
	}
}

// TestRingRecordAllocatesNothing: recording a span writes one slot of the
// ring and allocates nothing, full ring or not.
func TestRingRecordAllocatesNothing(t *testing.T) {
	r := NewRing(64)
	sp := NewSpan("t-alloc", "", "srv", "serve-home")
	if n := testing.AllocsPerRun(1000, func() { r.Record(sp) }); n != 0 {
		t.Errorf("Record allocates %v times per span", n)
	}
}

func BenchmarkRingRecord(b *testing.B) {
	r := NewRing(DefaultRingSize)
	spans := make([]Span, 64)
	for i := range spans {
		spans[i] = NewSpan(NewTraceID(), "", "srv", "serve-home")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(spans[i%len(spans)])
	}
}

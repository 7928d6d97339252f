package telemetry

import (
	crand "crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// TraceHeader is the DCWS extension header carrying a request's trace ID
// between cooperating servers. Like X-DCWS-Load it rides on ordinary HTTP
// messages (§3.3 piggybacking); servers that do not understand it ignore
// it, and clients may supply their own ID to correlate with external
// systems.
const TraceHeader = "X-DCWS-Trace"

// ParentHeader carries the caller's span ID on inter-server RPCs, so the
// remote server records its span as a child and a cross-node trace
// assembles into one tree.
const ParentHeader = "X-DCWS-Parent"

// tracePrefix is a per-process random component so trace IDs minted by
// different servers never collide; traceSeq disambiguates within the
// process without a syscall per request.
var (
	tracePrefix = func() string {
		var b [6]byte
		if _, err := crand.Read(b[:]); err != nil {
			// Degraded mode: IDs stay unique within the process.
			return "00dcws000000"
		}
		return hex.EncodeToString(b[:])
	}()
	traceSeq atomic.Uint64
	spanSeq  atomic.Uint64
)

// NewTraceID mints a process-unique trace identifier: a random per-process
// prefix plus a sequence number.
func NewTraceID() string {
	return formatID(tracePrefix, '-', traceSeq.Add(1))
}

// NewSpanID mints a span identifier unique across the cluster: the same
// per-process random prefix keeps IDs from different servers of one trace
// distinct when the spans are stitched together.
func NewSpanID() string {
	return formatID(tracePrefix, '.', spanSeq.Add(1))
}

// formatID renders prefix, sep and seq exactly as fmt's "%s<sep>%06x" would
// — lower-case hex, zero-padded to six digits, wider when seq needs it —
// in a stack buffer: two IDs are minted per request, and the string result
// is then the only allocation.
func formatID(prefix string, sep byte, seq uint64) string {
	var b [32]byte // 12-char prefix + separator + up to 16 hex digits
	var d [16]byte
	digits := strconv.AppendUint(d[:0], seq, 16)
	buf := append(b[:0], prefix...)
	buf = append(buf, sep)
	for i := len(digits); i < 6; i++ {
		buf = append(buf, '0')
	}
	return string(append(buf, digits...))
}

// Span is one hop of a request's path through the cluster: a server either
// serving a request (server-side span) or issuing an inter-server RPC
// (client-side span). Spans sharing a TraceID describe one logical client
// request followed hop by hop; ParentID links them into a tree.
type Span struct {
	// TraceID groups the spans of one logical request.
	TraceID string `json:"trace_id"`
	// ID identifies this span within its trace (cluster-unique).
	ID string `json:"id,omitempty"`
	// ParentID is the ID of the span that caused this one: the serve span
	// for RPCs it issued, the calling RPC span for the remote serve span.
	// Empty for roots.
	ParentID string `json:"parent_id,omitempty"`
	// Server is the address of the server that recorded the span.
	Server string `json:"server"`
	// Op names the operation: serve-home, serve-coop, serve-fetch,
	// fetch-home, validate, revoke-chain, probe, ...
	Op string `json:"op"`
	// Target is the document path or control endpoint involved.
	Target string `json:"target,omitempty"`
	// Peer is the remote server for client-side RPC spans.
	Peer string `json:"peer,omitempty"`
	// Status is the HTTP status observed (0 when the RPC never completed).
	Status int `json:"status,omitempty"`
	// Err is the failure, for spans that ended in one.
	Err string `json:"err,omitempty"`
	// Attempts counts RPC tries including the first (client-side spans
	// under retry); 0 means not applicable.
	Attempts int `json:"attempts,omitempty"`
	// Start is the span's start on the recording server's clock.
	Start time.Time `json:"start"`
	// Duration is the span's measured wall-clock duration.
	Duration time.Duration `json:"duration_ns"`
}

// NewSpan starts a span: mints an ID and stamps the parent. The caller
// fills in outcome fields (Status, Err, Duration, ...) before recording.
func NewSpan(traceID, parentID, server, op string) Span {
	return Span{TraceID: traceID, ID: NewSpanID(), ParentID: parentID, Server: server, Op: op}
}

// Child starts a child span of s on the same server, for a sub-operation
// the recording server performs itself (e.g. a recovery phase).
func (s Span) Child(op string) Span {
	return Span{TraceID: s.TraceID, ID: NewSpanID(), ParentID: s.ID, Server: s.Server, Op: op}
}

// MaxTraceSpans bounds how many spans of a single trace the ring indexes:
// a pathological trace (e.g. a retry storm reusing one ID) cannot grow its
// index entry without bound. Older spans of the trace stay in the ring
// buffer but drop out of the by-trace index.
const MaxTraceSpans = 128

// Ring is a bounded, concurrency-safe buffer of recent spans. When full,
// new spans overwrite the oldest — memory stays constant no matter how
// long the server runs. A trace-ID index is maintained on every record and
// overwrite, so ByTrace is O(spans of that trace), not O(capacity).
type Ring struct {
	mu    sync.Mutex
	buf   []Span
	next  int
	full  bool
	total int64
	index map[string][]int
}

// DefaultRingSize is the span capacity used when none is configured.
const DefaultRingSize = 512

// NewRing returns a ring holding up to capacity spans (DefaultRingSize
// when capacity <= 0).
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Ring{buf: make([]Span, capacity), index: make(map[string][]int)}
}

// Record appends one span, overwriting the oldest when full.
func (r *Ring) Record(s Span) {
	r.mu.Lock()
	slot := r.next
	if r.full {
		r.unindex(r.buf[slot].TraceID, slot)
	}
	r.buf[slot] = s
	if s.TraceID != "" {
		slots := r.index[s.TraceID]
		if len(slots) >= MaxTraceSpans {
			// Bound the per-trace index: forget the trace's oldest span.
			copy(slots, slots[1:])
			slots = slots[:len(slots)-1]
		}
		r.index[s.TraceID] = append(slots, slot)
	}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// unindex removes one slot from a trace's index entry, preserving order.
// The slot may already be absent when the per-trace bound evicted it.
func (r *Ring) unindex(trace string, slot int) {
	if trace == "" {
		return
	}
	slots := r.index[trace]
	for i, sl := range slots {
		if sl == slot {
			copy(slots[i:], slots[i+1:])
			slots = slots[:len(slots)-1]
			break
		}
	}
	if len(slots) == 0 {
		delete(r.index, trace)
	} else {
		r.index[trace] = slots
	}
}

// Snapshot returns the retained spans, oldest first.
func (r *Ring) Snapshot() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		out := make([]Span, r.next)
		copy(out, r.buf[:r.next])
		return out
	}
	out := make([]Span, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// ByTrace returns the retained spans of one trace, oldest first, via the
// index — O(spans of the trace) under the lock.
func (r *Ring) ByTrace(id string) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	slots := r.index[id]
	if len(slots) == 0 {
		return nil
	}
	out := make([]Span, len(slots))
	for i, sl := range slots {
		out[i] = r.buf[sl]
	}
	return out
}

// Total reports how many spans were ever recorded, including overwritten
// ones.
func (r *Ring) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

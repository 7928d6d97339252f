package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share its request id; parent is the id of the span that caused this one,
// 0 for a root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder was made
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. The benchmark records
// them from its own files, around its calls into each layer; nothing inside
// the servers is instrumented.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

// requestID names the request of schedule slot g. Replay spans of the same
// operation use the same id, so the client's view and the layers' view of
// one request line up.
func (r *recorder) requestID(slot int) int { return slot + 1 }

// add records one span and returns its id.
func (r *recorder) add(request, parent int, name string, start, end time.Time) int {
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Parent: parent, Request: request, Name: name,
		StartNs: int64(start.Sub(r.epoch)), EndNs: int64(end.Sub(r.epoch)),
	})
	r.mu.Unlock()
	return id
}

// setEnd moves the end of span id, for a span opened before its children.
func (r *recorder) setEnd(id int, end time.Time) {
	r.mu.Lock()
	r.spans[id-1].EndNs = int64(end.Sub(r.epoch))
	r.mu.Unlock()
}

// layerStat is one layer's total over a run of spans.
type layerStat struct {
	name  string
	count int
	busy  time.Duration // self time: duration minus what child spans cover
}

// selfTimes sums, per span name, each span's duration minus the part its
// direct children cover.
func (r *recorder) selfTimes() []layerStat {
	r.mu.Lock()
	defer r.mu.Unlock()
	covered := make(map[int]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent != 0 {
			covered[s.Parent] += s.EndNs - s.StartNs
		}
	}
	byName := map[string]*layerStat{}
	for _, s := range r.spans {
		st := byName[s.Name]
		if st == nil {
			st = &layerStat{name: s.Name}
			byName[s.Name] = st
		}
		st.count++
		if self := s.EndNs - s.StartNs - covered[s.ID]; self > 0 {
			st.busy += time.Duration(self)
		}
	}
	out := make([]layerStat, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeJSON writes every span to path, creating its directory.
func (r *recorder) writeJSON(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	r.mu.Lock()
	err = json.NewEncoder(f).Encode(map[string]any{"meta": meta, "spans": r.spans})
	r.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// budgetRow is one row of the per-layer table: what a layer costs per
// served request, and its share of the server-side request time.
type budgetRow struct {
	layer    string
	count    int     // operations of this layer in the replayed stream
	usPerReq float64 // busy microseconds per served request
}

// printBudget prints the per-layer table. requestUs is httpx.request_us,
// the server's own parse-to-written time per request; the rows are the
// replayed cost of each layer spread over the same number of requests, and
// the residual row is what the replay does not account for (scheduling,
// socket writes that block, lock waits), so rows plus residual equal
// requestUs by construction and the residual's size is the finding.
func printBudget(w io.Writer, rows []budgetRow, requestUs float64) {
	fmt.Fprintf(w, "  %-26s %10s %14s %8s\n", "layer", "count", "busy µs/req", "share")
	var sum float64
	for _, r := range rows {
		fmt.Fprintf(w, "  %-26s %10d %14.3f %7.1f%%\n", r.layer, r.count, r.usPerReq, share(r.usPerReq, requestUs))
		sum += r.usPerReq
	}
	fmt.Fprintf(w, "  %-26s %10s %14.3f %7.1f%%\n", "residual", "", requestUs-sum, share(requestUs-sum, requestUs))
	fmt.Fprintf(w, "  %-26s %10s %14.3f %7.1f%%\n", "httpx.request_us", "", requestUs, 100.0)
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * part / whole
}

package webclient

import (
	"fmt"
	"io"
	"time"

	"dcws/internal/dataset"
)

// SynthesizeLog produces a Common Log Format access log by dry-running the
// Algorithm 2 walker over a data set specification (DryWalk). Together
// with Replayer it closes the loop the paper's future work asks for ("we
// have not used actual access logs for the experiments"): generate a log
// offline, replay it against a live group.
//
// requests bounds the number of emitted entries; timestamps advance by
// gap between consecutive requests starting at start.
func SynthesizeLog(site *dataset.Site, requests int, seed int64, start time.Time, gap time.Duration) []LogEntry {
	if requests <= 0 || site == nil || len(site.EntryPoints) == 0 {
		return nil
	}
	var out []LogEntry
	DryWalk(site, seed, func(_ int, r Request) bool {
		out = append(out, LogEntry{Path: r.Ref.Name, At: start.Add(time.Duration(len(out)) * gap)})
		return len(out) < requests
	})
	return out
}

// DryWalk drives a Walker over a site specification, with no servers and
// no clock: each request is answered at once from the specification (a
// document it lacks is a 404). sent sees every request with the number of
// its sequence, from 0; the walk stops when sent returns false.
func DryWalk(site *dataset.Site, seed int64, sent func(sequence int, r Request) bool) {
	pages := make(map[string]page, len(site.Docs))
	for _, d := range site.Docs {
		var p page
		for _, l := range d.Links {
			if l.Image {
				p.images = append(p.images, Ref{Name: l.URL})
			} else {
				p.links = append(p.links, Ref{Name: l.URL})
			}
		}
		pages[d.Name] = p
	}
	entries := make([]Ref, len(site.EntryPoints))
	for i, ep := range site.EntryPoints {
		entries[i] = Ref{Name: ep}
	}
	// With no think time and every request answered before the next move,
	// the walk never pauses or waits.
	w := NewWalker(seed, Entries{Sites: [][]Ref{entries}})
	for seq := 0; ; {
		r, step := w.Next()
		if step == End {
			seq++
			continue
		}
		if !sent(seq, r) {
			return
		}
		p, ok := pages[r.Ref.Name]
		status := 200
		if !ok {
			status = 404
		}
		w.OnReply(r, status, Ref{}, p.links, p.images)
	}
}

// WriteCommonLog writes entries in Common Log Format, the inverse of
// ParseCommonLog.
func WriteCommonLog(w io.Writer, entries []LogEntry, host string) error {
	if host == "" {
		host = "10.0.0.1"
	}
	for _, e := range entries {
		at := e.At
		if at.IsZero() {
			at = time.Unix(0, 0).UTC()
		}
		_, err := fmt.Fprintf(w, "%s - - [%s] \"GET %s HTTP/1.0\" 200 -\n",
			host, at.Format(commonLogTime), e.Path)
		if err != nil {
			return err
		}
	}
	return nil
}

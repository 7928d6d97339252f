package webclient

import (
	"bufio"
	"io"
	"strings"
	"time"

	"dcws/internal/clock"
	"dcws/internal/httpx"
)

// The paper's §6 notes that the evaluation did not use "actual access logs
// for the experiments" and leaves that as future work. Replayer implements
// it: it parses web server access logs in Common Log Format and replays the
// requests against a DCWS server group, following the 301 redirects that
// migration produces, optionally honoring the logged inter-request timing.

// LogEntry is one parsed access-log record.
type LogEntry struct {
	// Path is the requested document path.
	Path string
	// At is the request timestamp (zero if unparseable).
	At time.Time
}

// ParseCommonLog reads Common Log Format lines:
//
//	host ident user [02/Jan/2006:15:04:05 -0700] "GET /path HTTP/1.0" status bytes
//
// Lines that do not parse are skipped; err is only returned for read
// failures.
func ParseCommonLog(r io.Reader) ([]LogEntry, error) {
	var out []LogEntry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	for sc.Scan() {
		if e, ok := parseCommonLogLine(sc.Text()); ok {
			out = append(out, e)
		}
	}
	return out, sc.Err()
}

const commonLogTime = "02/Jan/2006:15:04:05 -0700"

func parseCommonLogLine(line string) (LogEntry, bool) {
	// Timestamp between '[' and ']'.
	var at time.Time
	if lb := strings.IndexByte(line, '['); lb >= 0 {
		if rb := strings.IndexByte(line[lb:], ']'); rb > 0 {
			if t, err := time.Parse(commonLogTime, line[lb+1:lb+rb]); err == nil {
				at = t
			}
		}
	}
	// Request between the first pair of double quotes.
	lq := strings.IndexByte(line, '"')
	if lq < 0 {
		return LogEntry{}, false
	}
	rq := strings.IndexByte(line[lq+1:], '"')
	if rq < 0 {
		return LogEntry{}, false
	}
	req := line[lq+1 : lq+1+rq]
	parts := strings.Fields(req)
	if len(parts) < 2 || parts[0] != "GET" && parts[0] != "HEAD" {
		return LogEntry{}, false
	}
	path := parts[1]
	if !strings.HasPrefix(path, "/") {
		return LogEntry{}, false
	}
	if i := strings.IndexAny(path, "?#"); i >= 0 {
		path = path[:i]
	}
	return LogEntry{Path: path, At: at}, true
}

// ReplayConfig configures a log replay.
type ReplayConfig struct {
	// Dialer connects to the servers.
	Dialer httpx.Dialer
	// BaseURL is the server the logged paths are requested from, e.g.
	// "http://home:80". Redirects to co-op servers are followed.
	BaseURL string
	// Clock paces timed replay and 503 backoff.
	Clock clock.Clock
	// Timed replays with the logged inter-request gaps (compressed by the
	// clock); false replays as fast as responses return.
	Timed bool
	// Stats receives measurements; required for shared accounting, else an
	// internal one is used.
	Stats *Stats
}

// Replayer replays access-log entries against a live server group.
type Replayer struct {
	cfg    ReplayConfig
	client *Client
	addr   string // BaseURL's server
}

// NewReplayer validates the configuration and builds a replayer.
func NewReplayer(cfg ReplayConfig) (*Replayer, error) {
	c, err := New(Config{Dialer: cfg.Dialer, Clock: cfg.Clock, EntryURLs: []string{cfg.BaseURL}, Stats: cfg.Stats})
	if err != nil {
		return nil, err
	}
	return &Replayer{cfg: cfg, client: c, addr: c.walk.Entries.Sites[0][0].Addr}, nil
}

// Replay issues every entry in order and reports how many succeeded. Each
// entry is a Fetch: a log line means a request actually reached the
// server, so no client cache applies.
func (r *Replayer) Replay(entries []LogEntry, stop <-chan struct{}) (succeeded int) {
	var prev time.Time
	for _, e := range entries {
		select {
		case <-stop:
			return succeeded
		default:
		}
		if r.cfg.Timed && !prev.IsZero() && !e.At.IsZero() && e.At.After(prev) {
			r.client.cfg.Clock.Sleep(e.At.Sub(prev))
		}
		if !e.At.IsZero() {
			prev = e.At
		}
		if _, _, ok := r.client.Fetch("http://" + r.addr + e.Path); ok {
			succeeded++
		}
	}
	return succeeded
}

// Stats returns the replay measurements.
func (r *Replayer) Stats() *Stats { return r.client.cfg.Stats }

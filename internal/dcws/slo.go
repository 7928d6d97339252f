package dcws

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"time"

	"dcws/internal/httpx"
	"dcws/internal/metrics"
	"dcws/internal/telemetry"
)

// The objectives the SLO watcher alerts on.
const (
	// sloLatencyTarget is the per-request latency objective: a request
	// answered within it is "good" for burn-rate accounting.
	sloLatencyTarget = 250 * time.Millisecond
	// sloLatencyObjective is the fraction of requests that must meet the
	// target; 1 - objective is the error budget.
	sloLatencyObjective = 0.999
	// sloMaxShedRate is the tolerated fraction of connections dropped by
	// the overload gate.
	sloMaxShedRate = 0.01
	// sloBurnThreshold is the multiple of the sustainable burn rate both
	// windows must reach before the watcher alerts.
	sloBurnThreshold = 4.0
)

// SLO watcher: multi-window burn-rate alerting with automatic profile
// capture. Every SLOCheckInterval the watcher snapshots the per-role serve
// histograms and the shed/queued counters, derives short- and long-window
// deltas, and computes how fast each window is consuming its error budget:
//
//	burn = (violations / total) / (1 - objective)
//
// where a violation is a request slower than sloLatencyTarget (for the
// latency SLO) or a shed connection (against the sloMaxShedRate budget). A
// burn of 1 spends the budget exactly at the sustainable pace; the watcher
// alerts only when BOTH windows burn at sloBurnThreshold or faster — the
// short window proves the problem is live, the long window proves it is
// sustained rather than a blip. On alert it captures a pprof CPU+heap pair
// into Config.ProfileDir (a ring bounded at ProfileRingSize captures), so
// the evidence of WHY the tail went bad is on disk before the incident
// ends.
type sloWatcher struct {
	s *Server

	checks   *telemetry.Counter
	alerts   *telemetry.Counter
	profiles *telemetry.Counter

	mu          sync.Mutex
	samples     []sloSample
	ops         map[string]*sloOpState
	shed        [2]float64 // shed rate by window (short, long)
	burn        [2]float64 // shed burn rate by window
	alerting    bool
	capturing   bool
	lastCapture time.Time
}

// sloSample is one cumulative observation of everything the burn-rate math
// differentiates: per-op histogram snapshots plus the shed/queued counters.
type sloSample struct {
	at     time.Time
	hists  map[string]metrics.HistogramSnapshot
	shed   int64
	queued int64
}

// sloOpState is the most recent evaluation for one serve role.
type sloOpState struct {
	p50, p99  float64 // short-window latency quantiles, seconds
	burnShort float64
	burnLong  float64
}

const (
	windowShort = 0
	windowLong  = 1
)

var sloWindows = [2]string{"short", "long"}

func newSLOWatcher(s *Server) *sloWatcher {
	w := &sloWatcher{s: s, ops: make(map[string]*sloOpState)}
	reg := s.tel.reg
	w.checks = reg.Counter("dcws_slo_checks_total",
		"SLO burn-rate evaluations run by the watcher")
	w.alerts = reg.Counter("dcws_slo_alerts_total",
		"checks where some burn rate breached the threshold in both windows")
	w.profiles = reg.Counter("dcws_slo_profiles_total",
		"pprof CPU+heap capture rounds triggered by sustained burn")

	opSamples := func(value func(*sloOpState) float64) func() []telemetry.Sample {
		return func() []telemetry.Sample {
			w.mu.Lock()
			defer w.mu.Unlock()
			out := make([]telemetry.Sample, 0, len(w.ops))
			for _, op := range sortedOps(w.ops) {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{{Key: "op", Value: op}},
					Value:  value(w.ops[op]),
				})
			}
			return out
		}
	}
	reg.Collector("dcws_slo_latency_p50_seconds",
		"short-window serve latency median, by role", "gauge",
		opSamples(func(st *sloOpState) float64 { return st.p50 }))
	reg.Collector("dcws_slo_latency_p99_seconds",
		"short-window serve latency 99th percentile, by role", "gauge",
		opSamples(func(st *sloOpState) float64 { return st.p99 }))
	reg.Collector("dcws_slo_burn_rate",
		"latency error-budget burn rate, by role and window", "gauge",
		func() []telemetry.Sample {
			w.mu.Lock()
			defer w.mu.Unlock()
			out := make([]telemetry.Sample, 0, 2*len(w.ops))
			for _, op := range sortedOps(w.ops) {
				st := w.ops[op]
				for wi, burn := range [2]float64{st.burnShort, st.burnLong} {
					out = append(out, telemetry.Sample{
						Labels: []telemetry.Label{
							{Key: "op", Value: op},
							{Key: "window", Value: sloWindows[wi]},
						},
						Value: burn,
					})
				}
			}
			return out
		})
	windowed := func(vals *[2]float64) func() []telemetry.Sample {
		return func() []telemetry.Sample {
			w.mu.Lock()
			defer w.mu.Unlock()
			out := make([]telemetry.Sample, 0, 2)
			for wi, name := range sloWindows {
				out = append(out, telemetry.Sample{
					Labels: []telemetry.Label{{Key: "window", Value: name}},
					Value:  vals[wi],
				})
			}
			return out
		}
	}
	reg.Collector("dcws_slo_shed_rate",
		"fraction of connections shed at the socket queue, by window", "gauge",
		windowed(&w.shed))
	reg.Collector("dcws_slo_shed_burn_rate",
		"shed-budget burn rate against the 1% shed objective, by window", "gauge",
		windowed(&w.burn))
	reg.GaugeFunc("dcws_slo_alerting",
		"1 while some burn rate exceeds the threshold in both windows",
		func() float64 {
			w.mu.Lock()
			defer w.mu.Unlock()
			if w.alerting {
				return 1
			}
			return 0
		})
	return w
}

func sortedOps(m map[string]*sloOpState) []string {
	out := make([]string, 0, len(m))
	for op := range m {
		out = append(out, op)
	}
	sort.Strings(out)
	return out
}

// TickSLO runs one SLO burn-rate evaluation: the watcher's loop calls it
// every SLOCheckInterval, deterministic harnesses and tests directly.
func (s *Server) TickSLO() { s.slo.check(s.now()) }

// check takes one cumulative sample, evaluates both windows, and triggers
// a profile capture on a sustained alert.
func (w *sloWatcher) check(now time.Time) {
	p := w.s.params
	cur := sloSample{
		at: now,
		hists: map[string]metrics.HistogramSnapshot{
			"home":  w.s.tel.serveHome.Snapshot(),
			"coop":  w.s.tel.serveCoop.Snapshot(),
			"fetch": w.s.tel.serveFetch.Snapshot(),
		},
		shed:   w.s.tel.shed.Value(),
		queued: w.s.tel.queued.Value(),
	}
	w.checks.Inc()

	w.mu.Lock()
	w.samples = append(w.samples, cur)
	// Keep exactly one sample at or past the long-window horizon — it is
	// the long baseline — and drop everything older.
	cutoff := now.Add(-p.SLOWindowLong)
	drop := 0
	for drop < len(w.samples)-1 && !w.samples[drop+1].at.After(cutoff) {
		drop++
	}
	w.samples = w.samples[drop:]
	baseLong := w.samples[0]
	baseShort := w.baselineLocked(now.Add(-p.SLOWindowShort))

	alert := false
	for op, curH := range cur.hists {
		st := w.ops[op]
		if st == nil {
			st = &sloOpState{}
			w.ops[op] = st
		}
		ds := curH.Sub(baseShort.hists[op])
		dl := curH.Sub(baseLong.hists[op])
		st.p50 = quantileSeconds(ds, 0.50)
		st.p99 = quantileSeconds(ds, 0.99)
		st.burnShort = latencyBurn(ds)
		st.burnLong = latencyBurn(dl)
		alert = alert || (st.burnShort >= sloBurnThreshold && st.burnLong >= sloBurnThreshold)
	}
	w.shed[windowShort], w.burn[windowShort] = shedBurn(cur, baseShort)
	w.shed[windowLong], w.burn[windowLong] = shedBurn(cur, baseLong)
	shedAlert := w.burn[windowShort] >= sloBurnThreshold && w.burn[windowLong] >= sloBurnThreshold
	alert = alert || shedAlert
	w.alerting = alert

	capture := false
	if alert {
		w.alerts.Inc()
		// One capture per short window at most: profiles are for the
		// incident's onset, not a per-tick stream of identical dumps.
		if w.s.cfg.ProfileDir != "" && !w.capturing &&
			(w.lastCapture.IsZero() || now.Sub(w.lastCapture) >= p.SLOWindowShort) {
			w.capturing = true
			w.lastCapture = now
			capture = true
		}
	}
	w.mu.Unlock()

	if capture {
		w.s.wg.Add(1)
		go w.capture()
	}
}

// baselineLocked returns the newest sample at or before the cutoff, or the
// oldest retained sample when the history is still shorter than the window.
func (w *sloWatcher) baselineLocked(cutoff time.Time) sloSample {
	base := w.samples[0]
	for _, s := range w.samples {
		if s.at.After(cutoff) {
			break
		}
		base = s
	}
	return base
}

// latencyBurn computes the error-budget burn rate of one window delta: the
// violating fraction divided by the budget fraction (1 - objective). Empty
// windows burn nothing.
func latencyBurn(d metrics.HistogramSnapshot) float64 {
	if d.Count <= 0 {
		return 0
	}
	viol := float64(d.CountAbove(sloLatencyTarget)) / float64(d.Count)
	return viol / (1 - sloLatencyObjective)
}

// shedBurn computes the shed rate and its burn against the shed budget for
// the window between two samples.
func shedBurn(cur, base sloSample) (rate, burn float64) {
	shed := cur.shed - base.shed
	total := shed + (cur.queued - base.queued)
	if shed <= 0 || total <= 0 {
		return 0, 0
	}
	rate = float64(shed) / float64(total)
	return rate, rate / sloMaxShedRate
}

func quantileSeconds(d metrics.HistogramSnapshot, q float64) float64 {
	if d.Count <= 0 {
		return 0
	}
	return d.Quantile(q).Seconds()
}

// capture writes one pprof CPU+heap pair into the profile ring. It runs on
// its own goroutine (the CPU profile takes SLOProfileSeconds of wall time)
// and is serialized by the capturing flag.
func (w *sloWatcher) capture() {
	defer w.s.wg.Done()
	defer func() {
		w.mu.Lock()
		w.capturing = false
		w.mu.Unlock()
	}()
	dir := w.s.cfg.ProfileDir
	if err := os.MkdirAll(dir, 0o755); err != nil {
		w.s.log.Printf("dcws %s: slo profile dir: %v", w.s.Addr(), err)
		return
	}
	stamp := time.Now().UTC().Format("20060102T150405.000000000")
	cpuPath := filepath.Join(dir, "burn-"+stamp+"-cpu.pprof")
	f, err := os.Create(cpuPath)
	if err != nil {
		w.s.log.Printf("dcws %s: slo cpu profile: %v", w.s.Addr(), err)
		return
	}
	// StartCPUProfile fails when another profile is running in this
	// process (multiple servers share one runtime); the heap profile is
	// still captured so the alert leaves some evidence.
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(cpuPath)
		w.s.log.Printf("dcws %s: slo cpu profile: %v", w.s.Addr(), err)
	} else {
		select {
		case <-time.After(w.s.params.SLOProfileSeconds):
		case <-w.s.stopped:
		}
		pprof.StopCPUProfile()
		f.Close()
	}
	heapPath := filepath.Join(dir, "burn-"+stamp+"-heap.pprof")
	hf, err := os.Create(heapPath)
	if err != nil {
		w.s.log.Printf("dcws %s: slo heap profile: %v", w.s.Addr(), err)
	} else {
		if prof := pprof.Lookup("heap"); prof != nil {
			if err := prof.WriteTo(hf, 0); err != nil {
				w.s.log.Printf("dcws %s: slo heap profile: %v", w.s.Addr(), err)
			}
		}
		hf.Close()
	}
	w.profiles.Inc()
	w.pruneProfiles(dir)
	w.s.log.Printf("dcws %s: slo burn alert: captured %s", w.s.Addr(), cpuPath)
}

// pruneProfiles bounds the on-disk ring at ProfileRingSize capture rounds
// (two files per round). Timestamped names sort chronologically, so the
// oldest files are the front of the sorted listing.
func (w *sloWatcher) pruneProfiles(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasPrefix(e.Name(), "burn-") && strings.HasSuffix(e.Name(), ".pprof") {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	keep := 2 * w.s.params.ProfileRingSize
	for len(names) > keep {
		os.Remove(filepath.Join(dir, names[0]))
		names = names[1:]
	}
}

// handleProfiles serves the profile ring: a JSON listing at
// /~dcws/profiles, raw pprof bytes at /~dcws/profiles/<name>.
func (s *Server) handleProfiles(req *httpx.Request) *httpx.Response {
	dir := s.cfg.ProfileDir
	if req.Path == profilesPath || req.Path == profilesPath+"/" {
		type entry struct {
			Name     string    `json:"name"`
			Size     int64     `json:"size"`
			Modified time.Time `json:"modified"`
		}
		out := []entry{}
		if dir != "" {
			if des, err := os.ReadDir(dir); err == nil {
				for _, de := range des {
					if de.IsDir() || !strings.HasSuffix(de.Name(), ".pprof") {
						continue
					}
					info, err := de.Info()
					if err != nil {
						continue
					}
					out = append(out, entry{de.Name(), info.Size(), info.ModTime().UTC()})
				}
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return status(500, err.Error())
		}
		resp := httpx.NewResponse(200)
		resp.Header.Set("Content-Type", "application/json")
		resp.Body = append(data, '\n')
		return resp
	}
	name := strings.TrimPrefix(req.Path, profilesPath+"/")
	if dir == "" || name == "" || strings.ContainsAny(name, "/\\") || strings.Contains(name, "..") {
		return status(404, "no such profile")
	}
	data, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		return status(404, "no such profile")
	}
	resp := httpx.NewResponse(200)
	resp.Header.Set("Content-Type", "application/octet-stream")
	resp.Body = data
	return resp
}

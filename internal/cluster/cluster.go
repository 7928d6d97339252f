// Package cluster boots a complete DCWS server group — home servers with
// materialized data sets plus empty co-op servers — inside one process over
// an in-memory network (or real TCP), and drives Algorithm 2 benchmark
// clients against it. It is the live counterpart of the discrete-event
// simulator: every byte crosses the real HTTP stack.
package cluster

import (
	"fmt"
	"log"
	"sync"
	"time"

	"dcws/internal/clock"
	"dcws/internal/dataset"
	"dcws/internal/dcws"
	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/naming"
	"dcws/internal/store"
	"dcws/internal/webclient"
)

// ServerSpec describes one server to boot.
type ServerSpec struct {
	// Host and Port form the server's address on the fabric.
	Host string
	Port int
	// Site, when non-nil, is materialized into the server's store, making
	// it a home server; nil boots an empty co-op server.
	Site *dataset.Site
	// Scale multiplies document sizes at materialization (use < 1 for the
	// 247 MB Sequoia set).
	Scale float64
	// Params tunes the server; zero fields take Table 1 defaults.
	Params dcws.Params
	// WALDir, when non-empty, enables the server's durable tier (WAL +
	// snapshots in that directory), letting harnesses crash and restart
	// the node with its migration state intact.
	WALDir string
}

// Config describes a cluster.
type Config struct {
	// Servers lists every node. At least one must carry a Site.
	Servers []ServerSpec
	// Clock drives all timers (default: real time).
	Clock clock.Clock
	// Network carries all traffic (default: a fresh in-memory fabric).
	Network memnet.Network
	// Logger receives server logs; nil discards them.
	Logger *log.Logger
}

// Cluster is a running server group.
type Cluster struct {
	Servers []*dcws.Server
	network memnet.Network
	clock   clock.Clock
	entry   []string
	logger  *log.Logger

	// Per-node boot state retained so Crash/Restart can rebuild a server
	// on its surviving store and WAL.
	specs  []ServerSpec
	stores []store.Store
	peers  [][]string
	eps    [][]string
}

// New builds and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Servers) == 0 {
		return nil, fmt.Errorf("cluster: no servers specified")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	if cfg.Network == nil {
		cfg.Network = memnet.NewFabric()
	}
	addrs := make([]string, len(cfg.Servers))
	for i, spec := range cfg.Servers {
		addrs[i] = fmt.Sprintf("%s:%d", spec.Host, spec.Port)
	}
	c := &Cluster{network: cfg.Network, clock: cfg.Clock, logger: cfg.Logger}
	for i, spec := range cfg.Servers {
		st := store.NewMem()
		var entryPoints []string
		if spec.Site != nil {
			scale := spec.Scale
			if scale <= 0 {
				scale = 1
			}
			if err := spec.Site.Materialize(st, scale); err != nil {
				c.Close()
				return nil, err
			}
			entryPoints = spec.Site.EntryPoints
		}
		peers := make([]string, 0, len(addrs)-1)
		for j, a := range addrs {
			if j != i {
				peers = append(peers, a)
			}
		}
		c.specs = append(c.specs, spec)
		c.stores = append(c.stores, st)
		c.peers = append(c.peers, peers)
		c.eps = append(c.eps, entryPoints)
		srv, err := c.boot(i)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.Servers = append(c.Servers, srv)
		for _, ep := range entryPoints {
			c.entry = append(c.entry, "http://"+addrs[i]+ep)
		}
	}
	return c, nil
}

// boot constructs and starts node i on its retained store, peer list, and
// WAL directory.
func (c *Cluster) boot(i int) (*dcws.Server, error) {
	spec := c.specs[i]
	addr := fmt.Sprintf("%s:%d", spec.Host, spec.Port)
	// Over an in-memory fabric, each server dials as itself so that
	// per-link latency and injected faults apply to its traffic.
	srvNet := c.network
	if fab, ok := c.network.(*memnet.Fabric); ok {
		srvNet = fab.Named(addr)
	}
	srv, err := dcws.New(dcws.Config{
		Origin:      naming.Origin{Host: spec.Host, Port: spec.Port},
		Store:       c.stores[i],
		Network:     srvNet,
		Clock:       c.clock,
		EntryPoints: c.eps[i],
		Peers:       c.peers[i],
		Params:      spec.Params,
		Logger:      c.logger,
		WALDir:      spec.WALDir,
	})
	if err != nil {
		return nil, fmt.Errorf("cluster: server %s: %w", addr, err)
	}
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return srv, nil
}

// Crash kills node i the hard way — no final snapshot, no final WAL sync —
// leaving its store and WAL directory exactly as a kill -9 would.
func (c *Cluster) Crash(i int) error {
	return c.Servers[i].Abort()
}

// Restart boots node i again on the store and WAL its crash left behind
// and swaps the new instance into Servers[i].
func (c *Cluster) Restart(i int) (*dcws.Server, error) {
	srv, err := c.boot(i)
	if err != nil {
		return nil, err
	}
	c.Servers[i] = srv
	return srv, nil
}

// Close stops every server.
func (c *Cluster) Close() {
	for _, s := range c.Servers {
		s.Close()
	}
}

// EntryURLs returns the absolute URLs of every home server's entry points.
func (c *Cluster) EntryURLs() []string {
	out := make([]string, len(c.entry))
	copy(out, c.entry)
	return out
}

// Dialer returns a dialer for benchmark clients.
func (c *Cluster) Dialer() httpx.Dialer {
	return httpx.DialerFunc(c.network.Dial)
}

// Fabric returns the underlying in-memory fabric when the cluster runs on
// one, or nil over real TCP. Chaos experiments use it to inject link
// faults and partitions while a benchmark is running.
func (c *Cluster) Fabric() *memnet.Fabric {
	f, _ := c.network.(*memnet.Fabric)
	return f
}

// TickStats runs one statistics interval on every server (deterministic
// alternative to waiting for T_st).
func (c *Cluster) TickStats() {
	for _, s := range c.Servers {
		s.TickStats()
	}
}

// TickValidators runs one validation pass on every server.
func (c *Cluster) TickValidators() {
	for _, s := range c.Servers {
		s.TickValidator()
	}
}

// TickPingers runs one pinger activation on every server.
func (c *Cluster) TickPingers() {
	for _, s := range c.Servers {
		s.TickPinger()
	}
}

// TickAntiEntropy runs one anti-entropy digest round on every server.
func (c *Cluster) TickAntiEntropy() {
	for _, s := range c.Servers {
		s.TickAntiEntropy()
	}
}

// TotalMigrated reports how many documents are currently hosted away from
// their home servers, summed over the cluster.
func (c *Cluster) TotalMigrated() int {
	n := 0
	for _, s := range c.Servers {
		n += len(s.Graph().Migrated())
	}
	return n
}

// BenchResult summarizes a benchmark run.
type BenchResult struct {
	// Elapsed is the wall-clock duration of the measurement.
	Elapsed time.Duration
	// Stats are the client-side counters.
	Stats *webclient.Stats
	// CPS and BPS are client-observed connections and bytes per second.
	CPS float64
	BPS float64
}

// RunBenchmark launches the given number of Algorithm 2 clients against the
// cluster for the duration, with an optional per-tick callback driving
// server maintenance (called every tick interval; pass 0 to disable).
func (c *Cluster) RunBenchmark(clients int, duration, tick time.Duration, onTick func()) (*BenchResult, error) {
	stats := &webclient.Stats{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl, err := webclient.New(webclient.Config{
			Dialer:    c.Dialer(),
			Clock:     c.clock,
			EntryURLs: c.EntryURLs(),
			Seed:      int64(i + 1),
			Stats:     stats,
		})
		if err != nil {
			close(stop)
			return nil, err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer cl.Close()
			cl.Run(stop)
		}()
	}
	start := time.Now()
	deadline := time.After(duration)
	if tick > 0 && onTick != nil {
		ticker := time.NewTicker(tick)
		defer ticker.Stop()
	loop:
		for {
			select {
			case <-deadline:
				break loop
			case <-ticker.C:
				onTick()
			}
		}
	} else {
		<-deadline
	}
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	return &BenchResult{
		Elapsed: elapsed,
		Stats:   stats,
		CPS:     float64(stats.Connections.Value()) / elapsed.Seconds(),
		BPS:     float64(stats.Bytes.Value()) / elapsed.Seconds(),
	}, nil
}

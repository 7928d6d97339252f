// Package dcws is a from-scratch Go implementation of the Distributed
// Cooperative Web Server (Baker & Moon, "Scalable Web Server Design for
// Distributed Data Management", ICDE 1999): a group of web servers that
// balances load by migrating documents between servers and dynamically
// rewriting the hyperlinks that lead to them — no router, no DNS tricks,
// no shared filesystem, full compatibility with plain HTTP clients.
//
// The package is a facade over the implementation packages:
//
//   - Server is one DCWS node (simultaneously a home server for its own
//     documents and a potential co-op server for its peers).
//   - Cluster boots a whole server group in one process, over an in-memory
//     network or real TCP.
//   - Client is the paper's Algorithm 2 benchmark client.
//   - The dataset generators reproduce the paper's four evaluation data
//     sets (MAPUG, SBLog, LOD, Sequoia 2000).
//   - Sim runs the discrete-event simulation used to regenerate the
//     paper's figures at 16-server scale on a laptop.
//
// Quick start:
//
//	st := dcws.NewMemStore()
//	st.Put("/index.html", []byte(`<a href="/a.html">a</a>`))
//	st.Put("/a.html", []byte(`<html>hello</html>`))
//	srv, err := dcws.New(dcws.Config{
//	    Origin:      dcws.Origin{Host: "127.0.0.1", Port: 8080},
//	    Store:       st,
//	    Network:     dcws.TCPNetwork{},
//	    EntryPoints: []string{"/index.html"},
//	})
//	if err != nil { ... }
//	srv.Start()
//	defer srv.Close()
package dcws

import (
	"dcws/internal/clock"
	"dcws/internal/cluster"
	"dcws/internal/dataset"
	idcws "dcws/internal/dcws"
	"dcws/internal/memnet"
	"dcws/internal/naming"
	"dcws/internal/sim"
	"dcws/internal/store"
	"dcws/internal/webclient"
)

// Server is one DCWS node. See internal/dcws for the full method set:
// Start, Close, Status, Graph, LoadTable, Stats, Migrations,
// UpdateDocument, RecallFrom, Replicas, and the Tick* methods for
// deterministic harnesses.
type Server = idcws.Server

// Config assembles a server's identity and dependencies.
type Config = idcws.Config

// Params holds every tunable: the paper's Table 1 and the settings of the
// extensions. Zero fields take the DefaultParams value (Params.WithDefaults).
type Params = idcws.Params

// Status is a server's identity-and-placement snapshot (also served as
// JSON at /~dcws/status); its counters live in the metrics registry.
type Status = idcws.Status

// Origin identifies a server as host:port.
type Origin = naming.Origin

// ParseOrigin parses "host:port" into an Origin.
var ParseOrigin = naming.ParseOrigin

// New builds a server: it scans the store, parses every HTML document, and
// constructs the local document graph.
var New = idcws.New

// DefaultParams returns the paper's Table 1 configuration plus the defaults
// of the extensions.
var DefaultParams = idcws.DefaultParams

// Cluster is a running in-process server group.
type Cluster = cluster.Cluster

// ClusterConfig describes a cluster.
type ClusterConfig = cluster.Config

// ServerSpec describes one server in a cluster.
type ServerSpec = cluster.ServerSpec

// NewCluster builds and starts a cluster.
var NewCluster = cluster.New

// Network abstracts connectivity: TCPNetwork for production, Fabric for
// single-process deployments and tests.
type Network = memnet.Network

// TCPNetwork is the Network backed by the operating system's TCP stack.
type TCPNetwork = memnet.TCP

// Fabric is an in-memory Network with bounded backlogs and optional
// injected latency (for geographically-distributed scenarios).
type Fabric = memnet.Fabric

// NewFabric returns an empty in-memory network.
var NewFabric = memnet.NewFabric

// Store is the document storage interface.
type Store = store.Store

// NewMemStore returns an in-memory document store.
var NewMemStore = store.NewMem

// NewDirStore returns a document store rooted at a directory.
var NewDirStore = store.NewDir

// Clock abstracts time; servers accept Real, Scaled (compressed demos), or
// Manual (deterministic tests) clocks.
type Clock = clock.Clock

// RealClock is the system wall clock.
type RealClock = clock.Real

// NewScaledClock returns a clock running factor times faster than real
// time, shrinking the paper's 10-120 s maintenance intervals for demos.
var NewScaledClock = clock.NewScaled

// NewManualClock returns a clock driven by explicit Advance calls.
var NewManualClock = clock.NewManual

// Site is a synthetic data set (documents, sizes, hyperlinks, entry
// points).
type Site = dataset.Site

// The four evaluation data sets of the paper (§5.2), reproduced from their
// published statistics.
var (
	MAPUG   = dataset.MAPUG
	SBLog   = dataset.SBLog
	LOD     = dataset.LOD
	Sequoia = dataset.Sequoia
)

// HotImage is a synthetic one-viral-image workload isolating the situation
// the hot-spot replication extension targets.
var HotImage = dataset.HotImage

// DatasetByName maps "mapug", "sblog", "lod", "sequoia" to a generator.
var DatasetByName = dataset.ByName

// Client is the Algorithm 2 benchmark client: entry-point start, random
// link walk, per-sequence cache, parallel image helpers, 503 backoff.
type Client = webclient.Client

// ClientConfig configures a benchmark client.
type ClientConfig = webclient.Config

// ClientStats aggregates client-side measurements.
type ClientStats = webclient.Stats

// NewClient returns a benchmark client.
var NewClient = webclient.New

// Replayer replays Common Log Format access logs against a server group —
// the §6 future-work item of evaluating with real logs.
type Replayer = webclient.Replayer

// ReplayConfig configures a log replay.
type ReplayConfig = webclient.ReplayConfig

// LogEntry is one parsed access-log record.
type LogEntry = webclient.LogEntry

// NewReplayer builds a log replayer.
var NewReplayer = webclient.NewReplayer

// ParseCommonLog parses Common Log Format access-log lines.
var ParseCommonLog = webclient.ParseCommonLog

// SynthesizeLog dry-runs the Algorithm 2 client over a data set and emits a
// realistic access log for later replay.
var SynthesizeLog = webclient.SynthesizeLog

// WriteCommonLog writes access-log entries in Common Log Format.
var WriteCommonLog = webclient.WriteCommonLog

// SimConfig configures one discrete-event simulation run.
type SimConfig = sim.Config

// SimResult reports a simulation's measurements.
type SimResult = sim.Result

// SimMode selects DCWS or one of the related-work baselines.
type SimMode = sim.Mode

// Simulation modes.
const (
	SimDCWS   = sim.ModeDCWS
	SimRRDNS  = sim.ModeRRDNS
	SimRouter = sim.ModeRouter
)

// Simulate executes one discrete-event simulation.
var Simulate = sim.Run

// Command node is the benchmark's server launcher: one DCWS server on
// loopback TCP, built from the same facade cmd/dcwsd uses, with the
// control plane frozen so that nothing but the generated requests changes
// the system while a window is timed.
//
// It exists because cmd/dcwsd exposes no flags for the Params that decide
// stats-tick migration, hot replication, snapshots and anti-entropy, and
// the benchmark may not edit cmd/. Placement is scripted from outside
// through POST /~dcws/migrate; the node itself never moves a document.
//
// The node owns its -dir (document root, already materialized by the
// benchmark, and WAL) and removes it when its standard input closes — which
// is how the benchmark stops it, and what happens when the benchmark dies.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"time"

	"dcws"
)

func main() {
	var (
		addr    = flag.String("addr", "", "host:port to listen on")
		dir     = flag.String("dir", "", "directory this node owns: documents under root/, WAL under wal/")
		mem     = flag.Bool("mem", false, "keep documents in memory, as dcwsd does without -root; -dir then holds the WAL alone")
		entry   = flag.String("entry", "", "comma-separated entry points")
		peers   = flag.String("peers", "", "comma-separated peer servers")
		useWAL  = flag.Bool("wal", false, "enable the durable tier under -dir")
		lease   = flag.Duration("lease", 0, "push-invalidation lease duration (0: polling validation)")
		verbose = flag.Bool("v", false, "log server messages to stderr")
	)
	flag.Parse()
	if *addr == "" || *dir == "" {
		fmt.Fprintln(os.Stderr, "node: -addr and -dir are required")
		os.Exit(2)
	}
	err := run(*addr, *dir, *mem, *entry, *peers, *useWAL, *lease, *verbose)
	os.RemoveAll(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "node:", err)
		os.Exit(1)
	}
}

// frozenParams returns Table 1 with the control plane held still. The
// statistics tick is what decides: with the defaults it fires every 10 s,
// finds every popular document above HotReplicateRate = 50 hits/s at
// benchmark load and chain-replicates it, and runs Algorithm 1 — whose
// threshold halves until some document qualifies, so no MigrationThreshold
// turns it off — rewriting links in the middle of a window, at a moment
// that depends on how long set-up took. An interval longer than any run
// means no tick at all; the serve path still refreshes the advertised load
// every PiggybackRefresh.
func frozenParams(lease time.Duration) dcws.Params {
	p := dcws.DefaultParams()
	p.StatsInterval = time.Hour // no stats-tick migration, replication or revocation
	p.HotReplicateRate = -1     // nor a hot-document trigger, should a tick ever run
	p.SnapshotInterval = -1     // no periodic WAL snapshot
	p.AntiEntropyInterval = -1  // piggybacked deltas only
	p.SLOCheckInterval = -1     // no burn-rate watcher, no auto-profiling
	p.LeaseDuration = lease
	return p
}

func run(addr, dir string, mem bool, entry, peers string, useWAL bool, lease time.Duration, verbose bool) error {
	origin, err := dcws.ParseOrigin(addr)
	if err != nil {
		return err
	}
	var (
		st     dcws.Store = dcws.NewMemStore()
		walDir string
	)
	if !mem {
		if st, err = dcws.NewDirStore(filepath.Join(dir, "root")); err != nil {
			return err
		}
	}
	if useWAL {
		walDir = filepath.Join(dir, "wal")
	}
	var logger *log.Logger
	if verbose {
		logger = log.New(os.Stderr, "", log.Lmicroseconds)
	}
	srv, err := dcws.New(dcws.Config{
		Origin:      origin,
		Store:       st,
		Network:     dcws.TCPNetwork{},
		EntryPoints: splitList(entry),
		Peers:       splitList(peers),
		Params:      frozenParams(lease),
		Logger:      logger,
		WALDir:      walDir,
	})
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	fmt.Println("ready", addr)

	// Serve until the benchmark closes our stdin (or dies, which closes it
	// too). No snapshot, no drain: the benchmark has its numbers by now.
	io.Copy(io.Discard, os.Stdin)
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Command dcwsd runs one DCWS server on real TCP. A server is a home
// server for the documents under its -root directory and a co-op server
// for any peer that migrates documents to it; an empty -root starts a pure
// co-op node.
//
// Example: a two-node group on one machine.
//
//	dcwsgen -dataset lod -out ./site
//	dcwsd -addr 127.0.0.1:8080 -root ./site -entry /index.html \
//	      -peers 127.0.0.1:8081 &
//	dcwsd -addr 127.0.0.1:8081 -root ./coopdata -peers 127.0.0.1:8080 &
//
// Identity, placement and peer state are served at
// http://<addr>/~dcws/status, every counter and gauge at
// http://<addr>/~dcws/metrics.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"dcws"
)

func main() {
	var (
		addr    = flag.String("addr", "127.0.0.1:8080", "host:port to listen on and announce to peers")
		root    = flag.String("root", "", "document root directory (empty: pure co-op server)")
		entry   = flag.String("entry", "", "comma-separated well-known entry points, e.g. /index.html")
		peers   = flag.String("peers", "", "comma-separated peer servers (host:port)")
		speed   = flag.Int("speedup", 1, "clock speed-up factor (compresses the Table 1 intervals for demos)")
		useBPS  = flag.Bool("bps-metric", false, "balance on bytes/s instead of connections/s")
		pprof   = flag.String("pprof", "", "side listener for net/http/pprof, e.g. 127.0.0.1:6060 (empty: disabled)")
		access  = flag.String("access-log", "", "access-log destination: a file path, \"-\" for stderr (empty: disabled); lines carry trace= IDs joinable against /~dcws/trace")
		walDir  = flag.String("wal", "", "durable-tier directory for the WAL and snapshots (empty: state is lost on crash)")
		walFS   = flag.String("wal-sync", "", "WAL fsync policy: always, interval, or none (default: interval)")
		profs   = flag.String("profiles", "", "directory for automatic pprof captures on SLO burn-rate alerts, served at /~dcws/profiles (empty: disabled)")
		lease   = flag.Duration("lease", 30*time.Second, "push-invalidation lease duration for hosted copies; 0 reverts to pure polling validation")
		zone    = flag.String("zone", "", "failure/locality zone label gossiped with the load entry; migrations and replicas prefer same-zone targets (empty: unzoned)")
		workers = flag.Int("workers", 0, "worker pool size N_wk (0: Table 1 default); the calibrated capacity a server advertises scales with it")
	)
	flag.Parse()

	if *pprof != "" {
		// The DCWS wire protocol is hand-rolled, so profiling runs on a
		// separate net/http listener rather than the serving socket.
		go func() {
			log.Printf("dcwsd: pprof on http://%s/debug/pprof/", *pprof)
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				log.Printf("dcwsd: pprof listener: %v", err)
			}
		}()
	}

	origin, err := dcws.ParseOrigin(*addr)
	if err != nil {
		log.Fatalf("dcwsd: %v", err)
	}
	var st dcws.Store
	if *root == "" {
		st = dcws.NewMemStore()
	} else {
		st, err = dcws.NewDirStore(*root)
		if err != nil {
			log.Fatalf("dcwsd: %v", err)
		}
	}
	var clk dcws.Clock = dcws.RealClock{}
	if *speed > 1 {
		clk = dcws.NewScaledClock(*speed)
	}
	params := dcws.DefaultParams()
	params.UseBPSMetric = *useBPS
	params.LeaseDuration = *lease
	params.Zone = *zone
	if *workers > 0 {
		params.Workers = *workers
	}
	if *walFS != "" {
		params.WALSync = *walFS
	}

	var accessLog *log.Logger
	switch *access {
	case "":
	case "-":
		accessLog = log.New(os.Stderr, "access ", log.LstdFlags)
	default:
		f, err := os.OpenFile(*access, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			log.Fatalf("dcwsd: %v", err)
		}
		defer f.Close()
		accessLog = log.New(f, "", log.LstdFlags)
	}

	srv, err := dcws.New(dcws.Config{
		Origin:      origin,
		Store:       st,
		Network:     dcws.TCPNetwork{},
		Clock:       clk,
		EntryPoints: splitList(*entry),
		Peers:       splitList(*peers),
		Params:      params,
		Logger:      log.New(os.Stderr, "", log.LstdFlags),
		AccessLog:   accessLog,
		WALDir:      *walDir,
		ProfileDir:  *profs,
	})
	if err != nil {
		log.Fatalf("dcwsd: %v", err)
	}
	if err := srv.Start(); err != nil {
		log.Fatalf("dcwsd: %v", err)
	}
	fmt.Printf("dcwsd listening on %s (status: http://%s/~dcws/status, metrics: http://%s/~dcws/metrics)\n",
		*addr, *addr, *addr)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Println("dcwsd: shutting down")
	srv.Close()
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

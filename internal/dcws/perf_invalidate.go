package dcws

import (
	"fmt"
	"strings"
	"time"

	"dcws/internal/clock"
	"dcws/internal/glt"
	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/naming"
	"dcws/internal/store"
)

// InvalidateReport compares the paper's §4.5 polling validation against
// push invalidation with leases, on a live in-memory cluster in steady
// state: every co-op holds its copies, nothing is changing, and the only
// consistency traffic is whatever the protocol forces. Polling pays one
// conditional GET per hosted copy per T_val forever; push pays zero, and
// an actual update reaches subscribers in one frame's flight time.
type InvalidateReport struct {
	Nodes int `json:"nodes"`
	Docs  int `json:"docs"`
	// Rounds is the number of validator intervals measured in each mode.
	Rounds int `json:"rounds"`
	// PollingRPCs is the steady-state validation RPC count over Rounds
	// validator ticks with leases off (the paper's design).
	PollingRPCs int64 `json:"polling_rpcs"`
	// PushRPCs is the same measurement with leases on — validator polls
	// that still happened despite lease cover.
	PushRPCs int64 `json:"push_rpcs"`
	// LeaseSkips counts the polls the leases elided.
	LeaseSkips int64 `json:"lease_skips"`
	// Pushes / Received are the home's invalidation frames sent and the
	// co-ops' frames received during the staleness measurement.
	Pushes   int64 `json:"pushes"`
	Received int64 `json:"received"`
	// RPCReductionX is PollingRPCs / max(PushRPCs, 1) — the collapse in
	// steady-state validation traffic.
	RPCReductionX float64 `json:"rpc_reduction_x"`
	// StalenessSeconds is the wall time from UpdateDocument at the home
	// until a subscribed co-op served the new bytes, without any validator
	// tick running — purely push-driven freshness.
	StalenessSeconds float64 `json:"staleness_seconds"`
}

// invalCluster is one booted measurement cluster: a home with docs
// documents migrated round-robin across the co-ops, every copy physically
// fetched and hosted.
type invalCluster struct {
	fabric *memnet.Fabric
	cl     *clock.Manual
	client *httpx.Client
	home   *Server
	coops  []*Server
	keys   []string // migration key per document, aligned with docs
	docs   []string
	hosts  []*Server // hosting co-op per document
}

func (c *invalCluster) close() {
	for _, s := range c.coops {
		s.Close()
	}
	if c.home != nil {
		c.home.Close()
	}
}

// bootInvalCluster builds the steady state both modes are measured in.
// lease == 0 is the paper's polling design; lease > 0 turns on push
// invalidation (heartbeats are disabled so the manual clock never has to
// tick for channel liveness).
func bootInvalCluster(nodes, docsN int, lease time.Duration) (*invalCluster, error) {
	c := &invalCluster{
		fabric: memnet.NewFabric(),
		cl:     clock.NewManual(time.Unix(1_000_000, 0)),
	}
	c.client = httpx.NewClient(httpx.DialerFunc(c.fabric.Dial))

	boot := func(host string, port int, st store.Store, entries, peers []string) (*Server, error) {
		params := Params{
			LeaseDuration:       lease,
			InvalidateHeartbeat: -1, // manual clock: no heartbeat pacing
		}
		params.RetryBaseDelay = -1 // manual clock: never sleep a backoff
		s, err := New(Config{
			Origin:      naming.Origin{Host: host, Port: port},
			Store:       st,
			Network:     c.fabric.Named(naming.Origin{Host: host, Port: port}.Addr()),
			Clock:       c.cl,
			EntryPoints: entries,
			Peers:       peers,
			Params:      params,
		})
		if err != nil {
			return nil, err
		}
		if err := s.Start(); err != nil {
			return nil, err
		}
		return s, nil
	}

	homeStore := store.NewMem()
	var links []string
	for i := 0; i < docsN; i++ {
		links = append(links, fmt.Sprintf("/doc%02d.html", i))
	}
	homeStore.Put("/index.html", perfDoc(links, 2<<10))
	for _, name := range links {
		homeStore.Put(name, perfDoc(nil, 8<<10))
	}
	home, err := boot("home", 80, homeStore, []string{"/index.html"}, nil)
	if err != nil {
		c.close()
		return nil, err
	}
	c.home = home

	for i := 1; i < nodes; i++ {
		coop, err := boot(fmt.Sprintf("coop%02d", i), 80+i, store.NewMem(), nil, []string{home.Addr()})
		if err != nil {
			c.close()
			return nil, err
		}
		c.coops = append(c.coops, coop)
		home.LoadTable().Observe(glt.Entry{Server: coop.Addr()})
	}

	// Migrate the documents round-robin and pull each copy once so every
	// co-op physically hosts its share (the lazy fetch also subscribes and
	// takes the lease when lease > 0).
	for i, name := range links {
		coop := c.coops[i%len(c.coops)]
		home.migrate(name, coop.Addr())
		key, err := naming.Encode(home.Origin(), name)
		if err != nil {
			c.close()
			return nil, err
		}
		resp, err := c.client.Get(coop.Addr(), key, nil)
		if err != nil {
			c.close()
			return nil, err
		}
		if resp.Status != 200 {
			c.close()
			return nil, fmt.Errorf("dcws: seeding fetch of %s = %d", key, resp.Status)
		}
		c.docs = append(c.docs, name)
		c.keys = append(c.keys, key)
		c.hosts = append(c.hosts, coop)
	}
	return c, nil
}

// waitSubscribed blocks (real time) until every co-op's subscription
// channel to the home is live — the steady state push mode runs in.
func (c *invalCluster) waitSubscribed(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		live := true
		for _, coop := range c.coops {
			if !coop.subs.subscriptionLive(c.home.Addr()) {
				live = false
				break
			}
		}
		if live {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("dcws: subscriptions not live within %v", timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// MeasureInvalidation boots two identical live clusters — one polling
// (LeaseDuration zero, the paper's design), one push (leases on) — runs
// the same number of steady-state validator rounds through each, and then
// measures update-to-fresh-serve staleness on the push cluster.
func MeasureInvalidation(nodes int) (InvalidateReport, error) {
	const docsN = 30
	const rounds = 20
	rep := InvalidateReport{Nodes: nodes, Docs: docsN, Rounds: rounds}
	if nodes < 2 {
		return rep, fmt.Errorf("dcws: invalidation measurement needs at least 2 nodes")
	}

	// Polling baseline.
	polling, err := bootInvalCluster(nodes, docsN, 0)
	if err != nil {
		return rep, err
	}
	for r := 0; r < rounds; r++ {
		for _, coop := range polling.coops {
			coop.TickValidator()
		}
	}
	for _, coop := range polling.coops {
		rep.PollingRPCs += int64(coop.metric("dcws_validate_polls_total"))
	}
	polling.close()

	// Push mode: same placement, leases on.
	push, err := bootInvalCluster(nodes, docsN, time.Minute)
	if err != nil {
		return rep, err
	}
	defer push.close()
	if err := push.waitSubscribed(5 * time.Second); err != nil {
		return rep, err
	}
	for r := 0; r < rounds; r++ {
		for _, coop := range push.coops {
			coop.TickValidator()
		}
	}
	for _, coop := range push.coops {
		rep.PushRPCs += int64(coop.metric("dcws_validate_polls_total"))
		rep.LeaseSkips += int64(coop.metric("dcws_invalidate_lease_skips_total"))
	}
	denom := rep.PushRPCs
	if denom < 1 {
		denom = 1
	}
	rep.RPCReductionX = float64(rep.PollingRPCs) / float64(denom)

	// Staleness: update one hosted document at the home and time how long
	// the push takes to make its co-op serve the new bytes — no validator
	// tick runs; only the invalidation frame can refresh the copy.
	doc, key, host := push.docs[0], push.keys[0], push.hosts[0]
	fresh := []byte("<html><body>" + strings.Repeat("fresh-content ", 64) + "</body></html>")
	start := time.Now()
	if err := push.home.UpdateDocument(doc, fresh); err != nil {
		return rep, err
	}
	deadline := start.Add(5 * time.Second)
	for {
		resp, err := push.client.Get(host.Addr(), key, nil)
		if err == nil && resp.Status == 200 && strings.Contains(string(resp.Body), "fresh-content") {
			rep.StalenessSeconds = time.Since(start).Seconds()
			break
		}
		if time.Now().After(deadline) {
			return rep, fmt.Errorf("dcws: co-op still serving stale bytes after %v", time.Since(start))
		}
		time.Sleep(time.Millisecond)
	}
	rep.Pushes = int64(push.home.metric("dcws_invalidate_pushes_total"))
	for _, coop := range push.coops {
		rep.Received += int64(coop.metric("dcws_invalidate_received_total"))
	}
	return rep, nil
}

package dcws

import (
	"fmt"
	"time"

	"dcws/internal/clock"
	"dcws/internal/glt"
	"dcws/internal/httpx"
	"dcws/internal/memnet"
	"dcws/internal/naming"
	"dcws/internal/store"
)

// ChainEgressReport is the measured cost of one proactive chain
// dissemination at fan-out k over a live in-memory cluster: the bytes the
// home actually uploaded, against the size of the document it was
// spreading. The whole point of the chain is that HomePushBytes stays at
// ~one document copy however large k grows — fan-out beyond the first link
// is paid by the relaying co-ops, not the home.
type ChainEgressReport struct {
	K             int   `json:"k"`
	DocBytes      int64 `json:"doc_bytes"`
	HomePushBytes int64 `json:"home_push_bytes"`
	// HomeLazyFetches counts /~migrate fetches the home answered — zero
	// when the push truly pre-positioned every replica.
	HomeLazyFetches int64 `json:"home_lazy_fetches"`
	Replicas        int   `json:"replicas"`
	// Relays counts successor hand-offs performed by co-ops (k-1 when no
	// link was skipped).
	Relays int64 `json:"relays"`
}

// MeasureChainEgress boots a live cluster of the given size on an
// in-memory fabric, heats one ~100 KB document past the chain-replication
// threshold, fires the statistics tick that triggers dissemination, and
// reports the home-side egress. The cluster is real servers exchanging
// real requests — only the transport is in-memory.
func MeasureChainEgress(nodes, k int) (ChainEgressReport, error) {
	var rep ChainEgressReport
	if nodes < k+1 {
		return rep, fmt.Errorf("dcws: %d nodes cannot host %d replicas plus a home", nodes, k)
	}
	fabric := memnet.NewFabric()
	cl := clock.NewManual(time.Unix(1_000_000, 0))
	client := httpx.NewClient(httpx.DialerFunc(fabric.Dial))

	hotBody := perfDoc([]string{"/index.html"}, 100<<10)
	rep.K = k
	rep.DocBytes = int64(len(hotBody))

	boot := func(host string, port int, st store.Store, entries, peers []string, params Params) (*Server, error) {
		params.RetryBaseDelay = -1 // manual clock: never sleep a backoff
		s, err := New(Config{
			Origin:      naming.Origin{Host: host, Port: port},
			Store:       st,
			Network:     fabric.Named(naming.Origin{Host: host, Port: port}.Addr()),
			Clock:       cl,
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
	homeStore.Put("/index.html", perfDoc([]string{"/hot.html"}, 2<<10))
	homeStore.Put("/hot.html", hotBody)
	homeParams := Params{
		StatsInterval:    time.Second,
		HotReplicateRate: 1,
		HotReplicaCount:  k,
	}
	home, err := boot("home", 80, homeStore, []string{"/index.html"}, nil, homeParams)
	if err != nil {
		return rep, err
	}
	defer home.Close()

	coops := make([]*Server, 0, nodes-1)
	for i := 1; i < nodes; i++ {
		coop, err := boot(fmt.Sprintf("coop%02d", i), 80+i, store.NewMem(), nil, []string{home.Addr()}, Params{})
		if err != nil {
			return rep, err
		}
		defer coop.Close()
		coops = append(coops, coop)
		home.LoadTable().Observe(glt.Entry{Server: coop.Addr()})
	}

	// Heat the document past the 1 hit/s threshold, then let one
	// statistics tick run the EWMA trigger and the chain push.
	for i := 0; i < 8; i++ {
		resp, err := client.Get(home.Addr(), "/hot.html", nil)
		if err != nil {
			return rep, err
		}
		if resp.Status != 200 {
			return rep, fmt.Errorf("dcws: warm-up serve = %d", resp.Status)
		}
	}
	home.TickStats()

	rep.HomePushBytes = int64(home.metric("dcws_replicate_push_bytes_total"))
	rep.Replicas = len(home.Replicas("/hot.html"))
	for _, coop := range coops {
		rep.Relays += int64(coop.metric("dcws_replicate_relays_total"))
	}
	rep.HomeLazyFetches = home.Stats().Fetches.Value()
	return rep, nil
}

package sim

import (
	"fmt"
	"testing"
	"time"

	"dcws/internal/dataset"
	"dcws/internal/dcws"
)

// serverAddrAt names server i (1-based), matching World.build.
func serverAddrAt(i int) string { return fmt.Sprintf("server%02d:80", i) }

// heteroConfig is the Figure-6-style heterogeneous sweep point the
// placement bench also runs: 16 workstations with a 4x capacity spread
// between the fastest and the slowest, cold-started so the migration
// policy alone decides where documents land.
func heteroConfig(weighted bool) Config {
	params := fastParams()
	if !weighted {
		// Negative opts out of capacity normalization: raw loads on the
		// wire, legacy least-loaded placement.
		params.CapacitySmoothing = -1
	}
	return Config{
		Site:         dataset.LOD(),
		Servers:      16,
		Clients:      320,
		Duration:     90 * time.Second,
		HeteroSpread: 4,
		WarmStart:    true,
		Params:       params,
		Seed:         42,
	}
}

// TestHeterogeneousWeightedPlacement is the 16-node 4x-spread sweep:
// capacity-normalized placement must serve at least as much traffic as
// raw-load placement on the same heterogeneous group, and its migrations
// must land by headroom — the faster half of the co-op pool ends up
// serving more than the slower half.
func TestHeterogeneousWeightedPlacement(t *testing.T) {
	weighted, err := Run(heteroConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	unweighted, err := Run(heteroConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("weighted:   conns=%d drops=%d peak=%.0f shed=%.3f",
		weighted.Connections, weighted.Drops, weighted.PeakCPS, weighted.ShedRate())
	t.Logf("unweighted: conns=%d drops=%d peak=%.0f shed=%.3f",
		unweighted.Connections, unweighted.Drops, unweighted.PeakCPS, unweighted.ShedRate())

	if weighted.Connections < unweighted.Connections {
		t.Errorf("weighted placement served %d connections, unweighted %d; want weighted >= unweighted",
			weighted.Connections, unweighted.Connections)
	}
	if weighted.ShedRate() > unweighted.ShedRate() {
		t.Errorf("weighted shed rate %.3f exceeds unweighted %.3f",
			weighted.ShedRate(), unweighted.ShedRate())
	}

	// Placement-by-headroom: co-op servers 2..16 slow down geometrically,
	// so the faster half of the pool (servers 2-8) has strictly more
	// headroom than the slower half (servers 9-16) and must absorb more
	// of the migrated traffic.
	fast, slow := int64(0), int64(0)
	for i := 2; i <= 16; i++ {
		addr := serverAddrAt(i)
		if i <= 8 {
			fast += weighted.PerServer[addr]
		} else {
			slow += weighted.PerServer[addr]
		}
	}
	t.Logf("weighted co-op split: fast-half=%d slow-half=%d", fast, slow)
	if fast <= slow {
		t.Errorf("fast co-op half served %d connections, slow half %d; want migrations to land by headroom",
			fast, slow)
	}
	if weighted.Migrations == 0 {
		t.Error("no migrations in the weighted heterogeneous run")
	}
}

// TestHeterogeneousSpreadChangesCapacity sanity-checks the spread wiring:
// the analytic capacities of the first and last server must differ by the
// configured ratio.
func TestHeterogeneousSpreadChangesCapacity(t *testing.T) {
	w := &World{
		cfg:     Config{Servers: 16, HeteroSpread: 4},
		params:  dcws.Params{}.WithDefaults(),
		cost:    DefaultCostModel(),
		servers: make(map[string]*simServer),
	}
	first := w.serverCost(0).analyticCapacity(w.params.Workers, false)
	last := w.serverCost(15).analyticCapacity(w.params.Workers, false)
	if ratio := first / last; ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("capacity ratio fastest/slowest = %.2f, want ~4", ratio)
	}
	mid := w.serverCost(7).analyticCapacity(w.params.Workers, false)
	if mid >= first || mid <= last {
		t.Fatalf("capacities not monotone: first=%.0f mid=%.0f last=%.0f", first, mid, last)
	}
}

// Hot spots and the replication extension. Figure 7 of the paper shows
// that the SBLog and MAPUG data sets stop scaling because "there is
// intrinsic skew in access patterns ... This produces excessive hits on
// whichever co-op servers get the migrated images, and eventually those
// servers become saturated"; §6 proposes replication of hot documents as
// the remedy. This example runs the discrete-event simulator three ways —
// the well-behaved LOD set, the hot-spot SBLog set, and SBLog-style skew
// with the replication extension (chain dissemination of hot documents)
// enabled — and prints the scaling curves.
//
//	go run ./examples/hotspot
package main

import (
	"fmt"
	"log"
	"time"

	"dcws"
)

func main() {
	fmt.Println("peak connections/s by server count (discrete-event simulation)")
	fmt.Println()
	fmt.Printf("%-34s %8s %8s %8s\n", "workload", "2 srv", "4 srv", "8 srv")

	row("LOD (no hot spots)", dcws.LOD, false)
	row("SBLog (one hot JPEG)", dcws.SBLog, false)
	row("SBLog + chain dissemination", dcws.SBLog, true)
	row("viral image (100 KB everywhere)", dcws.HotImage, false)
	row("viral image + chain dissemination", dcws.HotImage, true)

	fmt.Println()
	fmt.Println("LOD scales with servers; SBLog's curve flattens as the hot JPEG's host")
	fmt.Println("saturates. The viral-image rows isolate the effect: one migratable")
	fmt.Println("100 KB image binds a single co-op until the replication extension")
	fmt.Println("spreads it across several, recovering the lost scaling. The chain")
	fmt.Println("rows replicate proactively — the home pushes the hot image once and")
	fmt.Println("the co-ops relay it link to link, so the replica set is in place")
	fmt.Println("before the flash crowd saturates anyone. On SBLog itself, at these")
	fmt.Println("sizes, the same trigger does not pay: its third row is below its")
	fmt.Println("second.")
}

func row(label string, gen func() *dcws.Site, chain bool) {
	fmt.Printf("%-34s", label)
	for _, servers := range []int{2, 4, 8} {
		params := dcws.Params{
			StatsInterval:       2 * time.Second,
			PingerInterval:      4 * time.Second,
			ValidateInterval:    20 * time.Second,
			CoopMigrateInterval: 4 * time.Second,
			MigrationThreshold:  1,
			HotReplicateRate:    -1, // the paper's system: no replication
		}
		if chain {
			// A document served 25 times a second is hot; the chain
			// brings it to 4 replicas in one push.
			params.HotReplicateRate = 25
			params.HotReplicaCount = 4
		}
		res, err := dcws.Simulate(dcws.SimConfig{
			Site:      gen(),
			Servers:   servers,
			Clients:   60 * servers,
			Duration:  60 * time.Second,
			Params:    params,
			Seed:      1999,
			WarmStart: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf(" %8.0f", res.PeakCPS)
	}
	fmt.Println()
}

//go:build race

package httpx

// raceEnabled: the race detector makes sync.Pool drop items at random, so
// allocation counts are not repeatable under it.
const raceEnabled = true

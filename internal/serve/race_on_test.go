//go:build race

package serve

// raceEnabled reports that the race detector is active; sync.Pool
// deliberately drops a share of what is Put under race, so a count of
// allocations behind a pool is not meaningful.
const raceEnabled = true

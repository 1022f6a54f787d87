//go:build race

package sim

// raceEnabled reports that the race detector instruments this test binary.
const raceEnabled = true

//go:build race

package alloctest

// The race detector makes sync.Pool drop items at random, so allocation
// counts under it measure the detector, not the code.
const raceEnabled = true

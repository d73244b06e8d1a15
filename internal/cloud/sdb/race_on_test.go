//go:build race

package sdb

// raceEnabled reports that the race detector, whose instrumentation
// allocates, is compiled in.
const raceEnabled = true

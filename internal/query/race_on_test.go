//go:build race

package query

// raceEnabled reports that the race detector, whose instrumentation
// allocates, is compiled in.
const raceEnabled = true

//go:build race

package sqs

// raceEnabled reports that the race detector, which allocates on its own
// and makes sync.Pool drop a share of what it is given, is compiled in.
const raceEnabled = true

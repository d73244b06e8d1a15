//go:build race

package core_test

// raceEnabled reports that the race detector, whose scheduler randomizes
// goroutine order, is compiled in.
const raceEnabled = true

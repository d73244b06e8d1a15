//go:build race

package core

// RaceEnabled reports that the race detector, whose scheduler randomizes
// goroutine order, is compiled in.
const RaceEnabled = true

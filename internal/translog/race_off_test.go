//go:build !race

package translog

const raceEnabled = false

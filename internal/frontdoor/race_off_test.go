//go:build !race

package frontdoor

const raceEnabled = false
